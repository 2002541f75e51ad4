// Job specifications: a DAG of operator descriptors and connector
// descriptors, with count/location constraints determining the degree and
// placement of parallelism — the "tools at hand" for the feed pipeline
// builder.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "hyracks/operator.h"

namespace asterix {
namespace hyracks {

using JobId = int64_t;

/// Placement constraints for an operator's instances.
struct PartitionConstraint {
  /// Exact node placements. When set, instance i runs on locations[i].
  std::vector<std::string> locations;
  /// When locations is empty: number of instances, scheduled round-robin
  /// over alive nodes, or kPerAliveNode.
  int count = 1;

  /// `count` asking for one instance on each node alive at scheduling.
  static constexpr int kPerAliveNode = -1;

  /// Instances to place when `alive_nodes` nodes are alive.
  int InstanceCount(size_t alive_nodes) const {
    if (!locations.empty()) return static_cast<int>(locations.size());
    return count == kPerAliveNode ? static_cast<int>(alive_nodes) : count;
  }
};

/// What to do with frames produced by the last operator of a partition
/// when it has no out-edge: nothing (NullSink semantics).
enum class ConnectorKind {
  kOneToOne,     // partition i -> partition i
  kMToNHash,     // route each record by hash of extracted key
  kMToNRandom,   // scatter frames round-robin
};

struct ConnectorDescriptor {
  ConnectorKind kind = ConnectorKind::kOneToOne;
  /// For kMToNHash: extracts the partitioning key from a record.
  std::function<std::string(const adm::Value&)> key_extractor;
};

/// The kMToNHash connector into a dataset's store operator: routes each
/// record by its `pk_field` value, so target i (the nodegroup's i-th node)
/// owns the keys PrimaryKeyPartition maps to i.
ConnectorDescriptor PrimaryKeyHashConnector(std::string pk_field);

/// The store target (of `targets`) PrimaryKeyHashConnector routes a record
/// whose primary key is `primary_key` to.
size_t PrimaryKeyPartition(const adm::Value& primary_key, size_t targets);

struct OperatorDescriptor {
  std::string name;  // e.g. "feed_collect", "assign", "index_insert"
  PartitionConstraint constraint;
  OperatorFactory factory;
  /// Identifier of a feed joint to interpose at this operator's output
  /// ("" = none). The joint is created and registered with the node-local
  /// feed manager by the interceptor below.
  std::string joint_id;
};

/// Hook letting the feeds layer interpose a writer (the feed joint)
/// between a task and its in-job downstream router. Receives the joint id,
/// the in-job downstream writer (may be null for terminal operators) and
/// the task context; returns the writer the task should emit into.
using OutputInterceptor = std::function<std::shared_ptr<IFrameWriter>(
    const std::string& joint_id, std::shared_ptr<IFrameWriter> downstream,
    TaskContext* ctx)>;

/// Behaviour when a node hosting one of the job's tasks is lost.
enum class NodeFailurePolicy {
  kAbortJob,    // plain Hyracks semantics: the job fails
  kNotifyOnly,  // feed semantics: keep the job; notify subscribers
};

struct JobSpec {
  std::string name;
  std::vector<OperatorDescriptor> operators;
  /// edges[i] connects operators[edge.from] -> operators[edge.to].
  struct Edge {
    int from;
    int to;
    ConnectorDescriptor connector;
  };
  std::vector<Edge> edges;
  NodeFailurePolicy failure_policy = NodeFailurePolicy::kAbortJob;
  /// Interceptor for operators that declare a joint_id.
  OutputInterceptor output_interceptor;
  /// Input queue capacity (frames) per task: the back-pressure bound.
  size_t task_queue_capacity = 64;

  int AddOperator(OperatorDescriptor op) {
    operators.push_back(std::move(op));
    return static_cast<int>(operators.size()) - 1;
  }
  void Connect(int from, int to, ConnectorDescriptor connector) {
    edges.push_back({from, to, std::move(connector)});
  }
};

}  // namespace hyracks
}  // namespace asterix

