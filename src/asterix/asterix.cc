#include "asterix/asterix.h"

#include <cstdlib>
#include <filesystem>

#include "common/clock.h"
#include "common/logging.h"
#include "storage/key.h"

namespace asterix {

using common::Result;
using common::Status;

AsterixInstance::AsterixInstance(InstanceOptions options)
    : options_(std::move(options)) {
  storage_root_ = options_.storage_root.empty()
                      ? "/tmp/asterixdb_" +
                            std::to_string(common::NowMicros())
                      : options_.storage_root;
  hyracks::ClusterOptions copts;
  copts.storage_root = storage_root_;
  copts.heartbeat_period_ms = options_.heartbeat_period_ms;
  copts.heartbeat_timeout_ms = options_.heartbeat_timeout_ms;
  copts.monitor_period_ms =
      std::max<int64_t>(5, options_.heartbeat_period_ms);
  cluster_ = std::make_unique<hyracks::ClusterController>(copts);
  Status adaptors_status = feeds::RegisterBuiltinAdaptors(&adaptors_);
  if (!adaptors_status.ok()) {
    // Only possible via an alias collision among the built-ins — a
    // programming error, not a runtime condition callers could handle.
    LOG_MSG(kError) << "built-in adaptor registration failed: "
                    << adaptors_status.message();
    std::abort();
  }
}

AsterixInstance::~AsterixInstance() {
  if (cfm_ != nullptr) cfm_->StopMonitor();
  cluster_->Stop();
}

Status AsterixInstance::Start() {
  if (started_) return Status::OK();
  started_ = true;
  if (options_.node_names.empty()) {
    for (int i = 0; i < options_.num_nodes; ++i) {
      options_.node_names.push_back(std::string(1, 'A' + (i % 26)) +
                                    (i >= 26 ? std::to_string(i) : ""));
    }
  }
  for (const std::string& name : options_.node_names) {
    cluster_->AddNode(name);
  }
  cluster_->Start();
  cfm_ = std::make_unique<feeds::CentralFeedManager>(
      cluster_.get(), &feeds_, &adaptors_, &udfs_, &policies_,
      &datasets_);
  if (options_.start_feed_monitor) cfm_->StartMonitor();
  return Status::OK();
}

Status AsterixInstance::CreateType(adm::Datatype type) {
  return types_.Register(std::move(type));
}

Status AsterixInstance::CreateDataset(storage::DatasetDef def) {
  if (!started_) return Status::FailedPrecondition("instance not started");
  std::vector<std::string> nodegroup = def.nodegroup;
  if (nodegroup.empty()) nodegroup = cluster_->AliveNodeIds();
  if (nodegroup.empty()) return Status::Unavailable("no alive nodes");
  for (size_t p = 0; p < nodegroup.size(); ++p) {
    hyracks::NodeController* node = cluster_->GetNode(nodegroup[p]);
    if (node == nullptr) {
      return Status::NotFound("nodegroup names unknown node '" +
                              nodegroup[p] + "'");
    }
    RETURN_IF_ERROR(node->storage().CreatePartition(
        def, static_cast<int>(p), &types_));
  }
  return datasets_.Register(std::move(def), std::move(nodegroup));
}

Status AsterixInstance::CreateIndex(const std::string& dataset,
                                    storage::IndexDef index_def) {
  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry entry,
                   datasets_.Find(dataset));
  for (const std::string& node_id : entry.nodegroup) {
    hyracks::NodeController* node = cluster_->GetNode(node_id);
    if (node == nullptr || !node->alive()) {
      return Status::Unavailable("node " + node_id +
                                 " unavailable for index build");
    }
    auto* partition = node->storage().GetPartition(dataset);
    if (partition == nullptr) {
      return Status::NotFound("partition of '" + dataset +
                              "' missing on " + node_id);
    }
    RETURN_IF_ERROR(partition->AddIndex(index_def));
  }
  return datasets_.AddIndex(dataset, index_def);
}

Status AsterixInstance::CreateFeed(feeds::FeedDef def) {
  if (def.is_primary) {
    RETURN_IF_ERROR(adaptors_.Find(def.adaptor_alias).status());
  }
  if (!def.udf.empty()) {
    RETURN_IF_ERROR(udfs_.Find(def.udf).status());
  }
  return feeds_.CreateFeed(std::move(def));
}

Status AsterixInstance::InstallUdf(std::shared_ptr<feeds::Udf> udf) {
  return udfs_.Register(std::move(udf));
}

Status AsterixInstance::RegisterAdaptor(
    std::shared_ptr<feeds::AdaptorFactory> factory) {
  return adaptors_.Register(std::move(factory));
}

Status AsterixInstance::CreatePolicy(
    const std::string& name, const std::string& base,
    std::map<std::string, std::string> overrides) {
  return policies_.Create(name, base, std::move(overrides));
}

Status AsterixInstance::ConnectFeed(const std::string& feed,
                                    const std::string& dataset,
                                    const std::string& policy,
                                    feeds::ConnectOptions options) {
  if (!started_) return Status::FailedPrecondition("instance not started");
  return cfm_->ConnectFeed(feed, dataset, policy, options);
}

Status AsterixInstance::DisconnectFeed(const std::string& feed,
                                       const std::string& dataset) {
  return cfm_->DisconnectFeed(feed, dataset);
}

std::shared_ptr<feeds::ConnectionMetrics> AsterixInstance::FeedMetrics(
    const std::string& feed, const std::string& dataset) const {
  return cfm_->GetMetrics(feed, dataset);
}

std::string AsterixInstance::ExportMetrics() {
  return common::MetricsRegistry::Default().Export();
}

common::MetricsSnapshot AsterixInstance::SnapshotMetrics() {
  return common::MetricsRegistry::Default().Snapshot();
}

Status AsterixInstance::InsertBatch(const std::string& dataset,
                                    std::vector<adm::Value> records) {
  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry entry,
                   datasets_.Find(dataset));
  // Compile the statement into a job: a source feeding a hash-partitioned
  // IndexInsert across the nodegroup, then schedule, run and clean up —
  // the per-statement overhead of the conventional insert path.
  hyracks::JobSpec spec;
  spec.name = "insert:" + dataset;
  int source = spec.AddOperator(
      {"source",
       {{}, 1},
       [&records](int) {
         return std::make_unique<hyracks::VectorSourceOperator>(
             std::move(records));
       },
       ""});
  const std::string pk = entry.def.primary_key_field;
  int store = spec.AddOperator(
      {"store",
       {entry.nodegroup, 0},
       [dataset](int) {
         return std::make_unique<hyracks::IndexInsertOperator>(dataset);
       },
       ""});
  spec.Connect(source, store, hyracks::PrimaryKeyHashConnector(pk));
  ASSIGN_OR_RETURN(std::shared_ptr<hyracks::JobHandle> job,
                   cluster_->StartJob(std::move(spec)));
  if (!job->Wait(60000)) {
    job->Abort();
    return Status::TimedOut("insert statement timed out");
  }
  cluster_->ForgetJob(job->id());
  for (const auto& group : job->tasks()) {
    for (const auto& task : group) {
      if (!task->final_status().ok()) return task->final_status();
    }
  }
  return Status::OK();
}

Result<int64_t> AsterixInstance::CountDataset(
    const std::string& dataset) const {
  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry entry,
                   datasets_.Find(dataset));
  int64_t total = 0;
  for (const std::string& node_id : entry.nodegroup) {
    hyracks::NodeController* node = cluster_->GetNode(node_id);
    if (node == nullptr || !node->alive()) continue;
    auto* partition = node->storage().GetPartition(dataset);
    if (partition != nullptr) total += partition->record_count();
  }
  return total;
}

Result<std::map<std::pair<int64_t, int64_t>, int64_t>>
AsterixInstance::SpatialAggregate(const std::string& dataset,
                                  const std::string& index_name,
                                  const storage::Rect& region,
                                  double lat_resolution,
                                  double long_resolution) const {
  if (lat_resolution <= 0 || long_resolution <= 0) {
    return Status::InvalidArgument("grid resolutions must be positive");
  }
  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry entry,
                   datasets_.Find(dataset));
  std::map<std::pair<int64_t, int64_t>, int64_t> cells;
  for (const std::string& node_id : entry.nodegroup) {
    hyracks::NodeController* node = cluster_->GetNode(node_id);
    if (node == nullptr || !node->alive()) continue;
    auto* partition = node->storage().GetPartition(dataset);
    if (partition == nullptr) continue;
    auto* index = dynamic_cast<storage::SpatialGridIndex*>(
        partition->FindIndex(index_name));
    if (index == nullptr) {
      return Status::NotFound("dataset '" + dataset +
                              "' has no spatial index '" + index_name +
                              "'");
    }
    for (const auto& [point, pk] : index->SearchRectEntries(region)) {
      auto cell = std::make_pair(
          static_cast<int64_t>((point.x - region.x_min) / lat_resolution),
          static_cast<int64_t>((point.y - region.y_min) /
                               long_resolution));
      ++cells[cell];
    }
  }
  return cells;
}

Result<adm::Value> AsterixInstance::GetRecord(
    const std::string& dataset, const adm::Value& key) const {
  std::shared_ptr<const storage::DatasetCatalog::Entry> entry =
      datasets_.Lookup(dataset);
  if (entry == nullptr) {
    return Status::NotFound("dataset '" + dataset + "' not found");
  }
  const std::vector<std::string>& nodes = entry->nodegroup;
  // A value that cannot be a key is on no node. Probes build no Status.
  auto encoded = storage::EncodeKey(key);
  auto probe = [&](const std::string& node_id) -> std::optional<adm::Value> {
    hyracks::NodeController* node = cluster_->GetNode(node_id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    auto* partition = node->storage().GetPartition(dataset);
    if (partition == nullptr) return std::nullopt;
    return partition->primary().Get(encoded.value());
  };
  // The store's hash connector put the record on its owner; the other
  // alive nodes are asked only when the owner misses (a failed-over store
  // may have written it elsewhere).
  const size_t owner =
      nodes.empty() ? 0 : hyracks::PrimaryKeyPartition(key, nodes.size());
  for (size_t i = 0; encoded.ok() && i < nodes.size(); ++i) {
    auto record = probe(nodes[(owner + i) % nodes.size()]);
    if (record.has_value()) return std::move(*record);
  }
  return Status::NotFound("no record with key " + key.ToAdmString() +
                          " in dataset '" + dataset + "'");
}

Status AsterixInstance::ScanDataset(
    const std::string& dataset,
    const std::function<void(const adm::Value&)>& visitor) const {
  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry entry,
                   datasets_.Find(dataset));
  for (const std::string& node_id : entry.nodegroup) {
    hyracks::NodeController* node = cluster_->GetNode(node_id);
    if (node == nullptr || !node->alive()) continue;
    auto* partition = node->storage().GetPartition(dataset);
    if (partition != nullptr) partition->Scan(visitor);
  }
  return Status::OK();
}

void AsterixInstance::KillNode(const std::string& node_id) {
  cluster_->KillNode(node_id);
}

void AsterixInstance::RestartNode(const std::string& node_id) {
  cluster_->RestartNode(node_id);
}

hyracks::NodeController* AsterixInstance::AddNode(
    const std::string& node_id) {
  return cluster_->AddNode(node_id);
}

}  // namespace asterix
