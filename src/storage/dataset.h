// Datasets: named collections of ADM records hash-partitioned by primary
// key across the nodes of a nodegroup. Each node-local partition is itself
// a hash-partitioned LSM primary index (independent sub-partitions with
// background flush/merge) plus co-located secondary indexes, fronted by a
// WAL.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adm/datatype.h"
#include "adm/value.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/lsm_index.h"
#include "storage/secondary_index.h"
#include "storage/wal.h"

namespace asterix {
namespace storage {

struct IndexDef {
  std::string name;
  std::string field;
  IndexKind kind = IndexKind::kBTree;
};

/// Dataset metadata, as recorded in the Metadata catalog.
struct DatasetDef {
  std::string name;
  std::string datatype;          // record type of stored records
  std::string primary_key_field;
  std::vector<IndexDef> indexes;
  /// Nodes hosting a partition. Empty = all cluster nodes (the AsterixDB
  /// default nodegroup).
  std::vector<std::string> nodegroup;
  /// Validate records against `datatype` on insert.
  bool validate_type = false;
  /// Flush the WAL once per stored frame (group commit), before any
  /// record of that frame is acked (durability knob). This is fflush to
  /// the OS, not fsync.
  bool durable_writes = false;
};

/// One node-local partition of a dataset.
class DatasetPartition {
 public:
  /// `dir` is the node-local storage directory for WAL files.
  DatasetPartition(DatasetDef def, int partition_id, std::string dir,
                   const adm::TypeRegistry* types);

  [[nodiscard]] common::Status Open();

  /// Inserts (upserts) one record: InsertFrame of a one-record frame.
  [[nodiscard]] common::Status Insert(const adm::Value& record);

  /// Inserts (upserts) a frame of records. Every record is validated and
  /// its key encoded first, so one bad record fails the frame before
  /// anything is written. Then one WAL group commit (one entry per record,
  /// one flush when durable), one primary-index insert per LSM partition
  /// touched and one pass over the secondary indexes. Thread-safe.
  [[nodiscard]] common::Status InsertFrame(
      std::span<const adm::Value> records);

  /// Point lookup by primary key value.
  [[nodiscard]] common::Result<adm::Value> Get(const adm::Value& primary_key) const;

  /// Visits all records in primary key order.
  void Scan(const std::function<void(const adm::Value&)>& visitor) const;

  int64_t record_count() const { return primary_.Size(); }
  int64_t inserts() const { return inserts_.load(); }

  /// Adds a secondary index to a live partition, backfilling it from
  /// the primary index (the `create index` DDL after data has arrived).
  [[nodiscard]] common::Status AddIndex(const IndexDef& index_def);

  PartitionedLsmIndex& primary() { return primary_; }
  const PartitionedLsmIndex& primary() const { return primary_; }
  const Wal& wal() const { return wal_; }
  /// Flushes buffered WAL entries to the OS.
  [[nodiscard]] common::Status SyncWal() { return wal_.Sync(); }
  SecondaryIndex* FindIndex(const std::string& index_name) const;
  const DatasetDef& def() const { return def_; }
  int partition_id() const { return partition_id_; }

 private:
  const DatasetDef def_;
  const int partition_id_;
  const adm::TypeRegistry* types_;
  Wal wal_;
  PartitionedLsmIndex primary_;
  mutable common::Mutex indexes_mutex_{common::LockRank::kDatasetIndexes};  // guards secondaries_ membership
  std::vector<std::unique_ptr<SecondaryIndex>> secondaries_
      GUARDED_BY(indexes_mutex_);
  std::atomic<int64_t> inserts_{0};
};

/// Per-node storage manager: owns this node's partitions of every dataset.
class StorageManager {
 public:
  StorageManager(std::string node_id, std::string base_dir);

  /// Creates (opens) this node's partition of `def` with id `partition_id`.
  [[nodiscard]] common::Status CreatePartition(const DatasetDef& def, int partition_id,
                                 const adm::TypeRegistry* types);

  /// This node's partition of `dataset`, or nullptr.
  DatasetPartition* GetPartition(const std::string& dataset) const;

  [[nodiscard]] common::Status DropPartition(const std::string& dataset);

  const std::string& node_id() const { return node_id_; }
  std::vector<std::string> DatasetNames() const;

 private:
  const std::string node_id_;
  const std::string base_dir_;
  mutable common::Mutex mutex_{common::LockRank::kStorageManager};
  std::map<std::string, std::unique_ptr<DatasetPartition>> partitions_
      GUARDED_BY(mutex_);
};

/// Cluster-wide dataset metadata: definitions plus the resolved nodegroup
/// (the ordered node list hosting partitions 0..n-1).
class DatasetCatalog {
 public:
  struct Entry {
    DatasetDef def;
    std::vector<std::string> nodegroup;  // node of partition i
  };

  [[nodiscard]] common::Status Register(DatasetDef def,
                          std::vector<std::string> nodegroup);
  /// A copy of the entry, or NotFound: for DDL and whole-dataset
  /// operations, whose cost dwarfs the copy.
  [[nodiscard]] common::Result<Entry> Find(const std::string& name) const;
  /// The entry itself, shared rather than copied (null when absent), for
  /// per-record reads: AddIndex replaces an entry instead of mutating it.
  std::shared_ptr<const Entry> Lookup(const std::string& name) const;
  /// Records a secondary index added after dataset creation.
  [[nodiscard]] common::Status AddIndex(const std::string& dataset,
                          const IndexDef& index_def);
  std::vector<std::string> Names() const;

 private:
  mutable common::Mutex mutex_{common::LockRank::kDatasetCatalog};
  std::map<std::string, std::shared_ptr<const Entry>> entries_
      GUARDED_BY(mutex_);
};

}  // namespace storage
}  // namespace asterix

