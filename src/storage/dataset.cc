#include "common/thread_annotations.h"
#include "storage/dataset.h"

#include <filesystem>

#include "common/failpoint.h"
#include "storage/key.h"

namespace asterix {
namespace storage {

using common::Result;
using common::Status;

DatasetPartition::DatasetPartition(DatasetDef def, int partition_id,
                                   std::string dir,
                                   const adm::TypeRegistry* types)
    : def_(std::move(def)),
      partition_id_(partition_id),
      types_(types),
      wal_(dir + "/" + def_.name + ".p" + std::to_string(partition_id) +
               ".wal",
           def_.durable_writes) {
  for (const IndexDef& index : def_.indexes) {
    secondaries_.push_back(
        MakeSecondaryIndex(index.kind, index.name, index.field));
  }
}

Status DatasetPartition::Open() { return wal_.Open(); }

Status DatasetPartition::Insert(const adm::Value& record) {
  return InsertFrame({&record, 1});
}

Status DatasetPartition::InsertFrame(std::span<const adm::Value> records) {
  if (records.empty()) return Status::OK();
  std::vector<std::string> keys;
  keys.reserve(records.size());
  for (const adm::Value& record : records) {
    if (!record.is_record()) {
      return Status::InvalidArgument("dataset '" + def_.name +
                                     "' accepts only records");
    }
    const adm::Value* pk = record.GetField(def_.primary_key_field);
    if (pk == nullptr || pk->is_null()) {
      return Status::InvalidArgument("record lacks primary key field '" +
                                     def_.primary_key_field + "'");
    }
    if (def_.validate_type && types_ != nullptr) {
      RETURN_IF_ERROR(types_->Conforms(record, def_.datatype));
    }
    auto key = EncodeKey(*pk);
    if (!key.ok()) return key.status();
    // Fires before the WAL write: the whole frame is rejected, the store
    // operator's sandbox retries it a record at a time, and the
    // at-least-once protocol replays what still fails.
    ASTERIX_FAILPOINT("storage.dataset.insert");
    keys.push_back(std::move(key).value());
  }

  // Write-ahead log first: this is the persistence point that the
  // at-least-once protocol acks from. Each record is encoded once, into
  // the batch; the primary index stores those same bytes. A record the
  // encoder refuses (nested too deep) fails the frame before the write.
  WalBatch batch;
  for (const adm::Value& record : records) {
    RETURN_IF_ERROR(batch.Add(record));
  }
  RETURN_IF_ERROR(wal_.Append(batch));
  RETURN_IF_ERROR(primary_.InsertBatch(keys, batch.Payloads()));
  {
    common::MutexLock lock(indexes_mutex_);
    for (const auto& index : secondaries_) {
      for (size_t i = 0; i < records.size(); ++i) {
        RETURN_IF_ERROR(index->Insert(records[i], keys[i]));
      }
    }
  }
  // relaxed: stats counter; durability ordering lives in the WAL/index.
  inserts_.fetch_add(static_cast<int64_t>(records.size()),
                     std::memory_order_relaxed);
  return Status::OK();
}

Result<adm::Value> DatasetPartition::Get(
    const adm::Value& primary_key) const {
  auto key = EncodeKey(primary_key);
  if (!key.ok()) return key.status();
  auto value = primary_.Get(key.value());
  if (!value.has_value()) {
    return Status::NotFound("no record with key " +
                            primary_key.ToAdmString());
  }
  return std::move(*value);
}

void DatasetPartition::Scan(
    const std::function<void(const adm::Value&)>& visitor) const {
  primary_.Scan(
      [&](const std::string&, const adm::Value& v) { visitor(v); });
}

SecondaryIndex* DatasetPartition::FindIndex(
    const std::string& index_name) const {
  common::MutexLock lock(indexes_mutex_);
  for (const auto& index : secondaries_) {
    if (index->name() == index_name) return index.get();
  }
  return nullptr;
}

Status DatasetPartition::AddIndex(const IndexDef& index_def) {
  if (FindIndex(index_def.name) != nullptr) {
    return Status::AlreadyExists("index '" + index_def.name +
                                 "' already exists on '" + def_.name +
                                 "'");
  }
  auto index = MakeSecondaryIndex(index_def.kind, index_def.name,
                                  index_def.field);
  // Backfill from the primary. Records inserted concurrently are added
  // by the insert path once the index is published; a record inserted
  // in the window between this scan and publication may be indexed
  // twice, which the value/grid indexes tolerate (duplicate postings
  // resolve to the same primary key).
  Status backfill = Status::OK();
  primary_.Scan([&](const std::string& key, const adm::Value& record) {
    if (!backfill.ok()) return;
    backfill = index->Insert(record, key);
  });
  RETURN_IF_ERROR(backfill);
  common::MutexLock lock(indexes_mutex_);
  secondaries_.push_back(std::move(index));
  return Status::OK();
}

StorageManager::StorageManager(std::string node_id, std::string base_dir)
    : node_id_(std::move(node_id)), base_dir_(std::move(base_dir)) {
  std::filesystem::create_directories(base_dir_);
}

Status StorageManager::CreatePartition(const DatasetDef& def,
                                       int partition_id,
                                       const adm::TypeRegistry* types) {
  common::MutexLock lock(mutex_);
  if (partitions_.count(def.name) > 0) {
    return Status::AlreadyExists("node " + node_id_ +
                                 " already hosts a partition of '" +
                                 def.name + "'");
  }
  auto partition = std::make_unique<DatasetPartition>(def, partition_id,
                                                      base_dir_, types);
  RETURN_IF_ERROR(partition->Open());
  partitions_.emplace(def.name, std::move(partition));
  return Status::OK();
}

DatasetPartition* StorageManager::GetPartition(
    const std::string& dataset) const {
  common::MutexLock lock(mutex_);
  auto it = partitions_.find(dataset);
  return it == partitions_.end() ? nullptr : it->second.get();
}

Status StorageManager::DropPartition(const std::string& dataset) {
  common::MutexLock lock(mutex_);
  if (partitions_.erase(dataset) == 0) {
    return Status::NotFound("node " + node_id_ +
                            " hosts no partition of '" + dataset + "'");
  }
  return Status::OK();
}

std::vector<std::string> StorageManager::DatasetNames() const {
  common::MutexLock lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, p] : partitions_) names.push_back(name);
  return names;
}

Status DatasetCatalog::Register(DatasetDef def,
                                std::vector<std::string> nodegroup) {
  common::MutexLock lock(mutex_);
  std::string name = def.name;  // read before the move below
  auto [it, inserted] = entries_.emplace(
      std::move(name), std::make_shared<const Entry>(
                           Entry{std::move(def), std::move(nodegroup)}));
  if (!inserted) {
    return Status::AlreadyExists("dataset '" + it->first +
                                 "' already exists");
  }
  return Status::OK();
}

common::Result<DatasetCatalog::Entry> DatasetCatalog::Find(
    const std::string& name) const {
  std::shared_ptr<const Entry> entry = Lookup(name);
  if (entry == nullptr) {
    return Status::NotFound("dataset '" + name + "' not found");
  }
  return *entry;
}

std::shared_ptr<const DatasetCatalog::Entry> DatasetCatalog::Lookup(
    const std::string& name) const {
  common::MutexLock lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

Status DatasetCatalog::AddIndex(const std::string& dataset,
                                const IndexDef& index_def) {
  common::MutexLock lock(mutex_);
  auto it = entries_.find(dataset);
  if (it == entries_.end()) {
    return Status::NotFound("dataset '" + dataset + "' not found");
  }
  auto updated = std::make_shared<Entry>(*it->second);
  updated->def.indexes.push_back(index_def);
  it->second = std::move(updated);
  return Status::OK();
}

std::vector<std::string> DatasetCatalog::Names() const {
  common::MutexLock lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace storage
}  // namespace asterix
