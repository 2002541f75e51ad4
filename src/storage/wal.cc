#include "common/thread_annotations.h"
#include "storage/wal.h"

#include <cstring>
#include <vector>

#include "adm/binary.h"
#include "common/clock.h"
#include "common/failpoint.h"

namespace asterix {
namespace storage {

using common::Status;

Wal::Wal(std::string path, bool durable, common::MemPool* wal_pool)
    : path_(std::move(path)),
      durable_(durable),
      wal_pool_(wal_pool != nullptr
                    ? wal_pool
                    : common::MemGovernor::Default().GetPool(
                          common::MemGovernor::kWalPool)) {
  common::MetricsRegistry& reg = common::MetricsRegistry::Default();
  metric_appends_ = reg.GetCounter("wal_appends_total");
  metric_bytes_ = reg.GetCounter("wal_bytes_written_total");
  metric_syncs_ = reg.GetCounter("wal_syncs_total");
  metric_sync_latency_us_ = reg.GetHistogram("wal_sync_latency_us");
}

Wal::~Wal() {
  common::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status Wal::Open() {
  common::MutexLock lock(mutex_);
  if (file_ != nullptr) return Status::OK();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IOError("cannot open WAL at " + path_);
  }
  return Status::OK();
}

void WalBatch::Add(std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  bytes_.append(reinterpret_cast<const char*>(&len), sizeof(len));
  bytes_.append(payload);
  ++entries_;
}

Status WalBatch::Add(const adm::Value& record) {
  // Reserve the length word, encode in place, then patch the length.
  const size_t header = bytes_.size();
  bytes_.append(sizeof(uint32_t), '\0');
  Status encoded = adm::AppendBinary(record, &bytes_);
  if (!encoded.ok()) {
    bytes_.resize(header);
    return encoded;
  }
  const uint32_t len =
      static_cast<uint32_t>(bytes_.size() - header - sizeof(uint32_t));
  std::memcpy(bytes_.data() + header, &len, sizeof(len));
  ++entries_;
  return Status::OK();
}

std::vector<std::string_view> WalBatch::Payloads() const {
  std::vector<std::string_view> payloads;
  payloads.reserve(static_cast<size_t>(entries_));
  for (size_t at = 0; at < bytes_.size();) {
    uint32_t len = 0;
    std::memcpy(&len, bytes_.data() + at, sizeof(len));
    at += sizeof(len);
    payloads.emplace_back(bytes_.data() + at, len);
    at += len;
  }
  return payloads;
}

Status Wal::Append(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  return Commit({reinterpret_cast<const char*>(&len), sizeof(len)}, payload,
                1);
}

Status Wal::Append(const WalBatch& batch) {
  if (batch.entries() == 0) return Status::OK();
  return Commit({}, batch.bytes(), batch.entries());
}

Status Wal::Commit(std::string_view head, std::string_view tail,
                   int64_t entries) {
  // Before any byte lands: an injected append failure must leave the log
  // unchanged so the caller can retry (the at-least-once replay path).
  // Each entry draws the fault, as it would under single appends.
  for (int64_t i = 0; i < entries; ++i) {
    ASTERIX_FAILPOINT("storage.wal.append");
  }
  // Governor admission for the framed entries, held for the append's
  // duration (RAII covers every return path below). Exhaustion — real or
  // injected via common.memgov.reserve on the "wal" pool — is a soft
  // fault the retry/replay machinery already absorbs.
  common::MemLease lease;
  if (wal_pool_ != nullptr) {
    Status admitted = wal_pool_->TryLease(head.size() + tail.size(), &lease);
    if (!admitted.ok()) return admitted;
  }
  common::MutexLock lock(mutex_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL not open: " + path_);
  }
  for (std::string_view part : {head, tail}) {
    if (!part.empty() &&
        std::fwrite(part.data(), 1, part.size(), file_) != part.size()) {
      return Status::IOError("WAL append failed: " + path_);
    }
  }
  if (durable_) {
    common::Stopwatch timer;
    if (std::fflush(file_) != 0) {
      return Status::IOError("WAL flush failed: " + path_);
    }
    metric_sync_latency_us_->Record(timer.ElapsedMicros());
    metric_syncs_->Add(1);
  }
  const int64_t bytes = static_cast<int64_t>(head.size() + tail.size());
  entry_count_ += entries;
  bytes_written_ += bytes;
  metric_appends_->Add(entries);
  metric_bytes_->Add(bytes);
  return Status::OK();
}

Status Wal::Sync() {
  ASTERIX_FAILPOINT("storage.wal.sync");
  common::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    common::Stopwatch timer;
    if (std::fflush(file_) != 0) {
      return Status::IOError("WAL sync failed: " + path_);
    }
    metric_sync_latency_us_->Record(timer.ElapsedMicros());
    metric_syncs_->Add(1);
  }
  return Status::OK();
}

Status Wal::Replay(
    const std::function<void(const std::string&)>& consumer) const {
  common::MutexLock lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) {
    return Status::IOError("cannot open WAL for replay: " + path_);
  }
  std::vector<char> buf;
  while (true) {
    uint32_t len = 0;
    size_t got = std::fread(&len, sizeof(len), 1, in);
    if (got != 1) break;  // clean EOF or torn tail; stop
    buf.resize(len);
    if (len > 0 && std::fread(buf.data(), 1, len, in) != len) {
      break;  // torn entry at tail; ignore (standard WAL recovery)
    }
    consumer(std::string(buf.data(), len));
  }
  std::fclose(in);
  return Status::OK();
}

int64_t Wal::entry_count() const {
  common::MutexLock lock(mutex_);
  return entry_count_;
}

int64_t Wal::bytes_written() const {
  common::MutexLock lock(mutex_);
  return bytes_written_;
}

}  // namespace storage
}  // namespace asterix
