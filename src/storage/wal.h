// Write-ahead log. Every record insert appends a log entry before the
// in-memory indexes are updated (a stored frame appends its entries as one
// group commit); the paper's at-least-once protocol treats "log record
// written to the local disk" as the persistence point that triggers an ack.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/mem_governor.h"
#include "common/observability.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace storage {

/// Log entries framed for one group-commit Wal::Append: one `[len]
/// [payload]` entry each, byte-identical to that many single appends.
class WalBatch {
 public:
  void Add(std::string_view payload);
  /// Adds an entry whose payload is `record`'s binary encoding
  /// (adm/binary.h), encoded in place. A record the encoder refuses adds
  /// nothing and returns its InvalidArgument.
  [[nodiscard]] common::Status Add(const adm::Value& record);

  int64_t entries() const { return entries_; }
  const std::string& bytes() const { return bytes_; }
  /// Every entry's payload in order: views into bytes(), valid until the
  /// next Add.
  std::vector<std::string_view> Payloads() const;

 private:
  std::string bytes_;
  int64_t entries_ = 0;
};

class Wal {
 public:
  /// Opens (creating or appending to) the log at `path`. When `durable` is
  /// true every Append call (a single entry or a whole batch) is flushed
  /// to the OS with fflush, not fsync; this is the knob the
  /// Storm+MongoDB baseline comparison varies as "write concern".
  /// `wal_pool` is the governor pool bounding in-flight append bytes
  /// (each Append leases its framed size for the append's duration); null
  /// resolves to MemGovernor::Default()'s "wal" pool. An exhausted pool
  /// fails Append with ResourceExhausted before any byte lands, so the
  /// at-least-once protocol retries it like any other soft append fault.
  Wal(std::string path, bool durable = false,
      common::MemPool* wal_pool = nullptr);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  [[nodiscard]] common::Status Open();

  /// Appends one entry (opaque payload). Thread-safe.
  [[nodiscard]] common::Status Append(const std::string& payload);

  /// Group commit: appends every entry of `batch` under one lease, one
  /// mutex hold and one write, then (durable) one flush. All or nothing
  /// up to the write: a refused lease or an injected fault on any entry
  /// fails the batch before a byte lands. Thread-safe.
  [[nodiscard]] common::Status Append(const WalBatch& batch);

  /// Flushes buffered entries to the OS.
  [[nodiscard]] common::Status Sync();

  /// Replays all entries in append order. Used by node-rejoin recovery.
  [[nodiscard]] common::Status Replay(
      const std::function<void(const std::string&)>& consumer) const;

  int64_t entry_count() const;
  int64_t bytes_written() const;
  const std::string& path() const { return path_; }

 private:
  /// Writes `head` then `tail`, which together frame `entries` entries.
  [[nodiscard]] common::Status Commit(std::string_view head,
                                      std::string_view tail, int64_t entries);

  const std::string path_;
  const bool durable_;
  // Resolved governor pool (ctor arg or the Default() governor's "wal"
  // pool). Leased per append under the pool's leaf mutex; never null
  // after construction.
  common::MemPool* const wal_pool_;
  mutable common::Mutex mutex_{common::LockRank::kWal};
  std::FILE* file_ GUARDED_BY(mutex_) = nullptr;
  int64_t entry_count_ GUARDED_BY(mutex_) = 0;
  int64_t bytes_written_ GUARDED_BY(mutex_) = 0;

  // Cached process-wide registry metrics (relaxed atomics, safe under
  // mutex_): append/byte throughput and the latency of flushing buffered
  // entries to the OS (the paper's persistence point for acks).
  common::Counter* metric_appends_ = nullptr;
  common::Counter* metric_bytes_ = nullptr;
  common::Counter* metric_syncs_ = nullptr;
  common::Histogram* metric_sync_latency_us_ = nullptr;
};

}  // namespace storage
}  // namespace asterix

