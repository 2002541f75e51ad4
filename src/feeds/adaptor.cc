#include "common/thread_annotations.h"
#include "feeds/adaptor.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/strings.h"

namespace asterix {
namespace feeds {

using common::Result;
using common::Status;

Status AdaptorRegistry::Register(std::shared_ptr<AdaptorFactory> factory) {
  common::MutexLock lock(mutex_);
  auto [it, inserted] = factories_.emplace(factory->alias(), factory);
  if (!inserted) {
    return Status::AlreadyExists("adaptor '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Result<std::shared_ptr<AdaptorFactory>> AdaptorRegistry::Find(
    const std::string& alias) const {
  common::MutexLock lock(mutex_);
  auto it = factories_.find(alias);
  if (it == factories_.end()) {
    return Status::NotFound("unknown adaptor '" + alias + "'");
  }
  return it->second;
}

ExternalSourceRegistry& ExternalSourceRegistry::Instance() {
  static ExternalSourceRegistry* instance = new ExternalSourceRegistry();
  return *instance;
}

void ExternalSourceRegistry::RegisterChannel(const std::string& address,
                                             gen::Channel* channel) {
  common::MutexLock lock(mutex_);
  channels_[address] = channel;
}

void ExternalSourceRegistry::UnregisterChannel(const std::string& address) {
  common::MutexLock lock(mutex_);
  channels_.erase(address);
}

gen::Channel* ExternalSourceRegistry::FindChannel(
    const std::string& address) const {
  common::MutexLock lock(mutex_);
  auto it = channels_.find(address);
  return it == channels_.end() ? nullptr : it->second;
}

// --- Socket adaptor ---------------------------------------------------------

namespace {

class SocketAdaptor : public FeedAdaptor {
 public:
  explicit SocketAdaptor(std::string address) : address_(std::move(address)) {
    channel_ = ExternalSourceRegistry::Instance().FindChannel(address_);
  }

  Result<RawBatch> Fetch(size_t max, int64_t timeout_ms) override {
    // Before any payload is consumed: an injected fetch failure loses
    // nothing and must be fully recoverable via Reconnect.
    ASTERIX_FAILPOINT("feeds.adaptor.fetch");
    if (channel_ == nullptr) {
      return Status::Unavailable("no source listening at " + address_);
    }
    RawBatch batch;
    batch.payloads = channel_->Drain(max);
    if (batch.payloads.empty()) {
      // Nothing pending: wait briefly for one payload.
      auto one = channel_->Receive(timeout_ms);
      if (one.has_value()) {
        batch.payloads.push_back(std::move(*one));
      } else if (channel_->closed() && channel_->pending() == 0) {
        batch.end_of_source = true;
      }
    }
    return batch;
  }

  Status Reconnect() override {
    ASTERIX_FAILPOINT("feeds.adaptor.reconnect");
    // The channel registry is our "DNS": a restarted source re-registers
    // under the same address.
    channel_ = ExternalSourceRegistry::Instance().FindChannel(address_);
    if (channel_ == nullptr) {
      return Status::Unavailable("source at " + address_ + " is gone");
    }
    return Status::OK();
  }

 private:
  const std::string address_;
  gen::Channel* channel_;
};

}  // namespace

Result<hyracks::PartitionConstraint> SocketAdaptorFactory::GetConstraints(
    const AdaptorConfig& config) const {
  auto it = config.find("sockets");
  if (it == config.end() || it->second.empty()) {
    return Status::InvalidArgument(alias_ +
                                   " requires a 'sockets' parameter");
  }
  // One adaptor instance per socket address, placement left to the
  // scheduler (count constraint).
  int count =
      static_cast<int>(common::SplitAndTrim(it->second, ',').size());
  hyracks::PartitionConstraint constraint;
  constraint.count = count;
  return constraint;
}

Result<std::unique_ptr<FeedAdaptor>> SocketAdaptorFactory::Create(
    const AdaptorConfig& config, int partition, int partition_count) const {
  (void)partition_count;  // one instance per socket (GetConstraints)
  auto it = config.find("sockets");
  if (it == config.end()) {
    return Status::InvalidArgument(alias_ +
                                   " requires a 'sockets' parameter");
  }
  auto addresses = common::SplitAndTrim(it->second, ',');
  if (partition < 0 || partition >= static_cast<int>(addresses.size())) {
    return Status::InvalidArgument("no socket for adaptor partition " +
                                   std::to_string(partition));
  }
  return std::unique_ptr<FeedAdaptor>(
      new SocketAdaptor(addresses[partition]));
}

// --- File adaptor -----------------------------------------------------------

namespace {

// Reads the lines whose first byte lies in [begin, end) of the file: the
// input split of one collect instance. A line belongs to the split its
// first byte falls in, so every line is read by exactly one split, however
// the boundaries cut it.
class FileAdaptor : public FeedAdaptor {
 public:
  FileAdaptor(std::string path, int split, int split_count)
      : path_(std::move(path)), split_(split), split_count_(split_count) {}

  Result<RawBatch> Fetch(size_t max, int64_t timeout_ms) override {
    (void)timeout_ms;
    if (!opened_) RETURN_IF_ERROR(Open());
    RawBatch batch;
    std::string line;
    while (batch.payloads.size() < max && offset_ < end_ &&
           std::getline(stream_, line)) {
      // +1 for the newline; past the last line it overshoots the file
      // size, which only ends the split.
      offset_ += static_cast<int64_t>(line.size()) + 1;
      if (!line.empty()) batch.payloads.push_back(std::move(line));
    }
    batch.end_of_source = offset_ >= end_ || !stream_;
    return batch;
  }

 private:
  Status Open() {
    stream_.open(path_, std::ios::binary);
    if (!stream_.is_open()) {
      return Status::IOError("cannot open feed file " + path_);
    }
    opened_ = true;
    stream_.seekg(0, std::ios::end);
    const int64_t size = static_cast<int64_t>(stream_.tellg());
    offset_ = size * split_ / split_count_;
    end_ = size * (split_ + 1) / split_count_;
    if (offset_ == 0 || offset_ >= end_) {
      stream_.seekg(0);
      return Status::OK();
    }
    // The line holding byte offset_-1 started in an earlier split (or
    // ends right there): skip through its newline.
    stream_.seekg(offset_ - 1);
    std::string partial;
    std::getline(stream_, partial);
    offset_ += static_cast<int64_t>(partial.size());
    return Status::OK();
  }

  const std::string path_;
  const int split_;
  const int split_count_;
  std::ifstream stream_;
  bool opened_ = false;
  int64_t offset_ = 0;  // file offset of the next line
  int64_t end_ = 0;     // lines starting at or past this are another split's
};

}  // namespace

Result<hyracks::PartitionConstraint> FileAdaptorFactory::GetConstraints(
    const AdaptorConfig& config) const {
  if (config.find("path") == config.end()) {
    return Status::InvalidArgument("file_based_feed requires 'path'");
  }
  // Input splits: as many as there are nodes to parse them.
  hyracks::PartitionConstraint constraint;
  constraint.count = hyracks::PartitionConstraint::kPerAliveNode;
  return constraint;
}

Result<std::unique_ptr<FeedAdaptor>> FileAdaptorFactory::Create(
    const AdaptorConfig& config, int partition, int partition_count) const {
  auto it = config.find("path");
  if (it == config.end()) {
    return Status::InvalidArgument("file_based_feed requires 'path'");
  }
  if (partition < 0 || partition >= partition_count) {
    return Status::InvalidArgument(
        "file split " + std::to_string(partition) + " of " +
        std::to_string(partition_count));
  }
  return std::unique_ptr<FeedAdaptor>(
      new FileAdaptor(it->second, partition, partition_count));
}

// --- Synthetic tweet adaptor ------------------------------------------------

namespace {

class SyntheticTweetAdaptor : public FeedAdaptor {
 public:
  SyntheticTweetAdaptor(int source_id, int64_t rate_tps, int64_t limit)
      : factory_(source_id), rate_tps_(rate_tps), limit_(limit) {}

  Result<RawBatch> Fetch(size_t max, int64_t timeout_ms) override {
    ASTERIX_FAILPOINT("feeds.adaptor.fetch");
    RawBatch batch;
    if (limit_ >= 0 && produced_ >= limit_) {
      batch.end_of_source = true;
      return batch;
    }
    // A live stream: emit the rate*elapsed records due since the last
    // call.
    if (last_fetch_us_ == 0) last_fetch_us_ = common::NowMicros();
    int64_t now = common::NowMicros();
    double due = static_cast<double>(now - last_fetch_us_) * rate_tps_ /
                 1e6;
    if (due < 1.0) {
      common::SleepMillis(std::min<int64_t>(timeout_ms, 5));
      now = common::NowMicros();
      due = static_cast<double>(now - last_fetch_us_) * rate_tps_ / 1e6;
    }
    int64_t n = static_cast<int64_t>(due);
    if (n <= 0) return batch;
    last_fetch_us_ = now;
    n = std::min<int64_t>(n, static_cast<int64_t>(max));
    if (limit_ >= 0) n = std::min(n, limit_ - produced_);
    for (int64_t i = 0; i < n; ++i) {
      batch.payloads.push_back(factory_.NextTweetText());
    }
    produced_ += n;
    return batch;
  }

 private:
  gen::TweetFactory factory_;
  const int64_t rate_tps_;
  const int64_t limit_;
  int64_t produced_ = 0;
  int64_t last_fetch_us_ = 0;
};

int64_t ConfigInt(const AdaptorConfig& config, const std::string& key,
                  int64_t default_value) {
  auto it = config.find(key);
  if (it == config.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

}  // namespace

Result<hyracks::PartitionConstraint>
SyntheticTweetAdaptorFactory::GetConstraints(
    const AdaptorConfig& config) const {
  (void)config;
  hyracks::PartitionConstraint constraint;
  constraint.count = 1;
  return constraint;
}

Result<std::unique_ptr<FeedAdaptor>> SyntheticTweetAdaptorFactory::Create(
    const AdaptorConfig& config, int partition, int partition_count) const {
  (void)partition_count;
  return std::unique_ptr<FeedAdaptor>(new SyntheticTweetAdaptor(
      static_cast<int>(ConfigInt(config, "source_id", 0)) + partition,
      ConfigInt(config, "rate", 100), ConfigInt(config, "limit", -1)));
}

Status RegisterBuiltinAdaptors(AdaptorRegistry* registry) {
  RETURN_IF_ERROR(registry->Register(std::make_shared<SocketAdaptorFactory>()));
  RETURN_IF_ERROR(registry->Register(
      std::make_shared<SocketAdaptorFactory>("TweetGenAdaptor", "Tweet")));
  RETURN_IF_ERROR(registry->Register(std::make_shared<FileAdaptorFactory>()));
  RETURN_IF_ERROR(
      registry->Register(std::make_shared<SyntheticTweetAdaptorFactory>()));
  return Status::OK();
}

}  // namespace feeds
}  // namespace asterix
