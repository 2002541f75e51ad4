// Feed adaptors: the pluggable connectors between external data sources
// and AsterixDB. An adaptor knows the source's transfer protocol and hands
// raw payloads to the FeedCollect operator, which parses/translates them
// into ADM records (parse errors surface as soft failures).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "gen/tweetgen.h"
#include "hyracks/job.h"

namespace asterix {
namespace feeds {

using AdaptorConfig = std::map<std::string, std::string>;

/// One batch of raw payloads fetched from the external source.
struct RawBatch {
  std::vector<std::string> payloads;
  /// True when the source has ended (finite sources / closed channel).
  bool end_of_source = false;
};

/// A connected adaptor instance. Driven from a single FeedCollect task.
class FeedAdaptor {
 public:
  virtual ~FeedAdaptor() = default;

  /// Fetches up to `max` raw records, waiting at most `timeout_ms` when
  /// nothing is pending. The empty batch simply means "nothing yet".
  [[nodiscard]] virtual common::Result<RawBatch> Fetch(size_t max,
                                         int64_t timeout_ms) = 0;

  /// Called when the external source appears lost. The adaptor owns the
  /// recovery logic (§6.2.3, External Source Failure): it may reconnect,
  /// switch servers, or give up (non-OK status ends the feed).
  [[nodiscard]] virtual common::Status Reconnect() {
    return common::Status::Unavailable("source lost; no recovery defined");
  }
};

/// Per-adaptor factory, as stored in the DatasourceAdapter metadata
/// dataset. Provides the constraints (count/locations) the compiler uses
/// to place FeedCollect instances.
class AdaptorFactory {
 public:
  virtual ~AdaptorFactory() = default;
  virtual std::string alias() const = 0;
  /// Whether the source pushes data (no per-request pull).
  virtual bool push_based() const = 0;
  /// Datatype name of the ADM records this adaptor emits.
  virtual std::string output_type() const = 0;
  [[nodiscard]] virtual common::Result<hyracks::PartitionConstraint> GetConstraints(
      const AdaptorConfig& config) const = 0;
  /// Instance `partition` of `partition_count` (the FeedCollect
  /// operator's degree of parallelism, as placed from GetConstraints).
  [[nodiscard]] virtual common::Result<std::unique_ptr<FeedAdaptor>> Create(
      const AdaptorConfig& config, int partition,
      int partition_count) const = 0;
};

/// The DatasourceAdapter metadata dataset: alias -> factory.
class AdaptorRegistry {
 public:
  [[nodiscard]] common::Status Register(std::shared_ptr<AdaptorFactory> factory);
  [[nodiscard]] common::Result<std::shared_ptr<AdaptorFactory>> Find(
      const std::string& alias) const;

 private:
  mutable common::Mutex mutex_{common::LockRank::kAdaptorRegistry};
  std::map<std::string, std::shared_ptr<AdaptorFactory>> factories_
      GUARDED_BY(mutex_);
};

/// Name -> in-process channel registry standing in for the network: a
/// TweetGen instance registers its channel under an address string
/// ("10.1.0.1:9000"-style) and socket adaptors look addresses up here.
class ExternalSourceRegistry {
 public:
  static ExternalSourceRegistry& Instance();

  void RegisterChannel(const std::string& address, gen::Channel* channel);
  void UnregisterChannel(const std::string& address);
  gen::Channel* FindChannel(const std::string& address) const;

 private:
  mutable common::Mutex mutex_{common::LockRank::kChannelRegistry};
  std::map<std::string, gen::Channel*> channels_ GUARDED_BY(mutex_);
};

/// --- Built-in adaptors ----------------------------------------------------

/// Socket-style push adaptor reading from registered channels; the
/// TweetGenAdaptor of the evaluation chapters. Config:
///   "sockets" = comma-separated channel addresses (one instance each).
class SocketAdaptorFactory : public AdaptorFactory {
 public:
  explicit SocketAdaptorFactory(std::string alias = "socket_adaptor",
                                std::string output_type = "Tweet")
      : alias_(std::move(alias)), output_type_(std::move(output_type)) {}

  std::string alias() const override { return alias_; }
  bool push_based() const override { return true; }
  std::string output_type() const override { return output_type_; }
  [[nodiscard]] common::Result<hyracks::PartitionConstraint> GetConstraints(
      const AdaptorConfig& config) const override;
  [[nodiscard]] common::Result<std::unique_ptr<FeedAdaptor>> Create(
      const AdaptorConfig& config, int partition,
      int partition_count) const override;

 private:
  std::string alias_;
  std::string output_type_;
};

/// Pull adaptor over a file of newline-separated ADM records — the
/// file_based_feed used by the batch-insert comparison (§5.7.1). Config:
///   "path" = file path, "type_name" = record type.
/// One instance runs per alive node, each reading one byte-range split:
/// instance p of n reads the lines whose first byte lies in
/// [p*size/n, (p+1)*size/n).
class FileAdaptorFactory : public AdaptorFactory {
 public:
  std::string alias() const override { return "file_based_feed"; }
  bool push_based() const override { return false; }
  std::string output_type() const override { return "any"; }
  [[nodiscard]] common::Result<hyracks::PartitionConstraint> GetConstraints(
      const AdaptorConfig& config) const override;
  [[nodiscard]] common::Result<std::unique_ptr<FeedAdaptor>> Create(
      const AdaptorConfig& config, int partition,
      int partition_count) const override;
};

/// Adaptor that synthesizes tweets internally at a configured rate — a
/// TwitterAdaptor stand-in that needs no external process. It reports
/// push-based: like a live stream, each Fetch emits whatever came due
/// since the last one, so its pace is the source's, not the reader's.
/// Config:
///   "rate" = tweets/sec (default 100), "limit" = total records
///   (default unlimited), "source_id" = id namespace (default 0).
class SyntheticTweetAdaptorFactory : public AdaptorFactory {
 public:
  std::string alias() const override { return "synthetic_tweets"; }
  bool push_based() const override { return true; }
  std::string output_type() const override { return "Tweet"; }
  [[nodiscard]] common::Result<hyracks::PartitionConstraint> GetConstraints(
      const AdaptorConfig& config) const override;
  [[nodiscard]] common::Result<std::unique_ptr<FeedAdaptor>> Create(
      const AdaptorConfig& config, int partition,
      int partition_count) const override;
};

/// Registers all built-in adaptors (pre-populating the DatasourceAdapter
/// dataset, §5.1). Fails only on an alias collision — a registry that
/// already holds one of the built-in names.
[[nodiscard]] common::Status RegisterBuiltinAdaptors(AdaptorRegistry* registry);

}  // namespace feeds
}  // namespace asterix

