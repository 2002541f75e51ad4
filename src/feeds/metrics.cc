#include "feeds/metrics.h"

#include "feeds/subscriber.h"

namespace asterix {
namespace feeds {

ConnectionMetrics::ConnectionMetrics(const std::string& connection_id) {
  if (connection_id.empty()) return;
  auto& registry = common::MetricsRegistry::Default();
  const common::MetricLabels labels = {{"connection", connection_id}};
  using Kind = common::MetricsRegistry::ProviderKind;
  auto counter = [&](const char* name, const std::atomic<int64_t>* field) {
    provider_handles_.push_back(registry.RegisterProvider(
        name, Kind::kCounter, labels,
        // relaxed: metrics scrape of an independent stats cell; readers
        // tolerate staleness and order nothing by it.
        [field] { return field->load(std::memory_order_relaxed); }));
  };
  counter("feed_records_collected_total", &records_collected);
  counter("feed_records_computed_total", &records_computed);
  counter("feed_records_stored_total", &records_stored);
  counter("feed_soft_failures_total", &soft_failures);
  counter("feed_records_replayed_total", &records_replayed);
  // Lock order: the registry mutex is held while this provider runs, and
  // it takes the ConnectionMetrics mutex (IntakeQueues) then each queue's
  // mutex (pending_bytes). Pipeline code must therefore never call
  // Snapshot()/Export() while holding those locks.
  provider_handles_.push_back(registry.RegisterProvider(
      "feed_intake_pending_bytes", Kind::kGauge, labels, [this] {
        int64_t total = 0;
        for (const auto& queue : IntakeQueues()) {
          total += queue->pending_bytes();
        }
        return total;
      }));
}

}  // namespace feeds
}  // namespace asterix
