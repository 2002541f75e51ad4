// Shared helpers for the test suite: polling, frame/record builders, the
// instance/dataset boilerplate that every end-to-end test repeats, and an
// optional operator-new interposer for allocation-count assertions.
//
// Alloc interposer: exactly ONE translation unit per binary defines
// ASTERIX_ALLOC_INTERPOSER before including this header; that TU gets
// global operator new/delete replacements which count allocations into
// per-thread and process-wide tallies. Every other TU (and binaries that
// never define the macro) sees only the read-side API: AllocScope,
// ThreadAllocStats, AllocInterposerActive. Under ASan/TSan the
// replacements are compiled out (sanitizers own malloc), and
// AllocInterposerActive() reports false so tests can skip.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/value.h"
#include "asterix/asterix.h"
#include "common/clock.h"
#include "gen/tweetgen.h"
#include "hyracks/frame.h"
#include "storage/dataset.h"

// Sanitizers replace malloc with their own bookkeeping allocator;
// user-provided operator new replacements break their interception.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ASTERIX_SANITIZER_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ASTERIX_SANITIZER_MALLOC 1
#endif
#endif

namespace asterix {
namespace testing {

namespace alloc_internal {
// Constant-initialized, so safe to bump from allocations that run during
// static initialization. Inline (C++17): one instance per binary even
// though the header is included from many TUs.
inline thread_local int64_t tl_count = 0;
inline thread_local int64_t tl_bytes = 0;
inline std::atomic<int64_t> g_count{0};
inline std::atomic<int64_t> g_bytes{0};

inline void Note(std::size_t bytes) noexcept {
  tl_count += 1;
  tl_bytes += static_cast<int64_t>(bytes);
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
}
}  // namespace alloc_internal

struct AllocStats {
  int64_t count = 0;
  int64_t bytes = 0;
};

/// Allocations made by the calling thread since it started (zeros forever
/// when this binary carries no interposer).
inline AllocStats ThreadAllocStats() {
  return {alloc_internal::tl_count, alloc_internal::tl_bytes};
}

/// Process-wide tallies across all threads.
inline AllocStats GlobalAllocStats() {
  return {alloc_internal::g_count.load(std::memory_order_relaxed),
          alloc_internal::g_bytes.load(std::memory_order_relaxed)};
}

/// True iff this binary's operator new is instrumented. Heuristic: by the
/// time any test body runs, the harness itself has allocated thousands of
/// times, so a zero global count means the interposer is absent (not
/// compiled in, or disabled under a sanitizer). Gate alloc assertions on
/// this and GTEST_SKIP otherwise.
inline bool AllocInterposerActive() {
  return alloc_internal::g_count.load(std::memory_order_relaxed) > 0;
}

/// Counts this thread's heap allocations across a region:
///   AllocScope scope;
///   ... hot path ...
///   EXPECT_ALLOCS_UNDER(scope, 0);
class AllocScope {
 public:
  AllocScope() : start_(ThreadAllocStats()) {}
  int64_t count() const {
    return ThreadAllocStats().count - start_.count;
  }
  int64_t bytes() const {
    return ThreadAllocStats().bytes - start_.bytes;
  }

 private:
  AllocStats start_;
};

/// True when the binary is built with ThreadSanitizer. Tests that assert
/// wall-clock throughput (records produced per real second) use this to
/// skip those assertions: TSan's ~10-20x slowdown makes any real-time
/// rate bound meaningless regardless of the code under test, while the
/// rest of the test still runs and contributes race coverage.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanActive = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanActive = true;
#else
inline constexpr bool kTsanActive = false;
#endif
#else
inline constexpr bool kTsanActive = false;
#endif

/// Waits until `predicate` holds or `timeout_ms` elapses; returns the
/// predicate's final verdict either way.
inline bool WaitFor(const std::function<bool()>& predicate,
                    int64_t timeout_ms) {
  common::Stopwatch watch;
  while (watch.ElapsedMillis() < timeout_ms) {
    if (predicate()) return true;
    common::SleepMillis(10);
  }
  return predicate();
}

/// Asserts a negative: `predicate` must still be false after observing it
/// for `hold_ms`. Returns true iff the predicate stayed false the whole
/// time. (This is WaitFor's complement — polling, not one blind sleep, so
/// a violation is reported as soon as it happens.)
inline bool StaysFalseFor(const std::function<bool()>& predicate,
                          int64_t hold_ms) {
  return !WaitFor(predicate, hold_ms);
}

/// Runs `fn` on a detached-duty thread after `delay_ms` — the standard
/// shape for "the other side arrives later" blocking tests. The returned
/// thread must be joined by the caller.
inline std::thread After(int64_t delay_ms, std::function<void()> fn) {
  return std::thread([delay_ms, fn = std::move(fn)] {
    common::SleepMillis(delay_ms);
    fn();
  });
}

/// A frame of `n` records {id: "r<i>", n: i} for i in [start, start+n).
inline hyracks::FramePtr FrameOf(int n, int start = 0) {
  std::vector<adm::Value> records;
  for (int i = start; i < start + n; ++i) {
    records.push_back(adm::Value::Record(
        {{"id", adm::Value::String("r" + std::to_string(i))},
         {"n", adm::Value::Int64(i)}}));
  }
  return hyracks::MakeFrame(std::move(records));
}

/// A Tweet-typed dataset keyed by "id", optionally pinned to a nodegroup.
inline storage::DatasetDef TweetsDataset(
    const std::string& name, std::vector<std::string> nodegroup = {}) {
  storage::DatasetDef def;
  def.name = name;
  def.datatype = "Tweet";
  def.primary_key_field = "id";
  def.nodegroup = std::move(nodegroup);
  return def;
}

/// Writes `n` tweets of TweetGen source `source_id` to `path`, one ADM
/// record per line (a file_based_feed input); returns their ids.
inline std::multiset<std::string> WriteTweetFile(const std::string& path,
                                                 int n, int source_id = 0) {
  gen::TweetFactory factory(source_id);
  std::ofstream out(path, std::ios::binary);
  std::multiset<std::string> ids;
  for (int i = 0; i < n; ++i) {
    adm::Value tweet = factory.NextTweet();
    ids.insert(tweet.GetField("id")->ToAdmString());
    out << tweet.ToAdmString() << '\n';
  }
  return ids;
}

/// The "id" of every record stored in `dataset` (empty if it is unknown).
inline std::multiset<std::string> StoredIds(const AsterixInstance& db,
                                            const std::string& dataset) {
  std::multiset<std::string> ids;
  common::Status status =
      db.ScanDataset(dataset, [&](const adm::Value& record) {
        ids.insert(record.GetField("id")->ToAdmString());
      });
  if (!status.ok()) ids.clear();
  return ids;
}

/// Instance options with short heartbeat timings so failure-detection
/// tests converge in milliseconds instead of seconds. Under TSan the
/// detection window widens instead: at 10-20x slowdown on a small host a
/// *healthy* node's heartbeat thread can miss a 100 ms window just by
/// not being scheduled, and the resulting false node-death tears the
/// feed down mid-test. Detection-dependent waits use multi-second
/// WaitFor budgets, which dwarf either setting.
inline InstanceOptions FastOptions(int nodes) {
  InstanceOptions options;
  options.num_nodes = nodes;
  options.heartbeat_period_ms = kTsanActive ? 50 : 10;
  options.heartbeat_timeout_ms = kTsanActive ? 2000 : 100;
  return options;
}

}  // namespace testing
}  // namespace asterix

/// Asserts the scope saw at most `n` heap allocations on this thread.
#define EXPECT_ALLOCS_UNDER(scope, n)                                     \
  EXPECT_LE((scope).count(), static_cast<int64_t>(n))                     \
      << "heap allocations in scope: " << (scope).count() << " ("         \
      << (scope).bytes() << " bytes)"

#if defined(ASTERIX_ALLOC_INTERPOSER) && !defined(ASTERIX_SANITIZER_MALLOC)
// Global operator new/delete replacements (one TU per binary; see the
// header comment). Replacements must not call any allocating function,
// so they go straight to malloc/free.

namespace asterix {
namespace testing {
namespace alloc_internal {
inline void* AllocOrThrow(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  Note(size);
  return p;
}

inline void* AlignedAlloc(std::size_t size, std::size_t align) noexcept {
  if (align < alignof(void*)) align = alignof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}
}  // namespace alloc_internal
}  // namespace testing
}  // namespace asterix

void* operator new(std::size_t size) {
  return asterix::testing::alloc_internal::AllocOrThrow(size);
}
void* operator new[](std::size_t size) {
  return asterix::testing::alloc_internal::AllocOrThrow(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) asterix::testing::alloc_internal::Note(size);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) asterix::testing::alloc_internal::Note(size);
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = asterix::testing::alloc_internal::AlignedAlloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  asterix::testing::alloc_internal::Note(size);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = asterix::testing::alloc_internal::AlignedAlloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  asterix::testing::alloc_internal::Note(size);
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  void* p = asterix::testing::alloc_internal::AlignedAlloc(
      size, static_cast<std::size_t>(align));
  if (p != nullptr) asterix::testing::alloc_internal::Note(size);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  void* p = asterix::testing::alloc_internal::AlignedAlloc(
      size, static_cast<std::size_t>(align));
  if (p != nullptr) asterix::testing::alloc_internal::Note(size);
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // ASTERIX_ALLOC_INTERPOSER && !ASTERIX_SANITIZER_MALLOC

