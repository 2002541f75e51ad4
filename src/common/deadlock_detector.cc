#include "common/deadlock_detector.h"

#include <cstdio>
#include <cstdlib>

namespace asterix {
namespace common {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kBlockingQueue: return "kBlockingQueue";
    case LockRank::kLogging: return "kLogging";
    case LockRank::kMetricsRegistry: return "kMetricsRegistry";
    case LockRank::kFailPointRegistry: return "kFailPointRegistry";
    case LockRank::kChaosSchedule: return "kChaosSchedule";
    case LockRank::kTracer: return "kTracer";
    case LockRank::kSimCpu: return "kSimCpu";
    case LockRank::kMemGovernor: return "kMemGovernor";
    case LockRank::kTypeRegistry: return "kTypeRegistry";
    case LockRank::kWal: return "kWal";
    case LockRank::kLsmIndex: return "kLsmIndex";
    case LockRank::kSecondaryIndex: return "kSecondaryIndex";
    case LockRank::kDatasetIndexes: return "kDatasetIndexes";
    case LockRank::kStorageManager: return "kStorageManager";
    case LockRank::kDatasetCatalog: return "kDatasetCatalog";
    case LockRank::kCollectSink: return "kCollectSink";
    case LockRank::kNodeController: return "kNodeController";
    case LockRank::kClusterController: return "kClusterController";
    case LockRank::kSubscriberQueue: return "kSubscriberQueue";
    case LockRank::kFeedJoint: return "kFeedJoint";
    case LockRank::kIntervalCounter: return "kIntervalCounter";
    case LockRank::kAckBus: return "kAckBus";
    case LockRank::kPendingTracker: return "kPendingTracker";
    case LockRank::kAckCollector: return "kAckCollector";
    case LockRank::kConnectionMetrics: return "kConnectionMetrics";
    case LockRank::kFeedManager: return "kFeedManager";
    case LockRank::kFeedCatalog: return "kFeedCatalog";
    case LockRank::kAdaptorRegistry: return "kAdaptorRegistry";
    case LockRank::kChannelRegistry: return "kChannelRegistry";
    case LockRank::kUdfRegistry: return "kUdfRegistry";
    case LockRank::kPolicyRegistry: return "kPolicyRegistry";
    case LockRank::kMetricsProviders: return "kMetricsProviders";
    case LockRank::kCentralFeedManager: return "kCentralFeedManager";
    case LockRank::kStormSpoutTracker: return "kStormSpoutTracker";
    case LockRank::kStormAcker: return "kStormAcker";
    case LockRank::kMongoCollection: return "kMongoCollection";
    case LockRank::kMongoWriteLock: return "kMongoWriteLock";
    case LockRank::kMongoDb: return "kMongoDb";
    case LockRank::kTestRankLow: return "kTestRankLow";
    case LockRank::kTestRankMid: return "kTestRankMid";
    case LockRank::kTestRankHigh: return "kTestRankHigh";
    case LockRank::kUnranked: return "kUnranked";
  }
  return "<unknown rank>";
}

}  // namespace common
}  // namespace asterix

#ifdef ASTERIX_DEADLOCK_DETECTOR

#include <map>
#include <mutex>  // the detector's own lock must bypass instrumentation
#include <set>
#include <utility>
#include <vector>

namespace asterix {
namespace common {
namespace {

struct Held {
  LockRank rank;
  const char* file;
  uint32_t line;
};

// Per-thread held-lock stack. Deliberately leaked (one small allocation
// per thread, debug builds only) so hooks that run during thread / static
// teardown — e.g. logging from a destructor — never touch a destroyed
// thread_local.
std::vector<Held>& HeldStack() {
  thread_local std::vector<Held>* stack = new std::vector<Held>();
  return *stack;
}

// First witness of one acquired-before edge: `from` was held at
// (from_file:from_line) when `to` was acquired at (to_file:to_line).
struct EdgeWitness {
  const char* from_file;
  uint32_t from_line;
  const char* to_file;
  uint32_t to_line;
};

// The global acquired-before graph. A raw std::mutex on purpose: the
// detector cannot instrument itself (the lint RAW-MUTEX allowlist admits
// this file).
std::mutex g_graph_mu;
std::map<std::pair<uint16_t, uint16_t>, EdgeWitness> g_edges;
std::map<uint16_t, std::set<uint16_t>> g_adj;

uint16_t Id(LockRank rank) { return static_cast<uint16_t>(rank); }

// DFS: is `to` reachable from `from` along recorded edges? Fills `path`
// with the ranks visited from `from` to `to` inclusive. Caller holds
// g_graph_mu.
bool FindPath(uint16_t from, uint16_t to, std::set<uint16_t>* seen,
              std::vector<uint16_t>* path) {
  path->push_back(from);
  if (from == to) return true;
  seen->insert(from);
  auto it = g_adj.find(from);
  if (it != g_adj.end()) {
    for (uint16_t next : it->second) {
      if (seen->count(next)) continue;
      if (FindPath(next, to, seen, path)) return true;
    }
  }
  path->pop_back();
  return false;
}

[[noreturn]] void AbortWithReport(LockRank acquiring,
                                  const std::source_location& loc,
                                  const Held& conflicting, bool same_rank) {
  std::fprintf(stderr,
               "==== deadlock detector: lock-order violation ====\n");
  if (same_rank) {
    std::fprintf(stderr,
                 "same-rank re-acquisition: %s (rank %u)\n"
                 "  already held, acquired at %s:%u\n"
                 "  re-acquired at           %s:%u\n"
                 "holding two locks of one rank is banned: instances of a "
                 "rank are\nunordered, so nesting them can deadlock "
                 "against the opposite nesting.\n",
                 LockRankName(acquiring), Id(acquiring), conflicting.file,
                 conflicting.line, loc.file_name(),
                 static_cast<uint32_t>(loc.line()));
  } else {
    std::fprintf(stderr,
                 "acquiring %s (rank %u) at %s:%u\n"
                 "while holding %s (rank %u) acquired at %s:%u\n"
                 "lock ranks must strictly decrease along every "
                 "acquisition chain\n(see the rank table in "
                 "src/common/lock_rank.h).\n",
                 LockRankName(acquiring), Id(acquiring), loc.file_name(),
                 static_cast<uint32_t>(loc.line()),
                 LockRankName(conflicting.rank), Id(conflicting.rank),
                 conflicting.file, conflicting.line);
    // If the opposite order was ever recorded, this acquisition closes a
    // cycle in the acquired-before graph: print the witness chain.
    std::lock_guard<std::mutex> g(g_graph_mu);
    std::set<uint16_t> seen;
    std::vector<uint16_t> path;
    if (FindPath(Id(acquiring), Id(conflicting.rank), &seen, &path) &&
        path.size() >= 2) {
      std::fprintf(stderr,
                   "witness cycle (prior acquired-before edges):\n");
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        const EdgeWitness& w = g_edges.at({path[i], path[i + 1]});
        std::fprintf(
            stderr,
            "  %s -> %s: %s held at %s:%u when %s acquired at %s:%u\n",
            LockRankName(static_cast<LockRank>(path[i])),
            LockRankName(static_cast<LockRank>(path[i + 1])),
            LockRankName(static_cast<LockRank>(path[i])), w.from_file,
            w.from_line, LockRankName(static_cast<LockRank>(path[i + 1])),
            w.to_file, w.to_line);
      }
      std::fprintf(stderr,
                   "  %s -> %s: closes the cycle (this acquisition)\n",
                   LockRankName(conflicting.rank), LockRankName(acquiring));
    } else {
      std::fprintf(stderr,
                   "no prior opposite-order edge recorded: this is a rank "
                   "hierarchy\nviolation caught before any cycle "
                   "materialized.\n");
    }
  }
  std::fprintf(stderr, "aborting\n");
  std::abort();
}

void RecordEdges(const std::vector<Held>& held, LockRank rank,
                 const std::source_location& loc) {
  std::lock_guard<std::mutex> g(g_graph_mu);
  for (const Held& h : held) {
    auto key = std::make_pair(Id(h.rank), Id(rank));
    if (g_edges.emplace(key, EdgeWitness{h.file, h.line, loc.file_name(),
                                         static_cast<uint32_t>(loc.line())})
            .second) {
      g_adj[key.first].insert(key.second);
    }
  }
}

// Arm at process start so every suite in the `deadlock` preset runs under
// the checker without per-test plumbing.
struct AutoArm {
  AutoArm() {
    if (std::getenv("ASTERIX_DEADLOCK_DISARM") == nullptr) {
      DeadlockDetector::Arm();
    }
  }
} g_auto_arm;

}  // namespace

std::atomic<bool> DeadlockDetector::armed_{false};

void DeadlockDetector::OnAcquire(LockRank rank,
                                 const std::source_location& loc) {
  if (rank == LockRank::kUnranked) return;
  std::vector<Held>& held = HeldStack();
  for (const Held& h : held) {
    if (h.rank == rank) AbortWithReport(rank, loc, h, /*same_rank=*/true);
    if (h.rank < rank) AbortWithReport(rank, loc, h, /*same_rank=*/false);
  }
  if (!held.empty()) RecordEdges(held, rank, loc);
  held.push_back(
      Held{rank, loc.file_name(), static_cast<uint32_t>(loc.line())});
}

void DeadlockDetector::OnTryAcquire(LockRank rank,
                                    const std::source_location& loc) {
  if (rank == LockRank::kUnranked) return;
  std::vector<Held>& held = HeldStack();
  // A successful try-lock cannot have blocked, so it is exempt from the
  // descent rule — but it is genuinely held now, so it constrains every
  // later blocking acquisition, and its edges are still recorded.
  if (!held.empty()) RecordEdges(held, rank, loc);
  held.push_back(
      Held{rank, loc.file_name(), static_cast<uint32_t>(loc.line())});
}

void DeadlockDetector::OnRelease(LockRank rank) {
  if (rank == LockRank::kUnranked) return;
  std::vector<Held>& held = HeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->rank == rank) {
      held.erase(std::next(it).base());
      return;
    }
  }
  // Acquired before the detector was armed: nothing to pop.
}

size_t DeadlockDetector::EdgeCount() {
  std::lock_guard<std::mutex> g(g_graph_mu);
  return g_edges.size();
}

void DeadlockDetector::ResetGraph() {
  std::lock_guard<std::mutex> g(g_graph_mu);
  g_edges.clear();
  g_adj.clear();
}

size_t DeadlockDetector::HeldCount() { return HeldStack().size(); }

}  // namespace common
}  // namespace asterix

#endif  // ASTERIX_DEADLOCK_DETECTOR
