// Deterministic model checker for the lock-free data plane (loom/relacy
// style). Compiled ONLY into tests/model/ binaries (ASTERIX_MODEL_CHECK);
// production builds never see this translation unit.
//
// What it does (DESIGN.md §6.3 has the full treatment):
//
//   * Runs a small concurrent program — a `body` that spawns 1..5
//     threads of a few operations each against the repo's own
//     primitives — over and over, exploring a DIFFERENT thread
//     interleaving each time via depth-first search over the decision
//     tree of scheduling choices, until the space is exhausted or a
//     budget is hit. Threads are real std::threads, but only one runs
//     at a time: every shim operation (common/atomic_shim.h) parks the
//     thread and hands control to the scheduler, which picks the next
//     thread by consulting the DFS trail.
//
//   * Simulates weak memory for the DECLARED orderings. Each atomic
//     location keeps its full modification-order store history; a load
//     picks among the coherent readable stores (a value choice is its
//     own DFS decision), so a relaxed load can observe stale values and
//     a missing acquire/release/seq_cst edge is an explorable state.
//     Happens-before is tracked with vector clocks; seq_cst operations
//     additionally synchronize through a global SC clock (fences and
//     seq_cst RMWs join bidirectionally — slightly stronger than the
//     C++ abstract machine, matching the x86/ARM mappings; seq_cst
//     LOADS only acquire, modelling the plain-MOV compilation that made
//     the classic eventcount StoreLoad bug real).
//
//   * Detects: MODEL_ASSERT violations, data races on DataCell payloads
//     (vector-clock conflict check), deadlocks (every thread blocked
//     with no timeout to advance virtual time toward), and livelocks
//     (per-execution step bound). On failure it reports the full
//     interleaving trace (thread x op x value) plus a replay string
//     that reproduces the exact execution.
//
//   * Prunes redundant interleavings with sleep sets (partial-order
//     reduction): after exploring thread t at a choice point, sibling
//     branches skip t until an operation DEPENDENT on t's pending op
//     executes. Independence is conservative (same-location, same-lock,
//     SC-set conflicts), so the reduction never hides a failure.
//
// Time is virtual: SteadyNow() reads a clock that only advances when
// every thread is blocked, at which point it jumps to the earliest
// pending deadline (timed waiters wake with a timeout). Real time never
// leaks in, so executions are deterministic and replayable.
#pragma once

#ifndef ASTERIX_MODEL_CHECK
#error "model_check.h is only usable in ASTERIX_MODEL_CHECK builds"
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace asterix {
namespace mc {

// Thread 0 is the controlling thread (the body); up to 5 spawned.
inline constexpr int kMaxThreads = 6;

struct Options {
  // DFS budget: stop after this many executions even if the space is
  // not exhausted (Result::complete reports which happened).
  long max_executions = 100000;
  // Per-execution op bound; exceeding it is reported as a livelock.
  long max_steps = 20000;
  // Replay string from a previous failure report: explores exactly that
  // one execution (for debugging a dumped trace).
  std::string replay;
};

struct Result {
  bool ok = false;        // no failure found in any explored execution
  bool complete = false;  // the whole interleaving space was explored
  long executions = 0;    // schedules explored
  std::string failure;    // first failure message (empty when ok)
  std::string trace;      // thread x op x value trace of the failure
  std::string replay;     // decision string reproducing the failure

  // Convenience for EXPERIMENTS.md-style reporting.
  std::string Summary() const;
};

/// Handle the body uses to spawn checked threads. Spawn before Join;
/// Join runs the scheduler until every spawned thread finishes (their
/// clocks join the body's, like std::thread::join). Operations the body
/// performs before Spawn/after Join run single-threaded but still feed
/// the same memory model, so post-Join MODEL_ASSERTs read final state.
class Execution {
 public:
  /// Constructed by Check for each execution; do not instantiate outside
  /// a Check body.
  Execution() = default;
  void Spawn(std::function<void()> fn);
  /// Idempotent: a second Join (or one with nothing spawned) is a no-op.
  void Join();

 private:
  std::vector<std::function<void()>> pending_;
};

/// Explores `body` under `opts`. The body runs once per execution on
/// the calling thread; it must be deterministic given the checker's
/// decisions (no real time, no real randomness, no external I/O).
Result Check(const Options& opts,
             const std::function<void(Execution&)>& body);

/// Records a failure for the current execution and aborts it. Usable
/// from the body or any spawned thread.
[[noreturn]] void Fail(const std::string& message);

#define MODEL_ASSERT(cond)                                              \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::asterix::mc::Fail(std::string("MODEL_ASSERT failed: " #cond     \
                                      " at " __FILE__ ":") +            \
                          std::to_string(__LINE__));                    \
    }                                                                   \
  } while (0)

/// True when the calling thread is currently under checker control
/// (inside Check, not unwinding from an abort). Hooks pass through to
/// plain storage otherwise (static init, teardown).
bool Active();

// --------------------------------------------------------------------
// Shim hooks (called by common/atomic_shim.h and the model-build
// Mutex/CondVar in common/thread_annotations.h; not for test code).
// --------------------------------------------------------------------

enum class Rmw : uint8_t { kExchange, kAdd, kSub };

uint64_t HookLoad(const void* loc, std::memory_order mo, uint64_t plain);
void HookStore(void* loc, uint64_t value, std::memory_order mo,
               uint64_t* plain);
uint64_t HookRmw(void* loc, Rmw op, uint64_t operand, std::memory_order mo,
                 uint64_t* plain);
bool HookCas(void* loc, uint64_t* expected, uint64_t desired, bool weak,
             std::memory_order mo, std::memory_order fail_mo,
             uint64_t* plain);
void HookFence(std::memory_order mo);
void HookForget(const void* loc);

void HookDataRead(const void* cell);
void HookDataWrite(void* cell);
void HookDataForget(const void* cell);

void HookMutexLock(void* mu);
void HookMutexUnlock(void* mu);
/// Releases `mu`, parks until notified or (when `timed`) the virtual
/// deadline passes, reacquires `mu`. Returns false on timeout.
bool HookCvWait(void* cv, void* mu, bool timed,
                std::chrono::nanoseconds rel_timeout);
void HookCvNotifyAll(void* cv);

/// Parks the calling thread until the latest store to `loc` differs
/// from `observed` (the model-build SpinWaitWhile).
void HookBlockWhileValue(const void* loc, uint64_t observed);

std::chrono::steady_clock::time_point HookSteadyNow();

}  // namespace mc
}  // namespace asterix
