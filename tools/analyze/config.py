"""Analyzer policy: roots, allowlists, and the justification for every
exemption.

Every entry here is a *documented* hole in a check. The rule of the file:
no bare names — each allowlist maps a site to the one-line reason it is
sound, and the reason is printed with `analyze.py --explain`. An entry
without a defensible reason is a bug in this file, not in the check.

Scope note: the allowlists are keyed by qualified-name *suffix*
("SubscriberQueue::SpillLocked" matches feeds::SubscriberQueue::
SpillLocked) so they survive namespace refactors, and by repo-relative
path for file-level entries.
"""

# --------------------------------------------------------------------------
# Check 1 — GUARDED-BY
# --------------------------------------------------------------------------

# Field types that synchronize themselves: a field of one declared after a
# mutex needs no GUARDED_BY.
SELF_SYNC_TYPES = (
    "std::atomic", "common::Mutex", "common::SharedMutex", "common::CondVar",
    "Mutex", "CondVar", "std::thread", "std::jthread", "MetricsRegistry",
    "common::Counter", "common::Gauge", "common::Histogram",
    "Counter", "Gauge", "Histogram", "BlockingQueue", "common::BlockingQueue",
)

# --------------------------------------------------------------------------
# Check 2 — blocking-under-lock
# --------------------------------------------------------------------------

# Callee names that can block the calling thread. Condvar waits get the
# wait-protocol exemption for the mutex they release; everything else is
# a finding when any lock is held.
BLOCKING_OPS = {
    "Wait", "WaitFor", "WaitUntil",            # CondVar
    "PopFor",                                   # BlockingQueue timed pop
    "sleep_for", "sleep_until", "SleepMillis", "SleepMicros",
    "join",                                     # thread join
    "fopen", "fclose", "fread", "fwrite", "fseek", "ftell", "fflush",
    "fsync", "getline",
    # NB: `remove`/`rename` are deliberately absent — std::remove (the
    # erase-remove algorithm) shares the name with the libc file op, and
    # the only file-unlink site (spill teardown) is covered by its
    # enclosing allowlist entry.
}

# Functions allowed to block while holding a lock: the documented
# wait-protocol / IO-under-own-lock sites. Key: qname suffix.
BLOCKING_ALLOWLIST = {
    # The spill protocol serializes excess frames to disk *under* the
    # subscriber mutex by design: spilling races Unsubscribe teardown, and
    # the mutex is rank 420 — nothing above it is ever held on this path
    # (every edge the deadlock detector witnesses under kSubscriberQueue
    # goes to a lower rank). README "Spill-to-disk" documents the
    # stall-the-producer trade-off.
    "SubscriberQueue::SpillLocked":
        "documented spill protocol: file append under the subscriber's own "
        "leaf-ward mutex; producer stall is the intended backpressure",
    "SubscriberQueue::RestoreFromSpillLocked":
        "documented spill protocol: refill read under the subscriber's own "
        "mutex, paired with SpillLocked",
    "SubscriberQueue::~SubscriberQueue":
        "teardown: unlink of the spill file under the dying queue's mutex; "
        "no concurrent holders can exist past this point",
    # WAL file I/O happens under kWal (210) by design — the log's whole
    # contract is ordered durable appends, so the file handle is guarded
    # by the same mutex that orders the records.
    "Wal::Open":
        "WAL contract: file open under kWal, the mutex that orders the log",
    "Wal::Commit":
        "WAL contract: ordered durable (group-commit) append under kWal",
    "Wal::Sync":
        "WAL contract: explicit durability barrier under kWal",
    "Wal::Replay":
        "WAL contract: recovery read under kWal excludes concurrent appends",
    "Wal::~Wal":
        "teardown: closing the log file under kWal; no appenders remain",
    # The central manager's mutex (kCentralFeedManager, 495, the outermost
    # rank) IS the reconfiguration critical section: rescale handoff and
    # graceful disconnect hold it across bounded waits on tail jobs so no
    # connect/disconnect can interleave with a half-moved pipeline. Rank
    # 495 outranks everything, so no lock-order hazard can form under it.
    "CentralFeedManager::RebuildTailLocked":
        "reconfiguration barrier: bounded (3 s) intake-handoff wait under "
        "the outermost manager lock serializes rescale by design",
    "CentralFeedManager::FullDisconnectLocked":
        "reconfiguration barrier: bounded (10 s + 2 s) tail-job drain "
        "under the outermost manager lock serializes disconnect by design",
    "CentralFeedManager::ReleaseHeadIfIdleLocked":
        "reconfiguration barrier: bounded (5 s) collect-job drain when the "
        "last connection leaves a head, under the outermost manager lock",
    "CentralFeedManager::HandleNodeFailureLocked":
        "failover barrier: dead-node recovery freezes affected tasks "
        "(Kill + queue Close + join of an exiting thread, so the join is "
        "bounded) under the outermost manager lock; serializing recovery "
        "against connect/disconnect is the design (§6.2.3)",
    # The mongo baseline reproduces Mongo 2.x's coarse write lock; the
    # simulated per-document write latency *under* that lock is the
    # baseline's entire point (EXPERIMENTS.md contrasts it with feeds).
    "MongoCollection::Insert":
        "baseline fidelity: Mongo 2.x holds its global write lock across "
        "the document write; the stall is what the experiment measures",
}

# --------------------------------------------------------------------------
# Check 3 — hot-path allocation
# --------------------------------------------------------------------------

# Reachability roots: the frame fast path (PR 5-7's zero-alloc surface).
HOT_ROOTS = [
    "Task::PumpBatch",
    "SubscriberQueue::Deliver",
    "SubscriberQueue::Next",
    "SubscriberQueue::NextBatch",
    "SubscriberQueue::NextBatchInto",
    "FeedJoint::NextFrame",
]

# Callee names treated as allocation / container growth when reached.
GROWTH_CALLS = {
    "make_shared", "make_unique", "allocate_shared",
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "insert", "resize", "reserve", "append", "assign",
    "to_string", "substr", "str",
}

# Functions the traversal does not descend into (and whose call site is
# not itself a finding). These are the charged/cold boundaries of the
# fast path.
HOT_PRUNE = {
    "SubscriberQueue::SpillLocked":
        "cold excess branch: spill-to-disk only engages past the "
        "subscriber's memory budget; the binary encode of the spilled "
        "frame is the documented backpressure trade-off",
    "SubscriberQueue::RestoreFromSpillLocked":
        "cold refill branch: only runs while a spill file exists",
    "SubscriberQueue::SampleFrame":
        "degraded-mode branch: sampling only engages when throttling or "
        "over budget; steady state bypasses it",
    "MetricsRegistry::Default":
        "leak-once singleton: the `new` runs exactly once per process",
    "Tracer::Instance":
        "leak-once singleton: the `new` runs exactly once per process",
    "FramePool": "frame recycling pool: allocation is the pool's job and "
                 "is governor-charged (MEM-POOL lint owns this boundary)",
    "MemPool": "governor pool: every byte is charged against the global "
               "budget by construction",
    "BlockAllocator": "FramePool's arena: charged bulk refill, amortized",
    "GetCounter": "metrics registry: allocates once per process at static "
                  "init of the call site, never in steady state",
    "GetGauge": "metrics registry: once-per-process static init",
    "GetHistogram": "metrics registry: once-per-process static init",
    "Tracer::RecordSpan": "sampled slow path: only taken when the span "
                          "sampler fires; ring write is alloc-free",
    "LOG_MSG": "log macro: rate-limited slow path by contract",
}

# Files whose allocation behavior is proven elsewhere.
HOT_FILE_ALLOWLIST = {
    "src/common/blocking_queue.h":
        "the items vector and a PopAllInto caller's batch vector keep their "
        "capacity across drains; mem_test ZeroAllocSteadyState moves every "
        "frame through Push + PopAllInto and asserts 0 allocations",
}

# --------------------------------------------------------------------------
# Check 4 — MEM-ORDER (AST grade)
# --------------------------------------------------------------------------

MEM_ORDER_LOOKBACK = 8
