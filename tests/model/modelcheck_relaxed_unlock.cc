// Regression teeth for the model checker: recompiles SnapshotPtr with
// its lock-bit release downgraded to relaxed. The unlock then publishes
// nothing: the next locker acquires the bit but gains no happens-before
// edge over the previous critical section's access to the guarded
// shared_ptr, which the checker must report as a data race on the
// pointer cell. Exit 0 iff found.
//
// Deliberately links ONLY {this file, model_check.cc}: SnapshotPtr is
// header-inline, so any other object compiled without the bug flag would
// hand the linker an unmutated copy of the same symbols.

#include <cstdio>
#include <memory>

#include "common/model_check.h"
#include "common/snapshot_ptr.h"

int main() {
  using asterix::common::SnapshotPtr;
  namespace mc = asterix::mc;

  mc::Options opts;
  opts.max_executions = 100000;
  // Same program as ModelSnapshotPtr.PublicationIsRaceFreeAndMonotonic.
  mc::Result res = mc::Check(opts, [](mc::Execution& ex) {
    auto snap =
        std::make_shared<SnapshotPtr<int>>(std::make_shared<int>(0));
    ex.Spawn([=] { snap->store(std::make_shared<int>(1)); });
    ex.Spawn([=] {
      std::shared_ptr<int> a = snap->load();
      std::shared_ptr<int> b = snap->load();
      MODEL_ASSERT(a != nullptr && b != nullptr);
      MODEL_ASSERT(*b >= *a);
    });
    ex.Join();
  });

  std::printf("[modelcheck] regression_relaxed_unlock: %s\n",
              res.Summary().c_str());
  if (res.ok) {
    std::printf("FAIL: checker did not find the seeded relaxed unlock\n");
    return 1;
  }
  if (res.failure.find("data race") == std::string::npos) {
    std::printf("FAIL: expected a data-race report, got: %s\n",
                res.failure.c_str());
    return 1;
  }
  std::printf("%s  replay: %s\nOK: seeded relaxed unlock found\n",
              res.trace.c_str(), res.replay.c_str());
  return 0;
}
