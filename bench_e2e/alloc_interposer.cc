// The test suite's operator-new interposer, linked into the traced binary
// only: it counts every heap allocation per thread, which the layer
// replays read as allocs/record.
#define ASTERIX_ALLOC_INTERPOSER 1
#include "tests/testing_util.h"

#include "bench_e2e.h"

namespace bench_e2e {

bool AllocCountingActive() { return asterix::testing::AllocInterposerActive(); }

int64_t ThreadAllocCount() { return asterix::testing::ThreadAllocStats().count; }

}  // namespace bench_e2e
