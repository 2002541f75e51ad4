// Negative fixture for the GUARDED-BY check: every field declared after
// the mutex takes one of the opt-outs. The analyzer must report nothing
// here.
#pragma once

class CoveredState {
 private:
  Mutex state_mutex_{LockRank::kInner};
  int counter_ GUARDED_BY(state_mutex_) = 0;
  // Single-writer: mutated only on the owner thread before publication.
  int scratch_ = 0;
  const int capacity_ = 16;
};
