// Seeded-violation fixture for the GUARDED-BY check: a field declared
// after a mutex member with no annotation, no self-synchronizing type,
// no const and no explanatory comment.
//
// run_fixture_tests.py runs the analyzer on this file alone and asserts
// an exact match between the findings and the EXPECT markers: a marker
// names the finding expected on its own line (`@+N` = N lines below
// the marker). Any missed marker or extra finding fails the test.
#pragma once

// EXPECT[GUARDED-BY]@+4: naked field declared after the mutex.
class LeakyState {
 private:
  Mutex state_mutex_{LockRank::kInner};
  int unguarded_counter_ = 0;
};
