#!/usr/bin/env bash
# Full local verification matrix. Runs every stage, records PASS/FAIL/SKIP,
# prints a summary, and exits non-zero iff any stage FAILed.
#
# Stages:
#   default     cmake --preset default, build, full ctest
#   analyze     Clang -Wthread-safety -Werror build + compile_fail negative
#               tests (SKIP when clang++ is not installed)
#   analyze-ast whole-program static analyzer (tools/analyze): lock graph,
#               blocking-under-lock, hot-path allocation, MEM-ORDER, plus
#               its fixture self-tests. Reads the source with its own
#               token frontend, so it only SKIPs when python3 itself is
#               missing
#   asan-ubsan  AddressSanitizer+UBSan build, full ctest (includes the
#               `sanitizer`-labeled chaos soak)
#   tsan-chaos  ThreadSanitizer build, concurrency-heavy suites
#   deadlock    runtime lock-order checker ON (ASTERIX_DEADLOCK_DETECTOR),
#               detector unit tests + chaos/sanitizer-labeled suites
#   modelcheck  deterministic model checker (ASTERIX_MODEL_CHECK_TESTS):
#               litmus/invariant suite + seeded-bug regressions
#   clang-tidy  curated .clang-tidy baseline over src/ (SKIP when
#               clang-tidy is not installed)
#   lint        tools/lint/check_invariants.py
#
# Usage: scripts/ci.sh [stage ...]     (default: all stages)
#   JOBS=N scripts/ci.sh               parallelism (default: nproc)

set -u
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default analyze analyze-ast asan-ubsan tsan-chaos deadlock modelcheck clang-tidy lint)
fi

declare -A RESULT
declare -A SECONDS_TAKEN

run_stage() {
  local name="$1"
  shift
  echo
  echo "=== [$name] ==="
  local start end
  start=$(date +%s)
  if "$@"; then
    RESULT[$name]=PASS
  else
    RESULT[$name]=FAIL
  fi
  end=$(date +%s)
  SECONDS_TAKEN[$name]=$((end - start))
}

skip_stage() {
  local name="$1" why="$2"
  echo
  echo "=== [$name] SKIP: $why ==="
  RESULT[$name]=SKIP
  SECONDS_TAKEN[$name]=0
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    default)
      run_stage default bash -c "
        cmake --preset default >/dev/null &&
        cmake --build --preset default -j $JOBS &&
        ctest --preset default -j $JOBS"
      ;;
    analyze)
      if command -v clang++ >/dev/null 2>&1; then
        run_stage analyze bash -c "
          cmake --preset analyze >/dev/null &&
          cmake --build --preset analyze -j $JOBS &&
          ctest --test-dir build-analyze -L compile_fail --output-on-failure"
      else
        skip_stage analyze "clang++ not installed (thread-safety analysis is Clang-only)"
      fi
      ;;
    analyze-ast)
      if command -v python3 >/dev/null 2>&1; then
        run_stage analyze-ast bash -c "
          python3 tools/analyze/analyze.py &&
          python3 tools/analyze/run_fixture_tests.py"
      else
        skip_stage analyze-ast "python3 not installed"
      fi
      ;;
    asan-ubsan)
      run_stage asan-ubsan bash -c "
        cmake --preset asan-ubsan >/dev/null &&
        cmake --build --preset asan-ubsan -j $JOBS &&
        ctest --preset asan-ubsan -j $JOBS"
      ;;
    tsan-chaos)
      run_stage tsan-chaos bash -c "
        cmake --preset tsan >/dev/null &&
        cmake --build --preset tsan -j $JOBS &&
        ctest --preset tsan-chaos -j $JOBS"
      ;;
    deadlock)
      run_stage deadlock bash -c "
        cmake --preset deadlock >/dev/null &&
        cmake --build --preset deadlock -j $JOBS &&
        ctest --preset deadlock -j $JOBS"
      ;;
    modelcheck)
      run_stage modelcheck bash -c "
        cmake --preset modelcheck >/dev/null &&
        cmake --build --preset modelcheck -j $JOBS &&
        ctest --preset modelcheck"
      ;;
    clang-tidy)
      if command -v clang-tidy >/dev/null 2>&1; then
        run_stage clang-tidy bash -c "
          cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
          find src -name '*.cc' | sort | xargs clang-tidy -p build --quiet"
      else
        skip_stage clang-tidy "clang-tidy not installed"
      fi
      ;;
    lint)
      run_stage lint python3 tools/lint/check_invariants.py
      ;;
    *)
      echo "unknown stage: $stage" >&2
      RESULT[$stage]=FAIL
      SECONDS_TAKEN[$stage]=0
      ;;
  esac
done

echo
echo "=============================="
echo " CI summary"
echo "=============================="
failed=0
for stage in "${STAGES[@]}"; do
  printf " %-12s %-5s %4ss\n" "$stage" "${RESULT[$stage]}" "${SECONDS_TAKEN[$stage]}"
  [ "${RESULT[$stage]}" = FAIL ] && failed=1
done
exit $failed
