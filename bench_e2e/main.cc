// bench_e2e binaries. Usually run through run.py, which builds them and
// assembles the benchmark's result line.
//
//   bench_e2e        --workload W --seed S --seconds T --work-dir D [--scale X]
//                    [--replay 0|1]
//   bench_e2e_traced --workload W --seed S --seconds T --work-dir D [--scale X]
//
// The untraced binary runs the workload and prints its end-to-end metrics
// plus the program counters read after the run; with --replay 1 it then
// times the per-layer replays. The traced binary runs one pass with tracer
// sampling on, then the per-layer replays (for allocs/record). The last
// line of stdout is one JSON object; the exit code is 0 iff every check
// passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_e2e.h"
#include "common/logging.h"

namespace bench_e2e {

#ifndef BENCH_E2E_TRACED
bool AllocCountingActive() { return false; }
int64_t ThreadAllocCount() { return 0; }
#endif

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "file_bulk|cascade_paced|geo_mixed --seed N --seconds T "
               "--work-dir DIR [--scale X] [--replay 0|1]\n",
               why);
  std::exit(2);
}

std::string JsonMetrics(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  using namespace bench_e2e;  // NOLINT
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--replay") {
      options.replay = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || options.work_dir.empty()) {
    Usage("--workload and --work-dir are required");
  }
  if (options.seconds <= 0 || options.scale <= 0) Usage("bad --seconds/--scale");
  asterix::common::Logging::SetMinLevel(asterix::common::LogLevel::kWarn);
  std::filesystem::create_directories(options.work_dir);

#ifdef BENCH_E2E_TRACED
  options.traced = true;
  if (!AllocCountingActive()) {
    std::fprintf(stderr, "bench_e2e_traced: allocation interposer inactive\n");
    return 2;
  }
#endif
  std::printf("bench_e2e %s: workload %s, seed %llu, %.1f s, scale %g\n",
              options.traced ? "traced" : "untraced", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.scale);
  RunResult result = RunWorkload(options);
  MetricMap layers;
  if (options.traced || options.replay) layers = ReplayLayers(options);

  const bool correct = result.failed == 0;
  std::printf("error_frac %.6g (%lld failed of %lld attempted)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<int64_t>(1, result.attempted)),
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"e2e\": %s, "
      "\"counts\": %s, \"layers\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), JsonMetrics(result.e2e).c_str(),
      JsonMetrics(result.counts).c_str(), JsonMetrics(layers).c_str());
  std::fflush(stdout);
  // Skip static destructors: every instance is already torn down, and the
  // process-wide registries need no orderly exit.
  std::_Exit(correct ? 0 : 1);
}
