// The benchmark command:
//
//   perfbench --workload <soak|storm|evict> --seed <n> --seconds <s>
//             --trace <0|1> [--spans-out <file>]
//
// Times set-ups on every CPU the process may use, then repeats the workload
// (fresh cluster, the run's seeds and the CPUs in turn; see run_seeds) until
// --seconds of host time are used, then prints every metric by name and unit,
// the determinism digest, any output-check failures, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are every end-to-end metric that is not withheld, measured
// untraced; with --trace 1 the repetitions alternate untraced and traced
// (engine profiler timing on) and the metrics are the per-layer ones. Exits 1
// when an output check fails.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spans_out;  // traced runs write the driver's spans here
};

// Fills *out from argv; returns an error message, empty on success.
std::string parse_args(int argc, const char* const* argv, Args* out);

// Runs the benchmark; returns the process exit code.
int run_benchmark(const Args& args);

}  // namespace perfbench
