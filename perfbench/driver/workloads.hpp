// The benchmark's four workloads and the closed-loop harness that runs
// them. Every workload is driven by one process: inputs are generated from
// the workload seed, arrivals live in virtual time, and the next
// repetition starts only after the previous one has been executed and
// checked. The library only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  JobTally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< failed checks, one line each
};

/// Workload names in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Seed a workload runs with when none is given on the command line.
[[nodiscard]] std::uint64_t default_seed(std::string_view workload);

/// Run one workload for `options.seconds` and return its end-to-end
/// metrics (untraced) or, with `options.trace`, its per-layer metrics.
/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] RunResult run_workload(const Options& options);

}  // namespace perfbench
