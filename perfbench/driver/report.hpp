// Pure bookkeeping for the benchmark driver: span self-time roll-up, job
// outcome accounting, metric naming and the one-line JSON result. Nothing
// here touches the library's planners, so the unit tests exercise it on
// hand-built inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One closed span as recorded by a thread's ring. `name` must outlive the
/// roll-up; the library's span names are string literals.
struct SpanRecord {
  std::string_view name;
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name totals of a roll-up, in seconds.
struct SpanTotals {
  double inclusive_s = 0.0;  ///< summed span durations
  double self_s = 0.0;       ///< summed durations minus child coverage
  std::size_t count = 0;
};

/// Roll span self time up by name. Spans on one thread nest by
/// containment. A span that has no enclosing span on its own thread and
/// runs on a thread other than `main_thread` (a pool worker) is a child of
/// the innermost `main_thread` span open at its start. A span's self time
/// is its duration minus the union of its children's intervals clipped to
/// its own, so children running concurrently on pool threads are not
/// subtracted twice. All spans must come from one quiescent snapshot.
[[nodiscard]] std::map<std::string, SpanTotals> roll_up(
    const std::vector<SpanRecord>& spans, std::uint32_t main_thread);

/// Add `from` into `into` name by name.
void merge_totals(std::map<std::string, SpanTotals>& into,
                  const std::map<std::string, SpanTotals>& from);

/// Terminal outcomes of the jobs one measured run submitted.
struct JobTally {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;      ///< cancellations the scenario requested
  std::uint64_t dead_lettered = 0;  ///< retries exhausted, no capacity left
  /// Jobs of repetitions whose output failed a check; they count as failed
  /// whatever their recorded outcome.
  std::uint64_t check_failed = 0;
};

/// Submitted jobs that did not complete, requested cancellations
/// excluded, divided by the jobs submitted. Dead letters and jobs of
/// failed checks count. 0 when nothing was submitted.
[[nodiscard]] double failed_frac(const JobTally& tally);

/// True for names made only of [A-Za-z0-9_.-] that start with a letter or
/// a digit and are at most 64 characters long.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// True for units of 1 to 16 characters from [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
///    {"value": .., "unit": ..}, ...}}
/// Values are written with 17 significant digits. Throws
/// std::invalid_argument on a bad or repeated name, a bad unit or a
/// non-finite value.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
