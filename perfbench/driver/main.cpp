// perfbench_driver: run one benchmark workload and print its result.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Progress and failed checks go to stderr; the last line of stdout is the
// JSON result. The exit code is 0 only when every check passed.
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 2;
}

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::optional<std::uint64_t> seed;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      seed = parse_number<std::uint64_t>(value);
      if (!seed) return usage();
    } else if (flag == "--seconds") {
      const auto seconds = parse_number<double>(value);
      if (!seconds || !(*seconds > 0.0 && *seconds <= 3600.0)) return usage();
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) return usage();
  options.seed = seed ? *seed : perfbench::default_seed(options.workload);

  try {
    const perfbench::RunResult result = perfbench::run_workload(options);
    for (const std::string& error : result.errors) {
      std::cerr << "CHECK FAILED: " << error << '\n';
    }
    std::cout << perfbench::result_json(result.correct, result.tally.submitted,
                                        result.tally.check_failed,
                                        result.metrics)
              << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
