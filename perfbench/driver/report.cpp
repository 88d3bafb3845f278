#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

bool contains(const SpanRecord& outer, const SpanRecord& inner) {
  return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
}

/// Length of the union of `intervals` (each already clipped).
std::uint64_t union_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) covered += hi - lo;
    lo = start;
    hi = end;
    open = true;
  }
  if (open) covered += hi - lo;
  return covered;
}

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

std::map<std::string, SpanTotals> roll_up(const std::vector<SpanRecord>& spans,
                                          std::uint32_t main_thread) {
  const std::size_t n = spans.size();
  // Per thread, outer spans first: start ascending, end descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return a < b;
  });

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> main_spans;  // main-thread spans in `order` order
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = order[i];
    if (i > 0 && spans[order[i - 1]].thread != spans[idx].thread) {
      stack.clear();
    }
    while (!stack.empty() && !contains(spans[stack.back()], spans[idx])) {
      stack.pop_back();
    }
    if (!stack.empty()) parent[idx] = stack.back();
    stack.push_back(idx);
    if (spans[idx].thread == main_thread) main_spans.push_back(idx);
  }

  // Attach pool-thread roots to the innermost main-thread span open at
  // their start: the last main span starting at or before it, or the first
  // of that span's ancestors still open then.
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (spans[idx].thread == main_thread || parent[idx] != kNone) continue;
    const std::uint64_t t = spans[idx].start_ns;
    auto it = std::upper_bound(
        main_spans.begin(), main_spans.end(), t,
        [&](std::uint64_t value, std::size_t k) {
          return value < spans[k].start_ns;
        });
    if (it == main_spans.begin()) continue;
    std::size_t k = *(it - 1);
    while (k != kNone && !(spans[k].start_ns <= t && t < spans[k].end_ns)) {
      k = parent[k];
    }
    parent[idx] = k;
  }

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (parent[idx] == kNone) continue;
    const SpanRecord& p = spans[parent[idx]];
    const std::uint64_t lo = std::max(p.start_ns, spans[idx].start_ns);
    const std::uint64_t hi = std::min(p.end_ns, spans[idx].end_ns);
    if (lo < hi) children[parent[idx]].emplace_back(lo, hi);
  }

  std::map<std::string, SpanTotals> totals;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const SpanRecord& s = spans[idx];
    const std::uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    const std::uint64_t covered = union_length(children[idx]);
    SpanTotals& t = totals[std::string(s.name)];
    t.inclusive_s += 1e-9 * static_cast<double>(duration);
    t.self_s += 1e-9 * static_cast<double>(duration - std::min(duration, covered));
    ++t.count;
  }
  return totals;
}

void merge_totals(std::map<std::string, SpanTotals>& into,
                  const std::map<std::string, SpanTotals>& from) {
  for (const auto& [name, t] : from) {
    SpanTotals& dst = into[name];
    dst.inclusive_s += t.inclusive_s;
    dst.self_s += t.self_s;
    dst.count += t.count;
  }
}

double failed_frac(const JobTally& tally) {
  if (tally.submitted == 0) return 0.0;
  const std::uint64_t ok = tally.completed + tally.cancelled;
  const std::uint64_t failed = ok >= tally.submitted ? 0 : tally.submitted - ok;
  return static_cast<double>(failed) / static_cast<double>(tally.submitted);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  std::set<std::string, std::less<>> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("bad unit for metric " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value for metric " + m.name);
    }
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

}  // namespace perfbench
