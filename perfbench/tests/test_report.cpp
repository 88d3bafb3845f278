// Unit tests of the benchmark's bookkeeping: self-time roll-up, job outcome
// accounting, metric naming and the shape of the result line.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

using perfbench::JobTally;
using perfbench::Metric;
using perfbench::SpanRecord;

constexpr std::uint32_t kMain = 1;
constexpr std::uint64_t kMs = 1000000;  // ns per ms

SpanRecord span(const char* name, std::uint32_t thread, std::uint64_t start_ms,
                std::uint64_t end_ms) {
  return SpanRecord{name, thread, start_ms * kMs, end_ms * kMs};
}

double self_ms(const std::map<std::string, perfbench::SpanTotals>& totals,
               const std::string& name) {
  return totals.at(name).self_s * 1e3;
}

TEST(RollUp, SameThreadChildrenAreSubtracted) {
  const auto totals = perfbench::roll_up(
      {span("outer", kMain, 0, 100), span("a", kMain, 10, 30),
       span("b", kMain, 40, 70), span("leaf", kMain, 45, 50)},
      kMain);
  EXPECT_DOUBLE_EQ(self_ms(totals, "outer"), 50.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "a"), 20.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "b"), 25.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "leaf"), 5.0);
  EXPECT_DOUBLE_EQ(totals.at("outer").inclusive_s * 1e3, 100.0);
}

TEST(RollUp, OverlappingPoolChildrenCountOnce) {
  // Two pool threads plan concurrently under one main-thread span; their
  // union, not their sum, is covered.
  const auto totals = perfbench::roll_up(
      {span("plan", kMain, 0, 100), span("plan_one", 2, 10, 60),
       span("plan_one", 3, 20, 80)},
      kMain);
  EXPECT_DOUBLE_EQ(self_ms(totals, "plan"), 30.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "plan_one"), 110.0);
  EXPECT_EQ(totals.at("plan_one").count, 2u);
}

TEST(RollUp, PoolChildAttachesToInnermostOpenMainSpan) {
  const auto totals = perfbench::roll_up(
      {span("outer", kMain, 0, 100), span("fanout", kMain, 20, 60),
       span("before", kMain, 5, 15), span("work", 2, 25, 55),
       span("late", 3, 70, 90)},
      kMain);
  EXPECT_DOUBLE_EQ(self_ms(totals, "fanout"), 10.0);
  // outer loses `before` (10), `fanout` (40) and the late pool span (20).
  EXPECT_DOUBLE_EQ(self_ms(totals, "outer"), 30.0);
}

TEST(RollUp, PoolChildOverrunningItsParentIsClipped) {
  const auto totals = perfbench::roll_up(
      {span("plan", kMain, 0, 50), span("plan_one", 2, 30, 70),
       span("plan_one", 3, 10, 40)},
      kMain);
  EXPECT_DOUBLE_EQ(self_ms(totals, "plan"), 10.0);
}

TEST(RollUp, PoolSpansNestOnTheirOwnThreadFirst) {
  const auto totals = perfbench::roll_up(
      {span("plan", kMain, 0, 100), span("plan_one", 2, 10, 90),
       span("list_schedule", 2, 20, 50)},
      kMain);
  EXPECT_DOUBLE_EQ(self_ms(totals, "plan_one"), 50.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "plan"), 20.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "list_schedule"), 30.0);
}

TEST(RollUp, OrphanPoolSpansAreRoots) {
  const auto totals =
      perfbench::roll_up({span("idle", kMain, 0, 10), span("w", 2, 20, 30)},
                         kMain);
  EXPECT_DOUBLE_EQ(self_ms(totals, "idle"), 10.0);
  EXPECT_DOUBLE_EQ(self_ms(totals, "w"), 10.0);
}

TEST(MergeTotals, AddsByName) {
  std::map<std::string, perfbench::SpanTotals> into =
      perfbench::roll_up({span("x", kMain, 0, 10)}, kMain);
  perfbench::merge_totals(
      into, perfbench::roll_up({span("x", kMain, 0, 5), span("y", kMain, 6, 7)},
                               kMain));
  EXPECT_DOUBLE_EQ(self_ms(into, "x"), 15.0);
  EXPECT_EQ(into.at("x").count, 2u);
  EXPECT_DOUBLE_EQ(self_ms(into, "y"), 1.0);
}

TEST(FailedFrac, CancelsExcludedDeadLettersCounted) {
  JobTally tally;
  tally.submitted = 100;
  tally.completed = 90;
  tally.cancelled = 6;
  tally.dead_lettered = 4;
  EXPECT_DOUBLE_EQ(perfbench::failed_frac(tally), 0.04);
}

TEST(FailedFrac, FailedChecksCountTheirJobs) {
  JobTally tally;
  tally.submitted = 60;
  tally.completed = 38;
  tally.cancelled = 2;
  tally.check_failed = 20;
  EXPECT_DOUBLE_EQ(perfbench::failed_frac(tally), 20.0 / 60.0);
}

TEST(FailedFrac, NothingSubmittedIsZero) {
  EXPECT_EQ(perfbench::failed_frac(JobTally{}), 0.0);
}

TEST(MetricName, Grammar) {
  for (const char* good :
       {"setup_s", "e2e_jobs_per_s", "opt.lp_pivots", "layer.sim_self_s",
        "a-b", "0x"}) {
    EXPECT_TRUE(perfbench::valid_metric_name(good)) << good;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space", "a/b",
                          "quote\"", "ünicode"}) {
    EXPECT_FALSE(perfbench::valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(perfbench::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
}

TEST(Unit, Grammar) {
  for (const char* good : {"s", "ms", "jobs/s", "1/s", "%", "count", "MB"}) {
    EXPECT_TRUE(perfbench::valid_unit(good)) << good;
  }
  for (const char* bad : {"", "per second", "\"", "abcdefghijklmnopq"}) {
    EXPECT_FALSE(perfbench::valid_unit(bad)) << bad;
  }
}

TEST(ResultJson, Shape) {
  const std::string line = perfbench::result_json(
      true, 1000, 0,
      {Metric{"latency_ms", 1.2034, "ms"}, Metric{"setup_s", 0.8127, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}}}");
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ResultJson, KeepsAllDigits) {
  const std::string line =
      perfbench::result_json(false, 3, 1, {Metric{"x", 1.0 / 3.0, "s"}});
  EXPECT_NE(line.find("0.33333333333333331"), std::string::npos);
  EXPECT_EQ(line.rfind("{\"correct\": false, \"attempted\": 3, \"failed\": 1", 0),
            0u);
}

TEST(ResultJson, RejectsBadInput) {
  EXPECT_THROW((void)perfbench::result_json(true, 1, 0, {Metric{"bad name", 1.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW((void)perfbench::result_json(
                   true, 1, 0, {Metric{"x", 1.0, "s"}, Metric{"x", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW((void)perfbench::result_json(
                   true, 1, 0,
                   {Metric{"x", std::numeric_limits<double>::quiet_NaN(), "s"}}),
               std::invalid_argument);
  EXPECT_THROW((void)perfbench::result_json(true, 1, 0, {Metric{"x", 1.0, "per s"}}),
               std::invalid_argument);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)perfbench::median({}), std::invalid_argument);
}

}  // namespace
