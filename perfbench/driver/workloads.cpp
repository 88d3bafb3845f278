#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/resource.hpp"
#include "core/hare_scheduler.hpp"
#include "fault/fault_spec.hpp"
#include "fault/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "profiler/profiler.hpp"
#include "serve/serve_service.hpp"
#include "shard/hierarchical_planner.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival_spec.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace {

namespace hc = hare::cluster;
namespace hw = hare::workload;
namespace hs = hare::sim;
namespace obs = hare::obs;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Run `fn` inside a `bench` span and add its wall time to `acc`.
template <typename Fn>
auto timed(double& acc, const char* span, Fn&& fn) {
  obs::Span scope("bench", span);
  const auto start = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    acc += seconds_since(start);
  } else {
    auto result = fn();
    acc += seconds_since(start);
    return result;
  }
}

/// Worker count of every pool a workload builds: one per hardware thread.
std::size_t pool_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// SplitMix64: distinct, well-mixed per-instance seeds from one run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool identical(const hs::Schedule& a, const hs::Schedule& b) {
  return a.sequences == b.sequences && a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

// ------------------------------------------------------------- tracing --

constexpr const char* kMainThreadName = "perfbench";
/// The main thread records the simulator's per-event spans; its ring holds
/// a whole fault-replay phase. Pool threads record a few spans per shard,
/// and the planner starts fresh ones for every plan, so theirs stay small.
constexpr std::size_t kMainRingEvents = std::size_t{1} << 20;
constexpr std::size_t kPoolRingEvents = std::size_t{1} << 14;

/// Enables hare::obs for one traced repetition and rolls the spans up at
/// every phase boundary, so one phase's spans never overwrite another's.
class TraceCollector {
 public:
  TraceCollector() {
    obs::Tracer::instance().clear();
    register_main();
    obs::Tracer::instance().enable();
  }
  ~TraceCollector() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Close a phase. Every thread must be idle. Spans of an `aside` phase
  /// (a reference run outside the measured pipeline) are kept apart.
  void boundary(bool aside = false) {
    obs::Tracer& tracer = obs::Tracer::instance();
    std::vector<SpanRecord> spans;
    std::uint32_t main_thread = 0;
    for (const auto& ring : tracer.rings()) {
      dropped_ += ring->dropped();
      if (ring->thread_name() == kMainThreadName) main_thread = ring->tid();
      for (const obs::TraceEvent& event : ring->snapshot()) {
        if (event.phase != obs::Phase::Complete) continue;
        spans.push_back(
            SpanRecord{event.name, ring->tid(), event.start_ns, event.end_ns});
      }
    }
    merge_totals(aside ? aside_ : totals_, roll_up(spans, main_thread));
    tracer.clear();
    register_main();
  }

  [[nodiscard]] const std::map<std::string, SpanTotals>& totals() const {
    return totals_;
  }
  [[nodiscard]] const std::map<std::string, SpanTotals>& aside() const {
    return aside_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  static void register_main() {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_ring_capacity(kMainRingEvents);
    tracer.set_thread_name(kMainThreadName);
    tracer.set_ring_capacity(kPoolRingEvents);
  }

  std::map<std::string, SpanTotals> totals_;
  std::map<std::string, SpanTotals> aside_;
  std::uint64_t dropped_ = 0;
};

void phase_end(TraceCollector* trace) {
  if (trace != nullptr) trace->boundary();
}

// ---------------------------------------------------------- repetition --

/// What one closed-loop repetition measured and produced.
struct Rep {
  std::vector<double> decide_s;  ///< decision-time samples (same decision)
  double e2e_s = 0.0;            ///< decision + execution of the plan run
  std::uint64_t jobs = 0;        ///< jobs submitted
  std::uint64_t instance = 0;    ///< repetitions with one key ran one instance
  JobTally tally;
  double weighted_jct = 0.0;  ///< Σ w (C − a) over completed jobs
  double weight = 0.0;        ///< Σ w over completed jobs
  double makespan_s = 0.0;    ///< executed makespan (mean over instances)
  double switch_s = 0.0;      ///< executed switching time
  double compute_s = 0.0;     ///< executed compute time
  std::map<std::string, double> layer;  ///< values the library reports
  std::vector<std::string> errors;
};

void validate(const hs::Schedule& schedule, const hw::JobSet& jobs, Rep& rep) {
  try {
    hs::validate_schedule(schedule, jobs);
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("invalid schedule: ") + e.what());
  }
}

void add_switching(const hs::SimResult& result, Rep& rep) {
  for (const hs::SwitchStat& s : result.switch_stats) {
    rep.switch_s += s.total_switch_time;
    rep.compute_s += s.total_compute_time;
  }
}

/// Count the outcome of every job of `result` and add completed jobs'
/// weighted JCT. Every job must have left the system exactly one way.
void account(const hs::SimResult& result, std::size_t submitted, Rep& rep) {
  rep.tally.submitted += submitted;
  if (result.jobs.size() != submitted) {
    rep.errors.push_back("executed " + std::to_string(result.jobs.size()) +
                         " jobs, submitted " + std::to_string(submitted));
    return;
  }
  for (const hs::JobRecord& job : result.jobs) {
    switch (job.outcome) {
      case hs::JobOutcome::Completed:
        ++rep.tally.completed;
        rep.weighted_jct += job.weight * job.jct();
        rep.weight += job.weight;
        break;
      case hs::JobOutcome::Cancelled: ++rep.tally.cancelled; break;
      case hs::JobOutcome::DeadLettered: ++rep.tally.dead_lettered; break;
    }
  }
  add_switching(result, rep);
}

void require_all_finished(Rep& rep) {
  if (rep.tally.completed + rep.tally.cancelled != rep.tally.submitted) {
    rep.errors.push_back(
        "completions + requested cancels != jobs submitted (" +
        std::to_string(rep.tally.completed) + " + " +
        std::to_string(rep.tally.cancelled) + " != " +
        std::to_string(rep.tally.submitted) + ")");
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Drop the previous instance (untimed).
  virtual void reset() = 0;
  /// Build the instance: cluster, inputs, planner or service (timed).
  virtual void setup() = 0;
  /// Decide, execute and check once on the current instance.
  virtual Rep run(TraceCollector* trace) = 0;
  /// Traced runs only: a reference run outside the measured pipeline,
  /// recorded as an `aside` phase before the traced repetition.
  virtual void reference(TraceCollector& /*trace*/) {}
};

// --------------------------------------------------------- offline-100k --

/// 100k streamed jobs on 8192 GPUs in 32 network-domain shards, planned
/// Fluid by the hierarchical planner over a pool, executed by the
/// simulator. Planning is cheap next to simulating, so a repetition plans
/// several instances and simulates the last. The instances differ: how much
/// re-planning the migration pass does depends on the trace (one seed
/// places 35% more tasks than another), so the decision median must span
/// many traces, not one.
class Offline100k final : public Workload {
 public:
  explicit Offline100k(std::uint64_t seed) : seed_(seed) {}

  void reset() override {
    reference_.reset();
    planner_.reset();
    instances_.clear();
    cluster_.reset();
  }

  void setup() override {
    cluster_ = std::make_unique<hc::Cluster>(
        hc::make_simulation_cluster(kGpus, 25.0, 8, kMachinesPerDomain));
    hw::TraceConfig config;
    config.job_count = kJobs;
    config.base_arrival_rate = 0.5;
    config.rounds_scale_min = 0.02;
    config.rounds_scale_max = 0.08;
    for (std::size_t d = 0; d < kDecisionsPerRep; ++d) {
      Instance& instance = instances_.emplace_back();
      instance.seed = mix_seed(seed_, next_instance_++);
      hw::TraceStream stream(instance.seed, config);
      while (!stream.exhausted()) instance.jobs.add_job(stream.next());
    }
    planner_ = std::make_unique<hare::shard::HierarchicalPlanner>(
        planner_config(/*serial=*/false));
  }

  /// The pool's single-worker baseline: the first instance planned on one
  /// thread, which is the one a traced repetition plans.
  void reference(TraceCollector& trace) override {
    const Instance& instance = instances_.front();
    const hare::profiler::Profiler profiler(hw::PerfModel{}, {}, instance.seed);
    const hare::profiler::TimeTable times =
        profiler.exact(instance.jobs, *cluster_);
    hare::shard::HierarchicalPlanner serial(planner_config(/*serial=*/true));
    double unused = 0.0;
    reference_ = timed(unused, "bench.plan_serial", [&] {
      return serial.schedule({*cluster_, instance.jobs, times});
    });
    trace.boundary(/*aside=*/true);
  }

  Rep run(TraceCollector* trace) override {
    Rep rep;
    const std::size_t decisions = trace != nullptr ? 1 : instances_.size();
    std::optional<hare::profiler::TimeTable> times;
    hs::Schedule schedule;
    double decide = 0.0;
    for (std::size_t d = 0; d < decisions; ++d) {
      const Instance& instance = instances_[d];
      decide = 0.0;
      times.emplace(timed(decide, "bench.profile", [&] {
        const hare::profiler::Profiler profiler(hw::PerfModel{}, {},
                                                instance.seed);
        return profiler.exact(instance.jobs, *cluster_);
      }));
      phase_end(trace);
      schedule = timed(decide, "bench.plan", [&] {
        return planner_->schedule({*cluster_, instance.jobs, *times});
      });
      phase_end(trace);
      rep.decide_s.push_back(decide);
    }
    // The last instance planned is the one executed.
    const Instance& executed = instances_[decisions - 1];
    rep.jobs = executed.jobs.job_count();
    rep.instance = executed.seed;
    rep.layer["shard.migrated_jobs"] =
        static_cast<double>(planner_->last_plan().migrated_jobs);
    rep.layer["shard.imbalance"] = planner_->last_plan().imbalance;
    rep.layer["exp.workers"] = static_cast<double>(pool_workers());
    if (reference_ && !identical(schedule, *reference_)) {
      rep.errors.push_back("serial and pooled plans differ");
    }

    validate(schedule, executed.jobs, rep);
    double execute = 0.0;
    const hs::Simulator simulator(*cluster_, executed.jobs, *times);
    const hs::SimResult result = timed(
        execute, "bench.simulate", [&] { return simulator.run(schedule); });
    phase_end(trace);
    rep.e2e_s = decide + execute;
    account(result, executed.jobs.job_count(), rep);
    require_all_finished(rep);
    rep.makespan_s = result.makespan;
    rep.layer["sim.executed_over_planned"] =
        result.weighted_completion / schedule.predicted_objective;
    return rep;
  }

 private:
  struct Instance {
    std::uint64_t seed = 0;
    hw::JobSet jobs;
  };

  static constexpr std::size_t kJobs = 100000;
  static constexpr std::size_t kGpus = 8192;
  static constexpr std::size_t kShards = 32;
  static constexpr std::size_t kMachinesPerDomain = 32;
  static constexpr std::size_t kDecisionsPerRep = 3;

  static hare::shard::ShardPlannerConfig planner_config(bool serial) {
    hare::shard::ShardPlannerConfig config;
    config.shards = kShards;
    config.workers = pool_workers();
    config.serial = serial;
    return config;
  }

  std::uint64_t seed_;
  std::uint64_t next_instance_ = 0;  ///< instances drawn so far this run
  std::unique_ptr<hc::Cluster> cluster_;
  std::vector<Instance> instances_;
  std::unique_ptr<hare::shard::HierarchicalPlanner> planner_;
  std::optional<hs::Schedule> reference_;
};

// -------------------------------------------------------------- lp-cuts --

/// A corpus of small flat instances with distinct seeds, each planned with
/// the LP-with-cuts relaxation on one thread and executed.
class LpCuts final : public Workload {
 public:
  explicit LpCuts(std::uint64_t seed) : seed_(seed) {}

  void reset() override {
    corpus_.clear();
    scheduler_.reset();
    cluster_.reset();
  }

  void setup() override {
    cluster_ = std::make_unique<hc::Cluster>(
        hc::make_simulation_cluster(kGpus, 25.0, 4));
    hw::TraceConfig config;
    config.job_count = kJobs;
    config.base_arrival_rate = 0.2;
    config.sync_scales = {1, 2, 2, 4};
    config.rounds_scale_min = 0.05;
    config.rounds_scale_max = 0.2;
    corpus_.reserve(kCoreInstances + kSeededInstances);
    for (std::size_t i = 0; i < kCoreInstances + kSeededInstances; ++i) {
      hw::TraceGenerator generator(instance_seed(i));
      corpus_.push_back(generator.generate(config));
    }
    hare::core::HareConfig hare;
    hare.relaxation.mode = hare::core::RelaxMode::LpCuts;
    hare.relaxation.engine.threads = 1;
    scheduler_ = std::make_unique<hare::core::HareScheduler>(hare);
  }

  Rep run(TraceCollector* trace) override {
    Rep rep;
    double decide = 0.0;
    double execute = 0.0;
    double planned = 0.0;
    double executed = 0.0;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      const hw::JobSet& jobs = corpus_[i];
      rep.jobs += jobs.job_count();
      const hare::profiler::TimeTable times =
          timed(decide, "bench.profile", [&] {
            const hare::profiler::Profiler profiler(hw::PerfModel{}, {},
                                                    instance_seed(i));
            return profiler.exact(jobs, *cluster_);
          });
      const hs::Schedule schedule = timed(decide, "bench.plan", [&] {
        return scheduler_->schedule({*cluster_, jobs, times});
      });
      validate(schedule, jobs, rep);
      const hs::Simulator simulator(*cluster_, jobs, times);
      const hs::SimResult result = timed(
          execute, "bench.simulate", [&] { return simulator.run(schedule); });
      account(result, jobs.job_count(), rep);
      rep.makespan_s += result.makespan / static_cast<double>(corpus_.size());
      planned += schedule.predicted_objective;
      executed += result.weighted_completion;
    }
    phase_end(trace);
    require_all_finished(rep);
    rep.decide_s.push_back(decide);
    rep.e2e_s = decide + execute;
    rep.layer["sim.executed_over_planned"] = executed / planned;
    return rep;
  }

 private:
  // LpCuts cost per instance is heavy-tailed (a few instances need every
  // cut round), so a corpus drawn wholly from the run seed moves by ~10%
  // between seeds. A fixed core keeps the number comparable across seeds;
  // the seeded share gives a held-out seed inputs no change was tuned on.
  static constexpr std::size_t kCoreInstances = 160;
  static constexpr std::size_t kSeededInstances = 64;
  static constexpr std::uint64_t kCoreSeed = 0x6c70637574730000ULL;
  static constexpr std::size_t kJobs = 12;
  static constexpr std::size_t kGpus = 8;

  [[nodiscard]] std::uint64_t instance_seed(std::size_t i) const {
    return i < kCoreInstances ? mix_seed(kCoreSeed, i)
                              : mix_seed(seed_, i - kCoreInstances);
  }

  std::uint64_t seed_;
  std::unique_ptr<hc::Cluster> cluster_;
  std::vector<hw::JobSet> corpus_;
  std::unique_ptr<hare::core::HareScheduler> scheduler_;
};

// --------------------------------------------------------- serve-faults --

/// A bursty arrival stream served by ServeService on a mid-size cluster
/// with seeded GPU failures and recoveries; the served plan is replayed
/// through the simulator.
class ServeFaults final : public Workload {
 public:
  explicit ServeFaults(std::uint64_t seed) : seed_(seed) {}

  void reset() override {
    service_.reset();
    stream_.reset();
    faults_ = {};
    cluster_.reset();
  }

  void setup() override {
    cluster_ = std::make_unique<hc::Cluster>(
        hc::make_simulation_cluster(kGpus, 25.0, 8, 2));
    const hw::TraceConfig trace = hw::parse_arrival_spec(kArrivalSpec);
    // The stochastic fault knobs need the instance's shape: materialize
    // the trace the stream will draw (bit-identical by construction).
    const hw::JobSet shape = hw::TraceGenerator(seed_).generate(trace);
    const hare::fault::FaultSpec spec = hare::fault::parse_fault_spec(
        "seed=" + std::to_string(seed_) + "," + kFaultSpec);
    const double horizon = static_cast<double>(trace.job_count) /
                           trace.base_arrival_rate;
    faults_ = hare::fault::generate_fault_plan(spec, *cluster_, shape, horizon);
    stream_ = std::make_unique<hw::TraceStream>(seed_, trace);
    hare::serve::ServeConfig config;
    config.tick = kTick;
    service_ = std::make_unique<hare::serve::ServeService>(
        *cluster_, hw::PerfModel{}, config);
  }

  Rep run(TraceCollector* trace) override {
    Rep rep;
    double decide = 0.0;
    const hare::serve::ServeReport report = timed(
        decide, "bench.serve", [&] { return service_->run(*stream_, faults_); });
    phase_end(trace);
    rep.decide_s.push_back(decide);
    rep.jobs = report.arrivals;
    const hw::JobSet& jobs = service_->jobs();
    validate(report.schedule, jobs, rep);
    double execute = 0.0;
    const hs::Simulator simulator(*cluster_, jobs, service_->times());
    const hs::SimResult result = timed(execute, "bench.simulate", [&] {
      return simulator.run(report.schedule);
    });
    phase_end(trace);
    rep.e2e_s = decide + execute;
    account_served(jobs, report, result, rep);
    rep.makespan_s = result.makespan;
    add_switching(result, rep);
    rep.layer["sim.executed_over_planned"] =
        result.weighted_completion / report.objective;
    rep.layer["serve.batches"] = static_cast<double>(report.batches);
    rep.layer["serve.lp_batches"] = static_cast<double>(report.lp_batches);
    rep.layer["serve.flat_batches"] = static_cast<double>(report.flat_batches);
    rep.layer["serve.sharded_batches"] =
        static_cast<double>(report.sharded_batches);
    rep.layer["serve.greedy_batches"] =
        static_cast<double>(report.greedy_batches);
    rep.layer["serve.lp_warm_solves"] =
        static_cast<double>(report.lp.warm_solves);
    rep.layer["serve.lp_cold_solves"] =
        static_cast<double>(report.lp.cold_solves);
    rep.layer["serve.lp_warm_pivots"] =
        static_cast<double>(report.lp.warm_pivots);
    rep.layer["serve.lp_cold_pivots"] =
        static_cast<double>(report.lp.cold_pivots);
    rep.layer["serve.lp_compactions"] =
        static_cast<double>(report.lp.compactions);
    rep.layer["serve.displaced_tasks"] =
        static_cast<double>(report.displaced_tasks);
    rep.layer["serve.continuations"] =
        static_cast<double>(report.continuations);
    return rep;
  }

 private:
  static constexpr std::size_t kGpus = 128;
  static constexpr double kTick = 2.0;
  static constexpr const char* kArrivalSpec =
      "jobs=3000,rate=1,burst=6,burst_prob=0.15,burst_len=8,"
      "rounds_min=0.02,rounds_max=0.08";
  static constexpr const char* kFaultSpec = "gpu_failures=16,mttr=120";

  /// A GPU failure re-enters a job's remaining rounds as a continuation
  /// job named "<original>+r<round>"; the submitted job completes when the
  /// last piece of it does.
  static void account_served(const hw::JobSet& jobs,
                             const hare::serve::ServeReport& report,
                             const hs::SimResult& result, Rep& rep) {
    rep.tally.submitted += report.arrivals;
    if (result.jobs.size() != jobs.job_count()) {
      rep.errors.push_back("replay covers a different job count");
      return;
    }
    std::unordered_map<std::string, std::size_t> original;
    std::vector<double> completion;
    std::vector<const hw::Job*> submitted;
    for (const hw::Job& job : jobs.jobs()) {
      if (job.spec.name.find('+') != std::string::npos) continue;
      original.emplace(job.spec.name, submitted.size());
      submitted.push_back(&job);
      completion.push_back(0.0);
    }
    if (submitted.size() != report.arrivals) {
      rep.errors.push_back("served job set does not hold every arrival");
      return;
    }
    std::vector<char> done(submitted.size(), 1);
    for (const hw::Job& job : jobs.jobs()) {
      const std::string& name = job.spec.name;
      const auto it = original.find(name.substr(0, name.find('+')));
      if (it == original.end()) {
        rep.errors.push_back("continuation without an original: " + name);
        return;
      }
      const hs::JobRecord& record =
          result.jobs[static_cast<std::size_t>(job.id.value())];
      if (record.outcome != hs::JobOutcome::Completed) done[it->second] = 0;
      completion[it->second] =
          std::max(completion[it->second], record.completion);
    }
    for (std::size_t i = 0; i < submitted.size(); ++i) {
      if (!done[i]) continue;
      ++rep.tally.completed;
      const hw::JobSpec& spec = submitted[i]->spec;
      rep.weighted_jct += spec.weight * (completion[i] - spec.arrival);
      rep.weight += spec.weight;
    }
    require_all_finished(rep);
  }

  std::uint64_t seed_;
  std::unique_ptr<hc::Cluster> cluster_;
  hare::fault::FaultPlan faults_;
  std::unique_ptr<hw::TraceStream> stream_;
  std::unique_ptr<hare::serve::ServeService> service_;
};

// --------------------------------------------------------- fault-replay --

/// Offline sharded instances run through FaultRunner with seeded machine
/// and GPU failures, stragglers and cancellations. A repetition replays
/// several independent scenarios: one scenario's few failures decide how
/// much of its plan they displace, and pooling scenarios keeps that draw
/// from setting the number.
class FaultReplay final : public Workload {
 public:
  explicit FaultReplay(std::uint64_t seed) : seed_(seed) {}

  void reset() override {
    planner_.reset();
    scenarios_.clear();
    cluster_.reset();
  }

  void setup() override {
    cluster_ = std::make_unique<hc::Cluster>(
        hc::make_simulation_cluster(kGpus, 25.0, 8, kMachinesPerDomain));
    hw::TraceConfig trace;
    trace.job_count = kJobs;
    trace.base_arrival_rate = 0.5;
    trace.rounds_scale_min = 0.02;
    trace.rounds_scale_max = 0.08;
    // Shards plan on the calling thread: offline-100k is the pooled
    // measurement, and a pool spun up for each of these small plans made
    // the decision time swing ±25% with the host's load.
    hare::fault::FaultRunnerConfig config;
    config.sharded = true;
    config.shard.shards = kShards;
    config.shard.serial = true;
    scenarios_.reserve(kScenarios);
    for (std::size_t k = 0; k < kScenarios; ++k) {
      Scenario& scenario = scenarios_.emplace_back();
      scenario.seed = mix_seed(seed_, k);
      scenario.jobs = hw::TraceGenerator(scenario.seed).generate(trace);
      scenario.config = config;
      scenario.config.spec = hare::fault::parse_fault_spec(
          fault_script(scenario.seed, scenario.jobs));
    }
    planner_ = std::make_unique<hare::shard::HierarchicalPlanner>(config.shard);
  }

  Rep run(TraceCollector* trace) override {
    Rep rep;
    double decide = 0.0;
    double planned = 0.0;
    double executed = 0.0;
    double degradation = 0.0;
    double imbalance = 0.0;
    std::size_t shards_planned = 0;
    std::size_t shards_offered = 0;
    std::map<std::string, double>& layer = rep.layer;
    for (const Scenario& scenario : scenarios_) {
      const hw::JobSet& jobs = scenario.jobs;
      rep.jobs += jobs.job_count();
      double profile = 0.0;
      const hare::profiler::TimeTable times =
          timed(profile, "bench.profile", [&] {
            const hare::profiler::Profiler profiler(hw::PerfModel{}, {},
                                                    scenario.seed);
            return profiler.exact(jobs, *cluster_);
          });
      double plan = 0.0;
      const hs::Schedule schedule = timed(plan, "bench.plan", [&] {
        return planner_->schedule({*cluster_, jobs, times});
      });
      decide += profile + plan;
      layer["shard.migrated_jobs"] +=
          static_cast<double>(planner_->last_plan().migrated_jobs);
      imbalance += planner_->last_plan().imbalance;

      double run = 0.0;
      hare::fault::FaultRunner runner(*cluster_, jobs, times, times,
                                      scenario.config);
      const hare::fault::FaultRunReport report =
          timed(run, "bench.fault_run", [&] { return runner.run(); });
      phase_end(trace);
      rep.e2e_s += profile + run;

      validate(report.schedule, jobs, rep);
      if (!identical(schedule, report.schedule)) {
        rep.errors.push_back("fault runner planned a different baseline");
      }
      const JobTally before = rep.tally;
      account(report.faulted, jobs.job_count(), rep);
      const hs::FaultStats& stats = report.faulted.faults;
      if (rep.tally.dead_lettered - before.dead_lettered !=
          stats.dead_letters) {
        rep.errors.push_back("dead letters disagree with the fault stats");
      }
      rep.makespan_s += report.faulted.makespan / kScenarios;
      planned += report.schedule.predicted_objective;
      executed += report.fault_free.weighted_completion;
      degradation += report.degradation_ratio / kScenarios;
      shards_planned += report.replan_shards_planned;
      shards_offered += report.replan_shards_total;
      layer["fault.replans_full"] += static_cast<double>(report.replans_full);
      layer["fault.replans_greedy"] +=
          static_cast<double>(report.replans_greedy);
      layer["fault.restarts"] += static_cast<double>(stats.restarts);
      layer["fault.dead_letters"] += static_cast<double>(stats.dead_letters);
    }
    const JobTally& t = rep.tally;
    if (t.completed + t.cancelled + t.dead_lettered != t.submitted) {
      rep.errors.push_back("job outcomes do not add up to jobs submitted");
    }
    rep.decide_s.push_back(decide);
    layer["shard.imbalance"] = imbalance / kScenarios;
    layer["exp.workers"] = 1.0;
    layer["sim.executed_over_planned"] = executed / planned;
    layer["fault.replan_shards_planned_frac"] = ratio(
        static_cast<double>(shards_planned), static_cast<double>(shards_offered));
    layer["fault.degradation_ratio"] = degradation;
    return rep;
  }

 private:
  struct Scenario {
    std::uint64_t seed = 0;
    hw::JobSet jobs;
    hare::fault::FaultRunnerConfig config;
  };

  static constexpr std::size_t kScenarios = 4;
  static constexpr std::size_t kJobs = 4000;
  static constexpr std::size_t kGpus = 512;
  static constexpr std::size_t kShards = 4;
  static constexpr std::size_t kMachinesPerDomain = 16;
  static constexpr std::size_t kGpuFailures = 12;
  static constexpr std::size_t kMachineFailures = 1;
  static constexpr std::size_t kStragglers = 2;
  static constexpr std::size_t kCancels = 10;

  /// A scenario's faults as a scripted fault spec drawn from its seed. A
  /// failure displaces every job still queued on the lost GPUs, so
  /// failures land in the last 10% of the arrival span: each then
  /// displaces a bounded share of the plan, and a run's cost and JCT do
  /// not hinge on how early the first failure happens to fall.
  [[nodiscard]] std::string fault_script(std::uint64_t seed,
                                         const hw::JobSet& jobs) const {
    hare::common::Rng rng(seed);
    const double span = jobs.jobs().back().spec.arrival;
    const auto late = [&] { return span * rng.uniform(0.9, 0.99); };
    std::ostringstream out;
    out.precision(10);
    out << "max_retries=1,backoff_base=2,restart_overhead=1,replan_budget=4,"
           "events=(";
    for (std::size_t i = 0; i < kGpuFailures; ++i) {
      const std::uint64_t gpu = rng.uniform_int(cluster_->gpu_count());
      const double t = late();
      out << "fail_gpu:" << gpu << '@' << t << ";recover_gpu:" << gpu << '@'
          << t + 300.0 << ';';
    }
    for (std::size_t i = 0; i < kMachineFailures; ++i) {
      const std::uint64_t machine = rng.uniform_int(cluster_->machine_count());
      const double t = late();
      out << "fail_machine:" << machine << '@' << t << ";recover_machine:"
          << machine << '@' << t + 600.0 << ';';
    }
    for (std::size_t i = 0; i < kStragglers; ++i) {
      const std::uint64_t gpu = rng.uniform_int(cluster_->gpu_count());
      const double t = span * rng.uniform(0.5, 0.95);
      out << "straggle_gpu:" << gpu << '@' << t << '-' << t + 600.0 << ":2;";
    }
    for (std::size_t i = 0; i < kCancels; ++i) {
      const std::uint64_t job = rng.uniform_int(jobs.job_count());
      const double t =
          jobs.job(hare::JobId(static_cast<int>(job))).spec.arrival + 1.0;
      out << "cancel_job:" << job << '@' << t << (i + 1 < kCancels ? ";" : "");
    }
    out << ')';
    return out.str();
  }

  std::uint64_t seed_;
  std::unique_ptr<hc::Cluster> cluster_;
  std::vector<Scenario> scenarios_;
  std::unique_ptr<hare::shard::HierarchicalPlanner> planner_;
};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "offline-100k") return std::make_unique<Offline100k>(seed);
  if (name == "lp-cuts") return std::make_unique<LpCuts>(seed);
  if (name == "serve-faults") return std::make_unique<ServeFaults>(seed);
  if (name == "fault-replay") return std::make_unique<FaultReplay>(seed);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

// ------------------------------------------------------------ metrics --

/// Counters the library keeps live in every run, read after the traced
/// repetition.
const std::vector<std::pair<const char*, const char*>>& counter_metrics() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"profiler.rows_computed", "profiler.rows_computed"},
      {"profiler.memo_hits", "profiler.memo_hits"},
      {"core.tasks_placed", "planner.tasks_placed"},
      {"opt.lp_solves", "planner.lp_solves"},
      {"opt.lp_pivots", "planner.lp_pivots"},
      {"opt.lp_canonical_solves", "planner.lp_canonical_solves"},
      {"opt.cuts_added", "planner.cuts_added"},
      {"sim.events", "sim.events_processed"},
      {"switching.cross_job_switches", "switch.cross_job_switches"},
      {"switching.ctx_warm_hits", "switch.ctx_warm_hits"},
      {"switching.ctx_cold_misses", "switch.ctx_cold_misses"},
  };
  return names;
}

std::map<std::string, double> read_counters() {
  std::map<std::string, double> values;
  for (const auto& [metric, counter] : counter_metrics()) {
    values[metric] = static_cast<double>(obs::counter(counter).value());
  }
  const double sep_total =
      static_cast<double>(obs::counter("planner.sep_tasks_total").value());
  values["opt.sep_resorted_frac"] =
      sep_total > 0.0
          ? static_cast<double>(
                obs::counter("planner.sep_tasks_resorted").value()) /
                sep_total
          : 0.0;
  return values;
}

/// Module that owns a span, by name.
std::string layer_of(std::string_view span) {
  if (span.rfind("planner.lp_", 0) == 0 || span == "planner.separation") {
    return "opt";
  }
  if (span.rfind("planner.", 0) == 0) return "core";
  const std::size_t dot = span.find('.');
  return std::string(span.substr(0, dot));
}

/// Modules whose spans the workloads record (the exp engine's fan-out in
/// the shard planner has no span of its own; see exp.* instead).
const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "bench", "profiler", "core", "opt",   "shard",
      "sim",   "switching", "fault", "serve"};
  return names;
}

struct PerLayerSpec {
  const char* name;
  const char* unit;
};

double span_self(const std::map<std::string, SpanTotals>& totals,
                 const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_s;
}

double span_total(const std::map<std::string, SpanTotals>& totals,
                  const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.inclusive_s;
}

std::vector<Metric> per_layer_metrics(
    const TraceCollector& trace, const Rep& traced,
    const std::map<std::string, double>& counters,
    double untraced_e2e_s) {
  const auto& t = trace.totals();
  std::map<std::string, double> v = counters;
  for (const auto& [name, value] : traced.layer) v[name] = value;

  v["profiler.exact_s"] = span_total(t, "bench.profile");
  v["core.fluid_pass_self_s"] = span_self(t, "planner.fluid_pass");
  v["core.sort_pi_self_s"] = span_self(t, "planner.sort_pi");
  v["core.list_schedule_self_s"] = span_self(t, "planner.list_schedule");
  v["core.middle_completion_self_s"] =
      span_self(t, "planner.middle_completion");
  v["opt.lp_canonical_self_s"] = span_self(t, "planner.lp_canonical");
  v["opt.lp_solve_self_s"] = span_self(t, "planner.lp_solve");
  v["opt.separation_self_s"] = span_self(t, "planner.separation");
  v["serve.run_s"] = span_total(t, "bench.serve");
  v["serve.run_self_s"] = span_self(t, "serve.run");
  v["shard.plan_s"] = span_total(t, "shard.plan");
  v["shard.plan_one_sum_s"] = span_total(t, "shard.plan_one");
  v["shard.assign_self_s"] = span_self(t, "shard.assign");
  v["shard.migrate_self_s"] = span_self(t, "shard.migrate");
  v["shard.replan_pairs_self_s"] = span_self(t, "shard.replan_pairs");
  v["shard.merge_self_s"] = span_self(t, "shard.merge");
  // shard.plan_one runs in two fan-outs: the first plan of every shard and
  // the migration's re-plans of the shards it touched.
  v["exp.parallel_efficiency"] =
      ratio(span_total(t, "shard.plan_one"),
            v["exp.workers"] * (span_total(t, "shard.plan_shards") +
                                span_total(t, "shard.replan_pairs")));
  v["exp.pool_inflation"] = ratio(span_total(t, "shard.plan_one"),
                                  span_total(trace.aside(), "shard.plan_one"));
  v["sim.run_s"] = span_total(t, "sim.run");
  v["sim.events_per_s"] = ratio(v["sim.events"], v["sim.run_s"]);
  v["switching.overhead_frac"] = ratio(traced.switch_s, traced.compute_s);
  v["fault.run_s"] = span_total(t, "bench.fault_run");
  v["fault.replan_self_s"] = span_self(t, "fault.replan");
  v["obs.tracing_overhead"] = ratio(traced.e2e_s, untraced_e2e_s);
  v["obs.dropped_events"] = static_cast<double>(trace.dropped());

  std::map<std::string, double> layer_self;
  for (const std::string& layer : layers()) layer_self[layer] = 0.0;
  for (const auto& [span, totals] : t) {
    layer_self[layer_of(span)] += totals.self_s;
  }
  for (const std::string& layer : layers()) {
    v["layer." + layer + "_self_s"] = layer_self[layer];
  }

  static const std::vector<PerLayerSpec> specs = {
        {"profiler.exact_s", "s"},
        {"profiler.rows_computed", "count"},
        {"profiler.memo_hits", "count"},
        {"core.fluid_pass_self_s", "s"},
        {"core.sort_pi_self_s", "s"},
        {"core.list_schedule_self_s", "s"},
        {"core.middle_completion_self_s", "s"},
        {"core.tasks_placed", "count"},
        {"opt.lp_solves", "count"},
        {"opt.lp_pivots", "count"},
        {"opt.lp_canonical_solves", "count"},
        {"opt.cuts_added", "count"},
        {"opt.sep_resorted_frac", "fraction"},
        {"opt.lp_canonical_self_s", "s"},
        {"opt.lp_solve_self_s", "s"},
        {"opt.separation_self_s", "s"},
        {"serve.run_s", "s"},
        {"serve.batches", "count"},
        {"serve.lp_batches", "count"},
        {"serve.flat_batches", "count"},
        {"serve.sharded_batches", "count"},
        {"serve.greedy_batches", "count"},
        {"serve.lp_warm_solves", "count"},
        {"serve.lp_cold_solves", "count"},
        {"serve.lp_warm_pivots", "count"},
        {"serve.lp_cold_pivots", "count"},
        {"serve.lp_compactions", "count"},
        {"serve.displaced_tasks", "count"},
        {"serve.continuations", "count"},
        {"serve.run_self_s", "s"},
        {"shard.plan_s", "s"},
        {"shard.plan_one_sum_s", "s"},
        {"shard.assign_self_s", "s"},
        {"shard.migrate_self_s", "s"},
        {"shard.replan_pairs_self_s", "s"},
        {"shard.merge_self_s", "s"},
        {"shard.migrated_jobs", "count"},
        {"shard.imbalance", "ratio"},
        {"exp.workers", "count"},
        {"exp.parallel_efficiency", "fraction"},
        {"exp.pool_inflation", "ratio"},
        {"sim.run_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.executed_over_planned", "ratio"},
        {"switching.cross_job_switches", "count"},
        {"switching.ctx_warm_hits", "count"},
        {"switching.ctx_cold_misses", "count"},
        {"switching.overhead_frac", "fraction"},
        {"fault.run_s", "s"},
        {"fault.replans_full", "count"},
        {"fault.replans_greedy", "count"},
        {"fault.restarts", "count"},
        {"fault.dead_letters", "count"},
        {"fault.replan_shards_planned_frac", "fraction"},
        {"fault.degradation_ratio", "ratio"},
        {"fault.replan_self_s", "s"},
        {"obs.tracing_overhead", "ratio"},
        {"obs.dropped_events", "count"},
  };

  std::vector<Metric> metrics;
  for (const PerLayerSpec& spec : specs) {
    metrics.push_back({spec.name, v[spec.name], spec.unit});
  }
  for (const std::string& layer : layers()) {
    const std::string name = "layer." + layer + "_self_s";
    metrics.push_back({name, v[name], "s"});
  }
  return metrics;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "offline-100k", "lp-cuts", "serve-faults", "fault-replay"};
  return names;
}

std::uint64_t default_seed(std::string_view workload) {
  if (workload == "offline-100k") return 6100;
  if (workload == "lp-cuts") return 7700;
  if (workload == "serve-faults") return 4200;
  if (workload == "fault-replay") return 3100;
  throw std::invalid_argument("unknown workload: " + std::string(workload));
}

RunResult run_workload(const Options& options) {
  const std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.seed);
  const auto start = Clock::now();
  // A traced run spends half its time untraced, for the untraced baseline
  // of the tracing overhead, and then runs one traced repetition.
  const double budget = options.trace ? 0.5 * options.seconds : options.seconds;
  const std::size_t min_reps = options.trace ? 1 : 3;
  constexpr std::size_t kMinSetups = 5;
  constexpr std::size_t kMaxSetups = 200;
  constexpr double kSetupSeconds = 0.5;

  const auto set_up = [&] {
    workload->reset();
    workload->setup();
  };

  RunResult out;
  std::vector<double> decide_s;
  std::vector<double> e2e_s;
  std::vector<double> mean_jct_s;
  std::vector<double> makespan_s;
  std::map<std::uint64_t, Rep> seen;  ///< first repetition of each instance
  std::uint64_t jobs = 0;
  std::size_t reps = 0;
  double rep_seconds = 0.0;
  while (reps < min_reps ||
         seconds_since(start) + rep_seconds / static_cast<double>(reps) <=
             budget) {
    const auto rep_start = Clock::now();
    set_up();
    Rep rep = workload->run(nullptr);
    // Hand freed memory back to the system so a repetition's peak RSS is
    // its own, not what earlier repetitions left in per-thread arenas.
    malloc_trim(0);
    ++reps;
    rep_seconds += seconds_since(rep_start);

    out.tally.submitted += rep.tally.submitted;
    const auto [earlier, fresh] = seen.try_emplace(rep.instance);
    if (!fresh && (rep.weighted_jct != earlier->second.weighted_jct ||
                   rep.makespan_s != earlier->second.makespan_s ||
                   rep.jobs != earlier->second.jobs)) {
      rep.errors.push_back("repetitions of one instance executed differently");
    }
    if (jobs != 0 && rep.jobs != jobs) {
      rep.errors.push_back("repetitions decided different job counts");
    }
    jobs = rep.jobs;
    if (rep.errors.empty()) {
      out.tally.completed += rep.tally.completed;
      out.tally.cancelled += rep.tally.cancelled;
      out.tally.dead_lettered += rep.tally.dead_lettered;
    } else {
      out.tally.check_failed += rep.tally.submitted;
      for (const std::string& e : rep.errors) out.errors.push_back(e);
    }
    std::fprintf(stderr, "rep %zu: decide", reps);
    for (const double d : rep.decide_s) std::fprintf(stderr, " %.4f", d);
    std::fprintf(stderr, " s, e2e %.4f s\n", rep.e2e_s);
    decide_s.insert(decide_s.end(), rep.decide_s.begin(), rep.decide_s.end());
    e2e_s.push_back(rep.e2e_s);
    mean_jct_s.push_back(ratio(rep.weighted_jct, rep.weight));
    makespan_s.push_back(rep.makespan_s);
    if (fresh) earlier->second = std::move(rep);
  }
  out.correct = out.errors.empty();

  const double e2e = median(e2e_s);
  if (!options.trace) {
    // Set-up is timed back to back after the repetitions, once the
    // allocator holds memory from an earlier instance: a cold set-up's
    // page faults swing with the host's memory load, not with the code.
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < kMinSetups ||
           (setup_total < kSetupSeconds && setup_s.size() < kMaxSetups)) {
      workload->reset();
      const auto t0 = Clock::now();
      workload->setup();
      setup_s.push_back(seconds_since(t0));
      setup_total += setup_s.back();
    }
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) sum += x;
      return sum / static_cast<double>(v.size());
    };
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"plan_jobs_per_s", static_cast<double>(jobs) / median(decide_s),
         "jobs/s"},
        {"e2e_jobs_per_s", static_cast<double>(jobs) / e2e, "jobs/s"},
        {"mean_jct_s", mean(mean_jct_s), "s"},
        {"makespan_s", mean(makespan_s), "s"},
        {"completed_frac", 1.0 - failed_frac(out.tally), "fraction"},
        {"peak_rss_mb",
         static_cast<double>(hare::common::peak_rss_bytes()) / (1024.0 * 1024.0),
         "MB"},
    };
    return out;
  }

  set_up();
  TraceCollector trace;
  workload->reference(trace);
  obs::Registry::instance().reset();
  const Rep traced = workload->run(&trace);
  const std::map<std::string, double> counters = read_counters();
  out.tally.submitted += traced.tally.submitted;
  if (!traced.errors.empty()) out.tally.check_failed += traced.tally.submitted;
  for (const std::string& e : traced.errors) out.errors.push_back(e);
  out.correct = out.errors.empty();
  out.metrics = per_layer_metrics(trace, traced, counters, e2e);
  return out;
}

}  // namespace perfbench
