// The tracing/metrics layer: instrument semantics, the Chrome-trace
// document shape, the zero-overhead-when-off guarantee, and the workflow
// contract that RunSummary totals are *derived views* of the metrics
// registry — bit-identical to the ad-hoc sums they replaced, with the
// trace file's span arguments carrying the same exact numbers.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "analytics/analyzer.hpp"
#include "core/a4nn.hpp"
#include "sched/resource_manager.hpp"
#include "util/fsutil.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace a4nn::util {
namespace {

namespace trace = util::trace;
namespace metrics = util::metrics;

// Restores the process-wide trace recorder to "off, empty" no matter how a
// test exits, so suites never leak tracing state into each other.
struct TraceGuard {
  ~TraceGuard() {
    trace::stop();
    trace::clear();
  }
};

TEST(Metrics, CounterAccumulatesAndResets) {
  metrics::Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Metrics, GaugeSetAndHighWater) {
  metrics::Gauge g;
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.update_max(2.0);  // below the current value: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.update_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramClampsIntoEdgeBins) {
  metrics::Histogram h(0.0, 10.0, 5);
  h.observe(-3.0);   // clamps into bin 0
  h.observe(0.5);    // bin 0
  h.observe(5.0);    // bin 2
  h.observe(100.0);  // clamps into bin 4
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
}

TEST(Metrics, RegistryReturnsStableInstruments) {
  metrics::Registry reg;
  metrics::Counter& a = reg.counter("x");
  a.add(2.0);
  // Same name → same instrument, so increments land in one accumulator.
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_DOUBLE_EQ(reg.counter("x").value(), 2.0);
  metrics::Histogram& h = reg.histogram("lat", 0.0, 1.0, 4);
  // Re-requesting with a different shape still returns the original.
  EXPECT_EQ(&reg.histogram("lat", 0.0, 99.0, 17), &h);
}

TEST(Metrics, QuantilesMatchAKnownDistribution) {
  // 100 observations 0.5, 1.5, ..., 99.5 into 100 unit-wide bins over
  // [0, 100]: one count per bin, so the interpolated q-quantile is exactly
  // 100q and every estimate is exact, not just bin-accurate.
  metrics::Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.observe(i + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // q=0 sits at the bottom of the first occupied bin.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);

  // Skewed distribution: 90 fast requests in [0,10), 10 slow in [90,100).
  // The median lands in the fast band, p99 deep in the slow tail.
  metrics::Histogram skew(0.0, 100.0, 100);
  for (int i = 0; i < 90; ++i) skew.observe(5.0);
  for (int i = 0; i < 10; ++i) skew.observe(95.0);
  EXPECT_NEAR(skew.quantile(0.50), 5.5, 1.0);   // within the [5,6) bin
  EXPECT_NEAR(skew.quantile(0.95), 95.5, 1.0);  // within the [95,96) bin
  EXPECT_GT(skew.quantile(0.99), 95.0);
  EXPECT_LE(skew.quantile(0.99), 96.0);

  // Empty histogram answers lo (a server that has seen no traffic).
  metrics::Histogram empty(2.0, 8.0, 4);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 2.0);
}

TEST(Metrics, SnapshotCarriesQuantiles) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.histogram("serve.latency_ms", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.observe(i + 0.5);
  const Json snap = reg.snapshot();
  const Json& hj = snap.at("histograms").at("serve.latency_ms");
  EXPECT_DOUBLE_EQ(hj.at("p50").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(hj.at("p95").as_number(), 9.5);
  EXPECT_DOUBLE_EQ(hj.at("p99").as_number(), 9.9);
}

TEST(Metrics, SnapshotSerializesEveryInstrumentKind) {
  metrics::Registry reg;
  reg.counter("jobs").add(7.0);
  reg.gauge("high_water").set(1.5);
  reg.histogram("lat", 0.0, 2.0, 2).observe(0.5);

  const Json snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("counters").at("jobs").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("high_water").as_number(), 1.5);
  const Json& lat = snap.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(lat.at("lo").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(lat.at("hi").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(lat.at("counts").at(0).as_number(), 1.0);

  reg.reset();
  const Json zero = reg.snapshot();
  // Names survive a reset (dashboards keep their rows); values zero out.
  EXPECT_DOUBLE_EQ(zero.at("counters").at("jobs").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(zero.at("gauges").at("high_water").as_number(), 0.0);
}

TEST(Trace, DisabledRecorderIsInert) {
  TraceGuard guard;
  trace::clear();
  ASSERT_FALSE(trace::enabled());
  EXPECT_DOUBLE_EQ(trace::now_us(), 0.0);
  {
    trace::Scope scope("never.recorded", "test");
    scope.arg("x", 1.0);
  }
  trace::emit_instant("dropped", "test", 0.0, trace::kHostPid, 0);
  trace::emit_complete("dropped", "test", 0.0, 1.0, trace::kHostPid, 0);
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST(Trace, RecordsSpansAndSerializesChromeTraceJson) {
  TraceGuard guard;
  trace::clear();
  trace::start();
  ASSERT_TRUE(trace::enabled());
  trace::name_process(trace::kHostPid, "test host");
  {
    trace::Scope outer("outer", "test");
    outer.arg("answer", 42.0);
    trace::Scope inner("inner", "test");
  }
  trace::emit_instant("tick", "test", 5.0, trace::kVirtualPid, 0,
                      {{"job", 3.0}});
  trace::stop();
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(trace::event_count(), 3u);  // outer + inner + tick, not metadata

  Json extra = Json::object();
  extra["metrics"] = Json::object();
  const Json doc = trace::to_json(&extra);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_TRUE(doc.contains("metrics"));  // extra top-level keys merged in
  const JsonArray& events = doc.at("traceEvents").as_array();

  std::map<std::string, const Json*> by_name;
  for (const Json& e : events) by_name[e.at("name").as_string()] = &e;
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner"));
  ASSERT_TRUE(by_name.count("tick"));
  ASSERT_TRUE(by_name.count("process_name"));  // metadata from name_process

  const Json& outer = *by_name["outer"];
  EXPECT_EQ(outer.at("ph").as_string(), "X");
  EXPECT_EQ(outer.at("pid").as_int(), trace::kHostPid);
  EXPECT_DOUBLE_EQ(outer.at("args").at("answer").as_number(), 42.0);
  const Json& inner = *by_name["inner"];
  // RAII nesting: the inner span starts no earlier and ends no later.
  EXPECT_GE(inner.at("ts").as_number(), outer.at("ts").as_number());
  EXPECT_LE(inner.at("ts").as_number() + inner.at("dur").as_number(),
            outer.at("ts").as_number() + outer.at("dur").as_number());
  const Json& tick = *by_name["tick"];
  EXPECT_EQ(tick.at("ph").as_string(), "i");
  EXPECT_EQ(tick.at("pid").as_int(), trace::kVirtualPid);
  EXPECT_DOUBLE_EQ(tick.at("args").at("job").as_number(), 3.0);

  // The document round-trips through the parser (what check_trace.py and
  // chrome://tracing will read).
  EXPECT_EQ(Json::parse(doc.dump(1)).at("traceEvents").size(), events.size());

  trace::clear();
  EXPECT_EQ(trace::event_count(), 0u);
}

// One call counts and traces: the instant carries the counter's name, the
// name's prefix as category, and the caller's lane and arguments; declared
// names reach both the registry and the trace document from zero.
TEST(Trace, CountBumpsTheCounterAndEmitsItsInstant) {
  TraceGuard guard;
  trace::clear();
  metrics::Registry reg;
  static constexpr const char* kNames[] = {"demo.hits", "demo.misses"};
  metrics::declare(reg, kNames);
  metrics::count(reg, "demo.hits", trace::kClusterPid, 2);  // tracing off
  EXPECT_EQ(trace::event_count(), 0u);

  trace::start();
  metrics::count(reg, "demo.hits", trace::kClusterPid, 2, {{"model_id", 7.0}});
  trace::stop();
  EXPECT_DOUBLE_EQ(reg.counter("demo.hits").value(), 2.0);

  const Json doc = trace::to_json();
  const JsonArray& counted = doc.at("counted").as_array();
  ASSERT_EQ(counted.size(), 2u);
  EXPECT_EQ(counted[0].as_string(), "demo.hits");
  EXPECT_EQ(counted[1].as_string(), "demo.misses");
  EXPECT_DOUBLE_EQ(
      reg.snapshot().at("counters").at("demo.misses").as_number(), 0.0);
  std::size_t instants = 0;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() != "demo.hits") continue;
    ++instants;
    EXPECT_EQ(e.at("ph").as_string(), "i");
    EXPECT_EQ(e.at("cat").as_string(), "demo");
    EXPECT_EQ(e.at("pid").as_int(), trace::kClusterPid);
    EXPECT_EQ(e.at("tid").as_int(), 2);
    EXPECT_DOUBLE_EQ(e.at("args").at("model_id").as_number(), 7.0);
  }
  EXPECT_EQ(instants, 1u);  // only the bump made while tracing was on
}

// The virtual-timeline spans carry the scheduler's exact accounting: the
// "job N" span on each GPU lane holds that placement's final retry count
// and wasted seconds, and the fault events mirror the schedule's fault
// tallies one-for-one.
TEST(Trace, SchedulerSpanArgsMatchScheduleExactly) {
  TraceGuard guard;
  sched::ClusterConfig cfg;
  cfg.num_gpus = 3;
  cfg.parallel_execution = false;
  cfg.fault.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.transient_failure_prob = 0.35;
  cfg.fault.permanent_failure_prob = 0.3;
  cfg.fault.job_crash_prob = 0.2;
  cfg.fault.straggler_prob = 0.3;
  cfg.fault.backoff_base_seconds = 2.0;
  sched::ResourceManager cluster(cfg);

  std::vector<sched::Job> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back(sched::Job{[i] { return 10.0 + i; }});

  trace::clear();
  trace::start();
  const sched::GenerationSchedule schedule =
      cluster.run_generation(std::move(jobs));
  trace::stop();
  // This seed must actually exercise the fault machinery.
  ASSERT_GT(schedule.total_retries, 0u);

  const Json doc = trace::to_json();
  std::map<int, const Json*> job_spans;
  std::size_t fault_events = 0;
  std::size_t quarantine_events = 0;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M") continue;  // lane-name metadata
    if (e.at("pid").as_int() != trace::kVirtualPid) continue;
    const std::string& name = e.at("name").as_string();
    const std::string& cat = e.at("cat").as_string();
    if (cat == "sched" && e.at("ph").as_string() == "X") {
      job_spans[static_cast<int>(e.at("args").at("job").as_number())] = &e;
    } else if (name == "fault.transient" || name == "fault.crash") {
      ++fault_events;
    } else if (name == "quarantine") {
      ++quarantine_events;
    }
  }

  ASSERT_EQ(job_spans.size(), schedule.placements.size());
  std::size_t span_retries = 0;
  double span_wasted = 0.0;
  for (std::size_t job = 0; job < schedule.placements.size(); ++job) {
    const sched::JobPlacement& p = schedule.placements[job];
    const Json& span = *job_spans.at(static_cast<int>(job));
    EXPECT_EQ(span.at("tid").as_int(), p.device_id);
    // Virtual seconds → trace microseconds, exact per placement.
    EXPECT_DOUBLE_EQ(span.at("ts").as_number(), p.start_seconds * 1e6);
    EXPECT_DOUBLE_EQ(span.at("dur").as_number(), p.duration_seconds * 1e6);
    EXPECT_DOUBLE_EQ(span.at("args").at("retries").as_number(),
                     static_cast<double>(p.retries));
    EXPECT_DOUBLE_EQ(span.at("args").at("wasted_seconds").as_number(),
                     p.wasted_seconds);
    span_retries += static_cast<std::size_t>(
        span.at("args").at("retries").as_number());
    span_wasted += span.at("args").at("wasted_seconds").as_number();
  }
  // Summed in placement order — the same order fault_totals walks — the
  // span args reproduce the generation totals bit-for-bit.
  EXPECT_EQ(span_retries, schedule.total_retries);
  EXPECT_EQ(span_wasted, schedule.wasted_seconds);
  EXPECT_EQ(fault_events, schedule.transient_faults + schedule.job_crashes);
  EXPECT_EQ(quarantine_events, schedule.newly_quarantined.size());
}

core::WorkflowConfig faulty_workflow_config() {
  core::WorkflowConfig cfg;
  cfg.dataset.images_per_class = 30;
  cfg.dataset.detector.pixels = 8;
  cfg.dataset.intensity = xfel::BeamIntensity::kHigh;
  cfg.nas.population_size = 3;
  cfg.nas.offspring_per_generation = 3;
  cfg.nas.generations = 2;
  cfg.nas.max_epochs = 6;
  cfg.nas.space.input_shape = {1, 8, 8};
  cfg.nas.space.stem_channels = 4;
  cfg.trainer.max_epochs = 6;
  cfg.trainer.engine.e_pred = 6.0;
  cfg.cluster.num_gpus = 2;
  cfg.cluster.fault.enabled = true;
  cfg.cluster.fault.transient_failure_prob = 0.3;
  cfg.cluster.fault.job_crash_prob = 0.15;
  cfg.cluster.fault.straggler_prob = 0.3;
  cfg.cluster.fault.backoff_base_seconds = 2.0;
  return cfg;
}

// The acceptance contract of the metrics layer: RunSummary's fault and
// engine-overhead numbers are read back from the registry, and they equal
// the ad-hoc walks they replaced bit-for-bit — no tolerance.
TEST(WorkflowMetrics, SummaryTotalsAreBitExactDerivedViews) {
  TraceGuard guard;
  trace::clear();
  trace::start();
  core::A4nnWorkflow workflow(faulty_workflow_config());
  const core::WorkflowResult result = workflow.run();
  trace::stop();

  // Both fault_totals overloads — the schedule walk and the registry
  // read-back — must agree on every field.
  const analytics::FaultTotals walked = analytics::fault_totals(
      std::span<const sched::GenerationSchedule>(result.schedules));
  ASSERT_GT(walked.retries, 0u);  // the injection actually fired
  EXPECT_EQ(result.summary.faults.total_jobs, walked.total_jobs);
  EXPECT_EQ(result.summary.faults.retries, walked.retries);
  EXPECT_EQ(result.summary.faults.transient_faults, walked.transient_faults);
  EXPECT_EQ(result.summary.faults.job_crashes, walked.job_crashes);
  EXPECT_EQ(result.summary.faults.straggler_events, walked.straggler_events);
  EXPECT_EQ(result.summary.faults.permanent_device_failures,
            walked.permanent_device_failures);
  EXPECT_EQ(result.summary.faults.failed_jobs, walked.failed_jobs);
  EXPECT_EQ(result.summary.faults.wasted_virtual_seconds,
            walked.wasted_virtual_seconds);

  // Engine overhead: the counter accumulates per record, in history order,
  // so it bit-matches this sum.
  double overhead = 0.0;
  for (const auto& record : result.search.history)
    overhead += record.engine_overhead_seconds;
  EXPECT_EQ(result.summary.engine_overhead_seconds, overhead);
  ASSERT_GT(overhead, 0.0);

  // The snapshot itself carries the raw counters the views derive from.
  const Json& counters = result.summary.metrics.at("counters");
  EXPECT_DOUBLE_EQ(counters.at("nas.evaluations").as_number(),
                   static_cast<double>(result.search.history.size()));
  EXPECT_DOUBLE_EQ(counters.at("sched.jobs").as_number(),
                   static_cast<double>(walked.total_jobs));
  EXPECT_DOUBLE_EQ(counters.at("train.models").as_number(),
                   static_cast<double>(result.search.history.size()));
  EXPECT_GT(counters.at("train.epochs").as_number(), 0.0);
  EXPECT_GT(counters.at("penguin.fits").as_number(), 0.0);
  EXPECT_EQ(result.summary.failed_evaluations, 0u);

  // The trace's per-record accounting instants are emitted in history
  // order, so their engine-overhead args sum to the same exact total.
  const Json doc = trace::to_json();
  double instant_overhead = 0.0;
  std::size_t accounting_events = 0;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() != "record.accounting") continue;
    ++accounting_events;
    instant_overhead += e.at("args").at("engine_overhead_seconds").as_number();
  }
  EXPECT_EQ(accounting_events, result.search.history.size());
  EXPECT_EQ(instant_overhead, result.summary.engine_overhead_seconds);
}

// Trace-off runs must still produce the metrics block — observability is
// not allowed to depend on tracing being switched on.
TEST(WorkflowMetrics, MetricsBlockExistsWithTracingOff) {
  ASSERT_FALSE(trace::enabled());
  core::WorkflowConfig cfg = faulty_workflow_config();
  cfg.cluster.fault.enabled = false;
  cfg.nas.generations = 1;
  core::A4nnWorkflow workflow(cfg);
  const core::WorkflowResult result = workflow.run();
  EXPECT_EQ(trace::event_count(), 0u);
  const Json& counters = result.summary.metrics.at("counters");
  EXPECT_DOUBLE_EQ(counters.at("nas.evaluations").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(counters.at("sched.jobs").as_number(), 3.0);
  const util::Json j = result.summary.to_json();
  EXPECT_TRUE(j.contains("metrics"));
  EXPECT_TRUE(j.at("metrics").contains("counters"));
}

/// A TrainingLoop whose jobs for chosen model ids throw on every attempt
/// (the permanently failing job of test_phantom_records).
class FlakyLoop : public orchestrator::TrainingLoop {
 public:
  using TrainingLoop::TrainingLoop;

  nas::EvaluationRecord train_genome(const nas::Genome& genome,
                                     const nas::SearchSpaceConfig& space,
                                     int model_id,
                                     std::uint64_t seed) const override {
    if (poisoned.count(model_id))
      throw std::runtime_error("injected permanent failure");
    return TrainingLoop::train_genome(genome, space, model_id, seed);
  }

  std::set<int> poisoned;
};

struct CountedRun {
  nas::SearchResult search;
  core::RunSummary summary;
  std::size_t commons_records = 0;
};

/// One search with memo on, duplicates allowed, coalescing, optional
/// weight inheritance and resume, and model 1 failing permanently; its
/// summary is filled from the registry exactly as A4nnWorkflow::run() does.
CountedRun counted_run(const xfel::XfelDataset& data,
                       const std::filesystem::path& root, bool inherit,
                       bool resume) {
  nas::NsgaNetConfig nas_cfg;
  nas_cfg.population_size = 6;
  nas_cfg.offspring_per_generation = 6;
  nas_cfg.generations = 3;
  nas_cfg.max_epochs = 4;
  nas_cfg.allow_duplicates = true;
  // Model 1's genome is never trained again by a later model under this
  // seed. Were it, the warm memo would serve model 1 on resume (the failure
  // is injected by model id, not by genome) and the resumed search would
  // legitimately leave the original's path.
  nas_cfg.seed = 1;
  nas_cfg.space.phase_count = 2;
  nas_cfg.space.nodes_per_phase = 2;
  nas_cfg.space.input_shape = {1, 8, 8};
  nas_cfg.space.stem_channels = 4;
  nas_cfg.space.classes = data.train.num_classes();
  orchestrator::TrainerConfig trainer;
  trainer.max_epochs = 4;
  trainer.batch_size = 16;
  trainer.engine.e_pred = 4.0;
  trainer.inherit_weights = inherit;
  trainer.inherit_epoch_fraction = 0.5;

  metrics::Registry registry;
  lineage::LineageTracker tracker({root, 1});
  FlakyLoop loop(data.train, data.validation, trainer, &tracker);
  loop.poisoned = {1};
  sched::ClusterConfig cluster_cfg;
  cluster_cfg.num_gpus = 2;
  sched::ResourceManager cluster(cluster_cfg);
  nas::FitnessMemo memo(nas::MemoMode::kOn);
  orchestrator::WorkflowEvaluator evaluator(loop, cluster, nas_cfg.space, 5,
                                            &tracker);
  evaluator.set_metrics(&registry);
  evaluator.set_memo(&memo);
  evaluator.set_coalesce(true);
  CountedRun out;
  if (resume) {
    std::vector<nas::EvaluationRecord> stored =
        lineage::DataCommons(root).load_records();
    out.commons_records = stored.size();
    memo.warm(stored);
    evaluator.preload_records(std::move(stored));
  }
  nas::NsgaNetSearch search(nas_cfg, evaluator);
  out.search = search.run();
  out.summary.read_metrics(registry.snapshot());
  return out;
}

/// RunSummary's counts are registry reads; the history's flags are the
/// ground truth they must agree with.
void expect_counts_match_history(const CountedRun& run) {
  std::size_t replayed = 0, coalesced = 0, inherited = 0, failed = 0;
  for (const auto& r : run.search.history) {
    if (r.replayed) ++replayed;
    if (r.coalesced && !r.failed) ++coalesced;
    if (r.inherited_from_model >= 0 && !r.replayed) ++inherited;
    if (r.failed) ++failed;
  }
  EXPECT_EQ(run.summary.memo_hits, replayed);
  EXPECT_EQ(run.summary.coalesced_evaluations, coalesced);
  EXPECT_EQ(run.summary.inherited_starts, inherited);
  EXPECT_EQ(run.summary.failed_evaluations, failed);
}

TEST(WorkflowMetrics, SummaryCountsEqualAWalkOverTheHistory) {
  xfel::XfelDatasetConfig data_cfg;
  data_cfg.images_per_class = 12;
  data_cfg.detector.pixels = 8;
  data_cfg.intensity = xfel::BeamIntensity::kHigh;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(data_cfg);

  // A warm-starting child never takes a memo hit or joins a coalesced
  // group, so inheritance on leaves those paths idle: run both ways so
  // every count is non-zero in at least one of the two.
  for (const bool inherit : {true, false}) {
    SCOPED_TRACE(inherit ? "inheritance on" : "inheritance off");
    const std::filesystem::path root = util::make_temp_dir("a4nn_counts");
    const CountedRun first = counted_run(data, root, inherit, false);
    expect_counts_match_history(first);
    EXPECT_EQ(first.summary.failed_evaluations, 1u);
    EXPECT_EQ(first.summary.resumed_evaluations, 0u);
    if (inherit) {
      EXPECT_GT(first.summary.inherited_starts, 0u);
    } else {
      EXPECT_GT(first.summary.memo_hits, 0u);
      EXPECT_GT(first.summary.coalesced_evaluations, 0u);
    }

    // Resume from the commons. The failure never reached it, so all N
    // records it holds are reused and only the failed job runs again.
    const CountedRun resumed = counted_run(data, root, inherit, true);
    expect_counts_match_history(resumed);
    const std::size_t n = first.search.history.size() - 1;
    EXPECT_EQ(resumed.commons_records, n);
    EXPECT_EQ(resumed.summary.resumed_evaluations, n);
    EXPECT_EQ(resumed.summary.genome_mismatches, 0u);
    EXPECT_EQ(resumed.summary.failed_evaluations, 1u);
    std::filesystem::remove_all(root);
  }
}

}  // namespace
}  // namespace a4nn::util
