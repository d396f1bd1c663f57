#include "core/a4nn.hpp"

#include <type_traits>

#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace a4nn::core {

util::Json WorkflowConfig::to_json() const {
  util::Json j = util::Json::object();
  util::Json ds = util::Json::object();
  ds["intensity"] = xfel::beam_name(dataset.intensity);
  ds["fluence"] = xfel::beam_fluence(dataset.intensity);
  ds["images_per_class"] = dataset.images_per_class;
  ds["conformations"] = dataset.conformations;
  ds["detector_pixels"] = dataset.detector.pixels;
  ds["train_fraction"] = dataset.train_fraction;
  ds["seed"] = dataset.seed;
  j["dataset"] = std::move(ds);
  j["nas"] = nas.to_json();
  j["trainer"] = trainer.to_json();
  util::Json cl = util::Json::object();
  cl["num_gpus"] = cluster.num_gpus;
  cl["flops_per_second"] = cluster.cost.flops_per_second;
  cl["fault"] = cluster.fault.to_json();
  j["cluster"] = std::move(cl);
  j["memo"] = std::string(nas::memo_mode_name(memo));
  // Conditional keys: default runs (flops objective, no coalescing) keep
  // their historical config bytes — and therefore the cluster handshake
  // CRC — unchanged. Non-default modes change the CRC on purpose: master
  // and workers must agree on the objective before sharing a search.
  if (coalesce_duplicates) j["coalesce"] = true;
  if (nas.objective != nas::ObjectiveMode::kFlops) {
    util::Json pr = util::Json::object();
    pr["batch"] = probe.batch;
    pr["warmup"] = probe.warmup;
    pr["repeats"] = probe.repeats;
    pr["seed"] = probe.seed;
    j["probe"] = std::move(pr);
  }
  j["seed"] = seed;
  return j;
}

util::Json ClusterTotals::to_json() const {
  util::Json j = util::Json::object();
  j["remote_jobs"] = remote_jobs;
  j["remote_fallbacks"] = remote_fallbacks;
  j["dispatches"] = dispatches;
  j["redispatches"] = redispatches;
  j["worker_failures"] = worker_failures;
  j["worker_quarantines"] = worker_quarantines;
  j["heartbeat_timeouts"] = heartbeat_timeouts;
  j["stale_results"] = stale_results;
  j["corrupt_frames"] = corrupt_frames;
  j["corrupt_results"] = corrupt_results;
  j["local_fallbacks"] = local_fallbacks;
  return j;
}

namespace {

/// The one name -> field table: every RunSummary field that is a view of a
/// registry counter, visited as f(counter name, field).
template <class F>
void for_each_counted_field(RunSummary& s, F&& f) {
  f("nas.failed_evaluations", s.failed_evaluations);
  f("nas.resumed_evaluations", s.resumed_evaluations);
  f("nas.genome_mismatches", s.genome_mismatches);
  f("nas.memo_hits", s.memo_hits);
  f("nas.inherited_evaluations", s.inherited_starts);
  f("nas.coalesced", s.coalesced_evaluations);
  f("latency.probes", s.latency_probes);
  f("penguin.engine_overhead_seconds", s.engine_overhead_seconds);
  f("penguin.engine_overhead_replayed_seconds",
    s.engine_overhead_replayed_seconds);
  f("penguin.engine_overhead_coalesced_seconds",
    s.engine_overhead_coalesced_seconds);
  ClusterTotals& c = s.cluster;
  f("sched.remote_jobs", c.remote_jobs);
  f("sched.remote_fallbacks", c.remote_fallbacks);
  f("cluster.dispatches", c.dispatches);
  f("cluster.redispatches", c.redispatches);
  f("cluster.worker_failures", c.worker_failures);
  f("cluster.worker_quarantines", c.worker_quarantines);
  f("cluster.heartbeat_timeouts", c.heartbeat_timeouts);
  f("cluster.stale_results", c.stale_results);
  f("cluster.corrupt_frames", c.corrupt_frames);
  f("cluster.corrupt_results", c.corrupt_results);
  f("cluster.local_fallbacks", c.local_fallbacks);
}

}  // namespace

void RunSummary::read_metrics(util::Json snapshot) {
  metrics = std::move(snapshot);
  faults = analytics::fault_totals(metrics);
  const util::Json none;
  const util::Json& counters =
      metrics.contains("counters") ? metrics.at("counters") : none;
  for_each_counted_field(*this, [&counters](const char* name, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    field = static_cast<T>(counters.number_or(name, 0.0));
  });
}

util::Json RunSummary::to_json() const {
  util::Json j = util::Json::object();
  j["faults"] = faults.to_json();
  j["failed_evaluations"] = failed_evaluations;
  j["engine_overhead_seconds"] = engine_overhead_seconds;
  j["metrics"] = metrics;
  j["resumed_evaluations"] = resumed_evaluations;
  j["resumed_epochs"] = resumed_epochs;
  j["genome_mismatches"] = genome_mismatches;
  j["fsck_quarantined"] = fsck_quarantined;
  j["fsck_tmp_removed"] = fsck_tmp_removed;
  j["fsck_crc_mismatches"] = fsck_crc_mismatches;
  j["fsck_journal_repairs"] = fsck_journal_repairs;
  j["memo_hits"] = memo_hits;
  j["inherited_starts"] = inherited_starts;
  j["engine_overhead_replayed_seconds"] = engine_overhead_replayed_seconds;
  j["coalesced_evaluations"] = coalesced_evaluations;
  j["engine_overhead_coalesced_seconds"] = engine_overhead_coalesced_seconds;
  j["latency_probes"] = latency_probes;
  j["cluster"] = cluster.to_json();
  return j;
}

A4nnWorkflow::A4nnWorkflow(WorkflowConfig config)
    : config_(std::move(config)),
      owned_data_(xfel::generate_xfel_dataset(config_.dataset)),
      data_(&*owned_data_) {}

A4nnWorkflow::A4nnWorkflow(WorkflowConfig config,
                           const xfel::XfelDataset& shared_data)
    : config_(std::move(config)), data_(&shared_data) {}

WorkflowResult A4nnWorkflow::run() {
  util::Timer wall;
  // Keep the trainer's virtual cost model consistent with the cluster's,
  // and the classifier head consistent with the dataset's class count.
  config_.trainer.cost = config_.cluster.cost;
  config_.nas.space.classes = data_->train.num_classes();
  // The fault injector inherits the workflow seed unless pinned, so a
  // faulty run replays bit-identically without extra configuration.
  if (config_.cluster.fault.enabled && config_.cluster.fault.seed == 0)
    config_.cluster.fault.seed = config_.seed;

  WorkflowResult result;
  // Declared before every component that records into it, so the registry
  // outlives them all. One registry per run: two workflows in one process
  // never share totals.
  util::metrics::Registry registry;
  util::trace::Scope run_span("workflow.run", "core");
  if (util::trace::enabled())
    util::trace::name_process(util::trace::kHostPid, "a4nn host");

  const bool resuming = config_.resume_from_commons && config_.lineage;
  if (resuming) {
    // A crashed writer can leave truncated or corrupt state behind; the
    // deep fsck checks every artifact against the manifest journal now so
    // a record that parses but fails its CRC is never replayed into the
    // Pareto front. Partially-trained models then continue from their
    // newest intact epoch checkpoint.
    std::error_code ec;
    if (std::filesystem::exists(config_.lineage->root / "models", ec)) {
      lineage::DataCommons commons(config_.lineage->root);
      const lineage::FsckReport fsck = commons.fsck(lineage::FsckMode::kDeep);
      result.summary.fsck_quarantined = fsck.files_quarantined;
      result.summary.fsck_tmp_removed = fsck.tmp_files_removed;
      result.summary.fsck_crc_mismatches = fsck.integrity.crc_mismatches;
      result.summary.fsck_journal_repairs = fsck.integrity.journal_torn_lines +
                                            fsck.integrity.missing_files +
                                            fsck.integrity.unjournaled_adopted;
      if (!fsck.clean())
        util::log_warn("resume: fsck quarantined ", fsck.files_quarantined,
                       " file(s), removed ", fsck.tmp_files_removed,
                       " stale tmp file(s), repaired ",
                       result.summary.fsck_journal_repairs,
                       " journal entr(ies)");
    }
    config_.trainer.resume_partial = true;
  }

  std::optional<lineage::LineageTracker> tracker;
  if (config_.lineage) {
    tracker.emplace(*config_.lineage);
    tracker->set_metrics(&registry);
    tracker->record_search_config(config_.to_json());
  }

  orchestrator::TrainingLoop loop(data_->train, data_->validation,
                                  config_.trainer,
                                  tracker ? &*tracker : nullptr);
  loop.set_metrics(&registry);
  // The remote backend (cluster master) outlives this run but the registry
  // does not: detach on every exit path, including WorkflowInterrupted.
  struct RemoteMetricsGuard {
    sched::RemoteExecutor* remote;
    ~RemoteMetricsGuard() {
      if (remote) remote->set_metrics(nullptr);
    }
  } remote_guard{config_.cluster.remote};
  if (config_.cluster.remote) config_.cluster.remote->set_metrics(&registry);
  sched::ResourceManager cluster(config_.cluster);
  cluster.set_metrics(&registry);
  // Declared before the evaluator so it outlives it (memo.hpp contract):
  // the evaluator holds a raw pointer to the memo until its destructor.
  nas::FitnessMemo memo(config_.memo);
  orchestrator::WorkflowEvaluator evaluator(loop, cluster, config_.nas.space,
                                            config_.seed,
                                            tracker ? &*tracker : nullptr);
  evaluator.set_metrics(&registry);
  evaluator.set_crash_after(config_.crash_after_evaluations);
  if (config_.memo != nas::MemoMode::kOff) evaluator.set_memo(&memo);
  if (config_.coalesce_duplicates && config_.memo == nas::MemoMode::kOff)
    util::log_warn(
        "coalesce: duplicate coalescing needs genome-keyed training seeds "
        "(memo mode cold or on); request ignored");
  evaluator.set_coalesce(config_.coalesce_duplicates);
  evaluator.set_objective(config_.nas.objective);
  // Hardware-aware objectives: every record the search ranks must carry a
  // latency measured on this machine; the evaluator re-probes anything the
  // memo or commons replays from another host.
  std::optional<latency::LatencyProbe> probe;
  if (config_.nas.objective != nas::ObjectiveMode::kFlops) {
    probe.emplace(config_.probe);
    evaluator.set_latency_probe(&*probe);
  }
  if (resuming) {
    // Reuse whatever record trails a previous (interrupted) run left in
    // the commons; deterministic seeding makes the replay exact. The memo
    // warms from the same records, so a genome evaluated before the crash
    // is a cache hit even under a fresh model id.
    std::error_code ec;
    if (std::filesystem::exists(config_.lineage->root / "models", ec)) {
      lineage::DataCommons commons(config_.lineage->root);
      std::vector<nas::EvaluationRecord> stored = commons.load_records();
      if (config_.memo != nas::MemoMode::kOff) memo.warm(stored);
      evaluator.preload_records(std::move(stored));
    }
  }
  nas::NsgaNetSearch search(config_.nas, evaluator);

  result.search = search.run();
  if (tracker && config_.memo != nas::MemoMode::kOff) {
    // Journal the genome->evaluation index. Built from the history alone,
    // so kCold and kOn runs commit byte-identical indexes.
    tracker->record_artifact("memo_index.json",
                             nas::memo_index_json(result.search.history));
  }
  result.schedules = evaluator.schedules();
  // Every count is read back from the registry (a derived view). The
  // scheduler adds its per-generation totals in schedule order, so the
  // fault totals equal fault_totals(result.schedules) bit-for-bit
  // (test_trace_metrics asserts the two overloads agree).
  result.summary.read_metrics(registry.snapshot());
  result.summary.resumed_epochs = loop.resumed_epochs();
  result.resumed_evaluations = result.summary.resumed_evaluations;
  result.virtual_wall_seconds = cluster.virtual_now();
  result.measured_wall_seconds = wall.seconds();
  if (config_.lineage) result.commons_root = config_.lineage->root;
  return result;
}

WorkflowConfig standalone_variant(WorkflowConfig config) {
  config.trainer.use_prediction_engine = false;
  // NSGA-Net standalone does not support multiple GPUs (paper §4.2.2).
  config.cluster.num_gpus = 1;
  return config;
}

}  // namespace a4nn::core
