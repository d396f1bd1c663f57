#include "traced.hpp"

#include <atomic>

#include "nas/memo.hpp"
#include "orchestrator/workflow_evaluator.hpp"
#include "sched/resource_manager.hpp"

namespace perfbench {

namespace {

/// Times every train_genome call; the base class does the work.
class TimedLoop : public orchestrator::TrainingLoop {
 public:
  using TrainingLoop::TrainingLoop;

  nas::EvaluationRecord train_genome(const nas::Genome& genome,
                                     const nas::SearchSpaceConfig& space,
                                     int model_id,
                                     std::uint64_t seed) const override {
    const double t0 = now_s();
    nas::EvaluationRecord record =
        TrainingLoop::train_genome(genome, space, model_id, seed);
    add(now_s() - t0, record.epochs_trained - record.resumed_from_epoch);
    return record;
  }

  double seconds() const { return static_cast<double>(ns_.load()) * 1e-9; }
  std::size_t epochs() const { return epochs_.load(); }

 private:
  void add(double seconds, std::size_t epochs) const {
    ns_.fetch_add(static_cast<std::int64_t>(seconds * 1e9));
    epochs_.fetch_add(epochs);
  }
  mutable std::atomic<std::int64_t> ns_{0};
  mutable std::atomic<std::size_t> epochs_{0};
};

/// Times each generation the search hands to the wrapped evaluator.
class TimedEvaluator : public nas::Evaluator {
 public:
  explicit TimedEvaluator(nas::Evaluator& inner) : inner_(inner) {}

  std::vector<nas::EvaluationRecord> evaluate_generation(
      std::span<const nas::Genome> genomes, int generation) override {
    const double t0 = now_s();
    auto records = inner_.evaluate_generation(genomes, generation);
    seconds_ += now_s() - t0;
    return records;
  }

  std::vector<nas::EvaluationRecord> evaluate_generation(
      std::span<const nas::Genome> genomes,
      std::span<const nas::Parentage> parents, int generation) override {
    const double t0 = now_s();
    auto records = inner_.evaluate_generation(genomes, parents, generation);
    seconds_ += now_s() - t0;
    return records;
  }

  double seconds() const { return seconds_; }

 private:
  nas::Evaluator& inner_;
  double seconds_ = 0.0;
};

}  // namespace

TracedRun run_traced(core::WorkflowConfig config,
                     const xfel::XfelDataset& data) {
  TracedRun out;
  TracedSpans& spans = out.spans;
  core::WorkflowResult& result = out.result;
  const double wall0 = now_s();

  // The same preparation A4nnWorkflow::run() makes, in the same order.
  config.trainer.cost = config.cluster.cost;
  config.nas.space.classes = data.train.num_classes();
  if (config.cluster.fault.enabled && config.cluster.fault.seed == 0)
    config.cluster.fault.seed = config.seed;
  util::metrics::Registry registry;

  const bool resuming = config.resume_from_commons && config.lineage;
  const bool have_models =
      config.lineage && fs::exists(config.lineage->root / "models");
  if (resuming) {
    if (have_models) {
      const double t0 = now_s();
      lineage::DataCommons commons(config.lineage->root);
      const lineage::FsckReport fsck = commons.fsck(lineage::FsckMode::kDeep);
      result.summary.fsck_quarantined = fsck.files_quarantined;
      result.summary.fsck_tmp_removed = fsck.tmp_files_removed;
      spans.fsck_s = now_s() - t0;
    }
    config.trainer.resume_partial = true;
  }

  std::optional<lineage::LineageTracker> tracker;
  if (config.lineage) {
    const double t0 = now_s();
    tracker.emplace(*config.lineage);
    tracker->set_metrics(&registry);
    tracker->record_search_config(config.to_json());
    spans.tracker_setup_s = now_s() - t0;
  }

  TimedLoop loop(data.train, data.validation, config.trainer,
                 tracker ? &*tracker : nullptr);
  loop.set_metrics(&registry);
  sched::ResourceManager cluster(config.cluster);
  cluster.set_metrics(&registry);
  nas::FitnessMemo memo(config.memo);
  orchestrator::WorkflowEvaluator evaluator(loop, cluster, config.nas.space,
                                            config.seed,
                                            tracker ? &*tracker : nullptr);
  evaluator.set_metrics(&registry);
  if (config.memo != nas::MemoMode::kOff) evaluator.set_memo(&memo);
  evaluator.set_coalesce(config.coalesce_duplicates);
  evaluator.set_objective(config.nas.objective);
  if (resuming && have_models) {
    const double t0 = now_s();
    lineage::DataCommons commons(config.lineage->root);
    std::vector<nas::EvaluationRecord> stored = commons.load_records();
    spans.load_records_s = now_s() - t0;
    if (config.memo != nas::MemoMode::kOff) memo.warm(stored);
    evaluator.preload_records(std::move(stored));
  }

  TimedEvaluator timed(evaluator);
  nas::NsgaNetSearch search(config.nas, timed);
  const double search0 = now_s();
  result.search = search.run();
  const double search_s = now_s() - search0;

  if (tracker && config.memo != nas::MemoMode::kOff) {
    const double t0 = now_s();
    tracker->record_artifact("memo_index.json",
                             nas::memo_index_json(result.search.history));
    spans.memo_index_s = now_s() - t0;
  }

  result.resumed_evaluations = evaluator.resumed_count();
  result.summary.failed_evaluations = evaluator.failed_count();
  result.summary.resumed_evaluations = evaluator.resumed_count();
  result.summary.resumed_epochs = loop.resumed_epochs();
  result.summary.memo_hits = evaluator.memo_hits();
  result.summary.coalesced_evaluations = evaluator.coalesced_count();
  result.summary.metrics = registry.snapshot();

  spans.train_s = loop.seconds();
  spans.epochs = loop.epochs();
  spans.dispatch_s = timed.seconds() - spans.train_s;
  spans.nas_self_s = search_s - timed.seconds();
  spans.wall_s = now_s() - wall0;
  result.measured_wall_seconds = spans.wall_s;
  return out;
}

core::WorkflowResult run_plain(const core::WorkflowConfig& config,
                               const xfel::XfelDataset& data) {
  core::A4nnWorkflow workflow(config, data);
  return workflow.run();
}

}  // namespace perfbench
