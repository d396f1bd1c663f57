// Differential-equivalence harness for the search-time fitness memo-cache
// (nas/memo.hpp), weight inheritance, and the tabular NAS mode.
//
// The contract under test: a memo-on run (kOn) of any configuration is
// bit-identical — Pareto front, commons journal, lineage facts — to a
// memo-cold run (kCold) of the same configuration, where "cold" uses the
// same genome-keyed seeds but never reuses a result. Only wall-clock
// fields (wall_seconds, engine_overhead_seconds host time) may differ.
// The same identity must survive a kill + --resume and a distributed
// 2-worker cluster run.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "cluster/master.hpp"
#include "cluster/protocol.hpp"
#include "cluster/worker.hpp"
#include "core/a4nn.hpp"
#include "nas/table.hpp"
#include "util/frame.hpp"
#include "util/fsutil.hpp"

namespace a4nn::core {
namespace {

namespace fs = std::filesystem;

/// Duplicate-heavy tiny search: 36 evaluations drawn from a 16-genome
/// space, so revisits are guaranteed and the memo path actually fires.
WorkflowConfig memo_config(nas::MemoMode mode) {
  WorkflowConfig cfg;
  cfg.dataset.images_per_class = 12;
  cfg.dataset.detector.pixels = 8;
  cfg.dataset.intensity = xfel::BeamIntensity::kHigh;
  cfg.nas.population_size = 6;
  cfg.nas.offspring_per_generation = 6;
  cfg.nas.generations = 4;
  cfg.nas.max_epochs = 6;
  cfg.nas.space.phase_count = 2;
  cfg.nas.space.nodes_per_phase = 2;
  cfg.nas.space.input_shape = {1, 8, 8};
  cfg.nas.space.stem_channels = 4;
  cfg.nas.allow_duplicates = true;
  cfg.trainer.max_epochs = 6;
  cfg.trainer.engine.e_pred = 6.0;
  cfg.memo = mode;
  cfg.seed = 11;
  return cfg;
}

/// A record minus its host-time fields. Everything else — fitness curves,
/// virtual seconds, device placement, genome, provenance — must be
/// bit-identical across equivalent runs.
std::string canonical(const nas::EvaluationRecord& r) {
  util::Json j = r.to_json();
  j["wall_seconds"] = 0.0;
  j["engine_overhead_seconds"] = 0.0;
  return j.dump();
}

void expect_histories_identical(
    const std::vector<nas::EvaluationRecord>& a,
    const std::vector<nas::EvaluationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(canonical(a[i]), canonical(b[i])) << "record " << i;
}

std::string normalized_search_json(const fs::path& commons) {
  util::Json j = util::Json::parse(
      util::unframe(util::read_file(commons / "search.json")));
  j["memo"] = std::string("normalized");
  return j.dump();
}

}  // namespace

// ---------------------------------------------------------------------------
// The core differential: cold vs on, full-run bit-identity.
// ---------------------------------------------------------------------------

TEST(MemoCache, ColdAndOnRunsAreBitIdentical) {
  const fs::path cold_root = util::make_temp_dir("a4nn_memo_cold");
  const fs::path on_root = util::make_temp_dir("a4nn_memo_on");

  WorkflowConfig cold_cfg = memo_config(nas::MemoMode::kCold);
  cold_cfg.lineage = lineage::TrackerConfig{cold_root, 0};
  A4nnWorkflow cold_flow(cold_cfg);
  const WorkflowResult cold = cold_flow.run();
  EXPECT_EQ(cold.summary.memo_hits, 0u);

  WorkflowConfig on_cfg = memo_config(nas::MemoMode::kOn);
  on_cfg.lineage = lineage::TrackerConfig{on_root, 0};
  A4nnWorkflow on_flow(on_cfg, cold_flow.dataset());
  const WorkflowResult on = on_flow.run();
  EXPECT_GT(on.summary.memo_hits, 0u);

  // In-memory history, selection outcome, and Pareto front.
  expect_histories_identical(cold.search.history, on.search.history);
  EXPECT_EQ(cold.search.pareto, on.search.pareto);
  EXPECT_EQ(cold.search.final_population, on.search.final_population);

  // Commons journals: every persisted record trail, byte-for-byte after
  // stripping host time.
  lineage::DataCommons cold_commons(cold_root);
  lineage::DataCommons on_commons(on_root);
  const auto cold_records = cold_commons.load_records();
  const auto on_records = on_commons.load_records();
  expect_histories_identical(cold_records, on_records);

  // The journaled memo index is built from history alone, so the two
  // modes must agree on its exact bytes.
  EXPECT_EQ(util::read_file(cold_root / "memo_index.json"),
            util::read_file(on_root / "memo_index.json"));

  // search.json differs only in the "memo" mode field.
  EXPECT_EQ(normalized_search_json(cold_root),
            normalized_search_json(on_root));

  // Both commons pass a deep fsck (the journaled memo_index.json is a
  // tracked artifact, not an orphan).
  EXPECT_TRUE(cold_commons.fsck(lineage::FsckMode::kDeep).clean());
  EXPECT_TRUE(on_commons.fsck(lineage::FsckMode::kDeep).clean());

  fs::remove_all(cold_root);
  fs::remove_all(on_root);
}

// ---------------------------------------------------------------------------
// The same differential with weight inheritance composed in: duplicates
// bred from different parents must warm-start (never replay a record that
// was fine-tuned from some other ancestor), so cold and on stay
// bit-identical with both features enabled.
// ---------------------------------------------------------------------------

TEST(MemoCache, ColdAndOnRunsAreBitIdenticalWithInheritance) {
  const fs::path cold_root = util::make_temp_dir("a4nn_memo_inh_cold");
  const fs::path on_root = util::make_temp_dir("a4nn_memo_inh_on");

  WorkflowConfig cold_cfg = memo_config(nas::MemoMode::kCold);
  cold_cfg.trainer.inherit_weights = true;
  cold_cfg.trainer.inherit_epoch_fraction = 0.5;
  cold_cfg.lineage = lineage::TrackerConfig{cold_root, 1};  // snapshots on
  A4nnWorkflow cold_flow(cold_cfg);
  const WorkflowResult cold = cold_flow.run();
  EXPECT_EQ(cold.summary.memo_hits, 0u);
  ASSERT_GT(cold.summary.inherited_starts, 0u);  // warm starts actually fired

  WorkflowConfig on_cfg = memo_config(nas::MemoMode::kOn);
  on_cfg.trainer.inherit_weights = true;
  on_cfg.trainer.inherit_epoch_fraction = 0.5;
  on_cfg.lineage = lineage::TrackerConfig{on_root, 1};
  A4nnWorkflow on_flow(on_cfg, cold_flow.dataset());
  const WorkflowResult on = on_flow.run();

  expect_histories_identical(cold.search.history, on.search.history);
  EXPECT_EQ(cold.search.pareto, on.search.pareto);
  EXPECT_EQ(cold.search.final_population, on.search.final_population);
  EXPECT_EQ(cold.summary.inherited_starts, on.summary.inherited_starts);
  EXPECT_EQ(util::read_file(cold_root / "memo_index.json"),
            util::read_file(on_root / "memo_index.json"));
  EXPECT_EQ(normalized_search_json(cold_root),
            normalized_search_json(on_root));

  // RunSummary.inherited_starts counts warm starts paid this run: it must
  // match both the history's fresh inherited records and the training
  // loop's own train.inherited_starts counter (no double count on replays).
  for (const WorkflowResult* r : {&cold, &on}) {
    std::size_t fresh_inherited = 0;
    for (const auto& rec : r->search.history)
      if (rec.inherited_from_model >= 0 && !rec.replayed) ++fresh_inherited;
    EXPECT_EQ(r->summary.inherited_starts, fresh_inherited);
    EXPECT_DOUBLE_EQ(r->summary.metrics.at("counters").number_or(
                         "train.inherited_starts", 0.0),
                     static_cast<double>(fresh_inherited));
  }

  fs::remove_all(cold_root);
  fs::remove_all(on_root);
}

// ---------------------------------------------------------------------------
// Kill + resume: a memo-on run killed mid-flight and resumed converges to
// the exact uninterrupted result, memo index included.
// ---------------------------------------------------------------------------

TEST(MemoCache, KillAndResumeConvergesToUninterruptedRun) {
  const fs::path ref_root = util::make_temp_dir("a4nn_memo_ref");
  WorkflowConfig ref_cfg = memo_config(nas::MemoMode::kOn);
  ref_cfg.lineage = lineage::TrackerConfig{ref_root, 0};
  A4nnWorkflow reference(ref_cfg);
  const WorkflowResult ref = reference.run();

  const fs::path crash_root = util::make_temp_dir("a4nn_memo_crash");
  WorkflowConfig crash_cfg = memo_config(nas::MemoMode::kOn);
  crash_cfg.lineage = lineage::TrackerConfig{crash_root, 0};
  crash_cfg.crash_after_evaluations = 3;
  A4nnWorkflow crashing(crash_cfg, reference.dataset());
  EXPECT_THROW(crashing.run(), orchestrator::WorkflowInterrupted);

  WorkflowConfig resume_cfg = memo_config(nas::MemoMode::kOn);
  resume_cfg.lineage = lineage::TrackerConfig{crash_root, 0};
  resume_cfg.resume_from_commons = true;
  A4nnWorkflow resumed(resume_cfg, reference.dataset());
  const WorkflowResult res = resumed.run();
  EXPECT_GT(res.summary.resumed_evaluations, 0u);

  expect_histories_identical(ref.search.history, res.search.history);
  EXPECT_EQ(ref.search.pareto, res.search.pareto);
  EXPECT_EQ(util::read_file(ref_root / "memo_index.json"),
            util::read_file(crash_root / "memo_index.json"));

  fs::remove_all(ref_root);
  fs::remove_all(crash_root);
}

// ---------------------------------------------------------------------------
// Cluster re-dispatch: a 2-worker distributed memo-on run equals the solo
// run. Genome-keyed seeds ride the job payload, so workers — who have no
// memo of their own — still train cache-equivalent results.
// ---------------------------------------------------------------------------

TEST(MemoCache, TwoWorkerClusterRunMatchesSoloRun) {
  WorkflowConfig solo_cfg = memo_config(nas::MemoMode::kOn);
  A4nnWorkflow solo_flow(solo_cfg);
  const WorkflowResult solo = solo_flow.run();

  cluster::MasterOptions mopts;
  mopts.port = 0;
  mopts.config_crc = 0xA4;
  mopts.heartbeat_interval_ms = 50;
  cluster::Master master(mopts);

  WorkflowConfig dist_cfg = memo_config(nas::MemoMode::kOn);
  dist_cfg.trainer.cost = dist_cfg.cluster.cost;
  const nas::SearchSpaceConfig wspace = [&] {
    nas::SearchSpaceConfig s = dist_cfg.nas.space;
    s.classes = solo_flow.dataset().train.num_classes();
    return s;
  }();
  orchestrator::TrainingLoop worker_loop(solo_flow.dataset().train,
                                         solo_flow.dataset().validation,
                                         dist_cfg.trainer);

  auto serve = [&](const cluster::JobRequest& req) {
    const nas::Genome genome = nas::Genome::from_json(req.genome);
    nas::EvaluationRecord record = worker_loop.train_genome(
        genome, wspace, req.model_id, util::hex_to_u64(req.seed_hex));
    record.generation = req.generation;
    return record.to_json();
  };

  std::vector<cluster::Worker*> workers;
  std::vector<std::thread> fleet;
  std::vector<std::unique_ptr<cluster::Worker>> owned;
  for (int w = 0; w < 2; ++w) {
    cluster::WorkerOptions wopts;
    wopts.port = master.port();
    wopts.name = "memo-w" + std::to_string(w);
    wopts.threads = 1;
    wopts.config_crc = 0xA4;
    owned.push_back(std::make_unique<cluster::Worker>(wopts));
    fleet.emplace_back([&, w] { owned[w]->run(serve); });
  }
  ASSERT_TRUE(master.wait_for_workers(2, 5000));

  dist_cfg.cluster.remote = &master;
  A4nnWorkflow dist_flow(dist_cfg, solo_flow.dataset());
  const WorkflowResult dist = dist_flow.run();
  master.stop();
  for (auto& t : fleet) t.join();

  EXPECT_GT(dist.summary.cluster.remote_jobs, 0u);
  EXPECT_EQ(dist.summary.memo_hits, solo.summary.memo_hits);
  expect_histories_identical(solo.search.history, dist.search.history);
  EXPECT_EQ(solo.search.pareto, dist.search.pareto);
}

// ---------------------------------------------------------------------------
// Same-generation duplicate coalescing: a coalesce-on run trains each
// distinct genome once per generation and copies the leader's record into
// every duplicate slot. Genome-keyed seeds make that copy bit-equal to the
// training the duplicate would have run, so the whole run — history,
// Pareto front, commons journal, memo index — matches the coalesce-off
// run exactly. Only search.json differs (the "coalesce" config key), so
// that file is deliberately NOT compared here.
// ---------------------------------------------------------------------------

TEST(MemoCache, CoalescedRunIsBitIdenticalToSequentialRun) {
  const fs::path off_root = util::make_temp_dir("a4nn_coalesce_off");
  const fs::path on_root = util::make_temp_dir("a4nn_coalesce_on");

  WorkflowConfig off_cfg = memo_config(nas::MemoMode::kCold);
  off_cfg.lineage = lineage::TrackerConfig{off_root, 0};
  A4nnWorkflow off_flow(off_cfg);
  const WorkflowResult off = off_flow.run();
  EXPECT_EQ(off.summary.coalesced_evaluations, 0u);

  WorkflowConfig on_cfg = memo_config(nas::MemoMode::kCold);
  on_cfg.coalesce_duplicates = true;
  on_cfg.lineage = lineage::TrackerConfig{on_root, 0};
  A4nnWorkflow on_flow(on_cfg, off_flow.dataset());
  const WorkflowResult on = on_flow.run();
  // The 36-evaluation / 16-genome configuration revisits genomes within
  // single generations, so the leader/follower path must actually fire.
  EXPECT_GT(on.summary.coalesced_evaluations, 0u);

  expect_histories_identical(off.search.history, on.search.history);
  EXPECT_EQ(off.search.pareto, on.search.pareto);
  EXPECT_EQ(off.search.final_population, on.search.final_population);

  // Coalesced followers flush their own (restamped) copy of the leader's
  // record, and device placement is stamped from the virtual-time schedule
  // in the accounting pass — so the persisted journals agree byte-for-byte
  // after stripping host time.
  lineage::DataCommons off_commons(off_root);
  lineage::DataCommons on_commons(on_root);
  expect_histories_identical(off_commons.load_records(),
                             on_commons.load_records());
  EXPECT_EQ(util::read_file(off_root / "memo_index.json"),
            util::read_file(on_root / "memo_index.json"));

  // The coalesced engine cost is split into its own bucket, mirroring the
  // replayed-overhead accounting: the history's coalesced records carry
  // the overhead the summary attributes to coalescing.
  double coalesced_overhead = 0.0;
  for (const auto& r : on.search.history)
    if (r.coalesced) coalesced_overhead += r.engine_overhead_seconds;
  EXPECT_DOUBLE_EQ(on.summary.engine_overhead_coalesced_seconds,
                   coalesced_overhead);

  fs::remove_all(off_root);
  fs::remove_all(on_root);
}

// ---------------------------------------------------------------------------
// PR 4 semantics: failed evaluations never become cache hits.
// ---------------------------------------------------------------------------

TEST(MemoCache, FailedRecordsAreNeverCached) {
  nas::FitnessMemo memo(nas::MemoMode::kOn);
  util::Rng rng(3);
  nas::EvaluationRecord failed;
  failed.genome = nas::random_genome(2, 2, rng);
  failed.model_id = 0;
  failed.failed = true;
  failed.error = "exhausted retries";
  memo.insert(failed);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.lookup(failed.genome), nullptr);

  // A later successful evaluation of the same genome IS cached.
  nas::EvaluationRecord ok = failed;
  ok.failed = false;
  ok.error.clear();
  ok.model_id = 1;
  ok.fitness = 87.5;
  memo.insert(ok);
  ASSERT_NE(memo.lookup(ok.genome), nullptr);
  EXPECT_DOUBLE_EQ(memo.lookup(ok.genome)->fitness, 87.5);
  EXPECT_EQ(memo.canonical_model(ok.genome), 1);

  // kCold never serves hits, even for inserted records.
  nas::FitnessMemo cold(nas::MemoMode::kCold);
  cold.insert(ok);
  EXPECT_EQ(cold.lookup(ok.genome), nullptr);
  EXPECT_EQ(cold.canonical_model(ok.genome), 1);  // provenance still tracked
}

// ---------------------------------------------------------------------------
// Inherited records are never cached: their curves depend on the ancestor
// they warm-started from, so replaying one for a duplicate bred from a
// different parent would break the cold/on bit-identity contract.
// ---------------------------------------------------------------------------

TEST(MemoCache, InheritedRecordsAreNeverCached) {
  nas::FitnessMemo memo(nas::MemoMode::kOn);
  util::Rng rng(7);
  nas::EvaluationRecord inherited;
  inherited.genome = nas::random_genome(2, 2, rng);
  inherited.model_id = 4;
  inherited.fitness = 91.0;
  inherited.inherited_from_model = 2;
  memo.insert(inherited);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.lookup(inherited.genome), nullptr);
  EXPECT_EQ(memo.canonical_model_of(4), -1);

  // A from-scratch evaluation of the same genome IS admitted afterwards.
  nas::EvaluationRecord scratch = inherited;
  scratch.inherited_from_model = -1;
  scratch.model_id = 5;
  memo.insert(scratch);
  ASSERT_NE(memo.lookup(scratch.genome), nullptr);
  EXPECT_EQ(memo.lookup(scratch.genome)->model_id, 5);
}

// ---------------------------------------------------------------------------
// Honest accounting: engine overhead carried by replayed records is kept
// out of the fresh-overhead total, and both totals bit-match the history.
// ---------------------------------------------------------------------------

TEST(MemoCache, ReplayedEngineOverheadIsAccountedSeparately) {
  WorkflowConfig cfg = memo_config(nas::MemoMode::kOn);
  A4nnWorkflow flow(cfg);
  const WorkflowResult result = flow.run();
  ASSERT_GT(result.summary.memo_hits, 0u);

  double fresh = 0.0, replayed = 0.0;
  for (const auto& r : result.search.history)
    (r.replayed ? replayed : fresh) += r.engine_overhead_seconds;
  EXPECT_DOUBLE_EQ(result.summary.engine_overhead_seconds, fresh);
  EXPECT_DOUBLE_EQ(result.summary.engine_overhead_replayed_seconds, replayed);

  // Cold control: nothing is replayed, so the replayed bucket is zero.
  WorkflowConfig cold_cfg = memo_config(nas::MemoMode::kCold);
  A4nnWorkflow cold_flow(cold_cfg, flow.dataset());
  const WorkflowResult cold = cold_flow.run();
  EXPECT_EQ(cold.summary.memo_hits, 0u);
  EXPECT_DOUBLE_EQ(cold.summary.engine_overhead_replayed_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Weight inheritance: a child warm-started from its ancestor's checkpoint
// reaches the parent's fitness in strictly fewer epochs, deterministically.
// ---------------------------------------------------------------------------

TEST(MemoCache, InheritedChildReachesParentFitnessInFewerEpochs) {
  xfel::XfelDatasetConfig ds;
  ds.images_per_class = 30;
  ds.detector.pixels = 8;
  ds.intensity = xfel::BeamIntensity::kHigh;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(ds);

  nas::SearchSpaceConfig space;
  space.phase_count = 2;
  space.nodes_per_phase = 2;
  space.input_shape = {1, 8, 8};
  space.stem_channels = 4;
  space.classes = data.train.num_classes();

  const fs::path root = util::make_temp_dir("a4nn_inherit");
  lineage::TrackerConfig tcfg{root, 1};  // snapshots: inheritance needs them
  lineage::LineageTracker tracker(tcfg);
  tracker.record_search_config(util::Json::object());

  orchestrator::TrainerConfig trainer;
  trainer.max_epochs = 8;
  trainer.use_prediction_engine = false;
  util::Rng rng(21);
  const nas::Genome genome = nas::random_genome(2, 2, rng);

  orchestrator::TrainingLoop parent_loop(data.train, data.validation, trainer,
                                         &tracker);
  const nas::EvaluationRecord parent =
      parent_loop.train_genome(genome, space, 0, 1234);
  ASSERT_FALSE(parent.failed);

  orchestrator::TrainerConfig fine = trainer;
  fine.inherit_weights = true;
  fine.inherit_epoch_fraction = 0.5;
  orchestrator::TrainingLoop child_loop(data.train, data.validation, fine,
                                        &tracker);
  const nas::EvaluationRecord child =
      child_loop.train_genome_inherited(genome, space, 1, 5678, 0);
  ASSERT_FALSE(child.failed);

  EXPECT_EQ(child.inherited_from_model, 0);
  EXPECT_EQ(child.inherited_from_epoch, parent.epochs_trained);
  EXPECT_GT(child.inherited_params_copied, 0u);
  EXPECT_EQ(child.inherited_params_fresh, 0u);  // same genome: full transfer
  EXPECT_LT(child.epochs_trained, parent.epochs_trained);
  EXPECT_GE(child.fitness, parent.fitness);

  // Determinism: the same inherited start reproduces bit-identically.
  orchestrator::TrainingLoop again_loop(data.train, data.validation, fine,
                                        &tracker);
  const nas::EvaluationRecord again =
      again_loop.train_genome_inherited(genome, space, 2, 5678, 0);
  nas::EvaluationRecord lhs = child, rhs = again;
  rhs.model_id = lhs.model_id;
  EXPECT_EQ(canonical(lhs), canonical(rhs));

  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Tabular mode: the per-digest fit cache reuses the journaled fit — a
// repeated sweep runs zero fresh Levenberg–Marquardt iterations.
// ---------------------------------------------------------------------------

TEST(MemoCache, TableFitCacheRunsNoFreshFitsOnRepeatSweeps) {
  xfel::XfelDatasetConfig ds;
  ds.images_per_class = 12;
  ds.detector.pixels = 8;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(ds);

  nas::SearchSpaceConfig space;
  space.phase_count = 2;
  space.nodes_per_phase = 2;
  space.input_shape = {1, 8, 8};
  space.classes = data.train.num_classes();
  const auto genomes = nas::enumerate_space(space);

  orchestrator::TrainerConfig trainer;
  trainer.max_epochs = 6;
  trainer.use_prediction_engine = false;  // the table holds full curves
  sched::ClusterConfig ccfg;
  trainer.cost = ccfg.cost;
  orchestrator::TrainingLoop loop(data.train, data.validation, trainer);
  sched::ResourceManager cluster(ccfg);
  orchestrator::WorkflowEvaluator trainer_eval(loop, cluster, space, 7);
  const auto trained = trainer_eval.evaluate_generation(genomes, 0);
  const nas::GenomeTable table = nas::GenomeTable::from_records(trained);
  ASSERT_EQ(table.size(), genomes.size());

  nas::TableEvaluator sweep(table, penguin::default_engine_config());
  util::metrics::Registry reg;
  sweep.set_metrics(&reg);

  const auto first = sweep.evaluate_generation(genomes, 0);
  const double lm_after_first = reg.counter("penguin.lm_iterations").value();
  EXPECT_GT(lm_after_first, 0.0);
  EXPECT_EQ(sweep.fit_cache_hits(), 0u);

  const auto second = sweep.evaluate_generation(genomes, 0);
  const double lm_after_second = reg.counter("penguin.lm_iterations").value();
  EXPECT_DOUBLE_EQ(lm_after_second, lm_after_first);  // zero fresh fits
  EXPECT_EQ(sweep.fit_cache_hits(), genomes.size());

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(canonical(first[i]), canonical(second[i]));

  // Unknown genomes miss with a failed record, never a bogus fitness.
  nas::SearchSpaceConfig big = space;
  big.nodes_per_phase = 4;
  util::Rng rng(5);
  const nas::Genome stranger = nas::random_genome(2, 4, rng);
  const auto missed = sweep.evaluate_generation({&stranger, 1}, 0);
  ASSERT_EQ(missed.size(), 1u);
  EXPECT_TRUE(missed[0].failed);
  EXPECT_EQ(sweep.table_misses(), 1u);
}

}  // namespace a4nn::core
