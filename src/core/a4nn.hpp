// A4NN — the user-facing, composable workflow.
//
// One configuration object wires together every component of Figure 1:
// the dataset (data path), the NAS (NSGA-Net settings), the prediction
// engine (Table 1 settings), the resource manager (GPU count), and the
// lineage tracker (commons location). `run()` executes the full search
// and returns the search history plus scheduling/timing information.
// Setting `use_prediction_engine = false` yields the standalone-NSGA-Net
// baseline on the exact same plumbing — the comparison the paper's
// evaluation is built around.
#pragma once

#include <optional>

#include "analytics/analyzer.hpp"
#include "latency/probe.hpp"
#include "lineage/tracker.hpp"
#include "nas/memo.hpp"
#include "nas/search.hpp"
#include "orchestrator/workflow_evaluator.hpp"
#include "xfel/dataset.hpp"

namespace a4nn::core {

struct WorkflowConfig {
  /// Scientific data: customize the dataset without touching the rest.
  xfel::XfelDatasetConfig dataset;
  /// NAS settings (Table 2).
  nas::NsgaNetConfig nas;
  /// Training-loop settings, including the prediction-engine settings
  /// (Table 1) and whether the engine is used at all.
  orchestrator::TrainerConfig trainer;
  /// Resource manager: simulated GPU cluster.
  sched::ClusterConfig cluster;
  /// Data commons root; nullopt disables lineage tracking.
  std::optional<lineage::TrackerConfig> lineage;
  /// Resume an interrupted run: record trails already present in the
  /// commons are reused instead of retraining (requires `lineage` and the
  /// same configuration/seed as the original run). The commons is fsck'd
  /// first — corrupt files are quarantined instead of killing the resume —
  /// and partially-trained models continue from their last epoch
  /// checkpoint instead of restarting at epoch 1.
  bool resume_from_commons = false;
  /// Fault injection for tests and drills: simulate process death after
  /// this many freshly-trained records reach the commons (0 disables).
  /// When hit, run() throws orchestrator::WorkflowInterrupted.
  std::size_t crash_after_evaluations = 0;
  /// Search-time fitness memoization (nas/memo.hpp). kOff keeps the legacy
  /// model-id-keyed training seeds; kCold switches to genome-keyed seeds
  /// without reuse (the differential control); kOn adds O(1) replay of
  /// already-evaluated genomes. kCold and kOn runs of the same
  /// configuration are bit-identical up to wall-clock fields. The memo is
  /// warmed from the commons on resume, and `memo_index.json` is journaled
  /// at the end of the run in both non-kOff modes.
  nas::MemoMode memo = nas::MemoMode::kOff;
  /// Same-generation duplicate coalescing (requires a genome-keyed memo,
  /// i.e. memo != kOff): duplicate genomes within a generation train once
  /// and the copies ride the leader's record. Journal bytes are provably
  /// unchanged; only the wall clock and the nas.coalesced counter move.
  bool coalesce_duplicates = false;
  /// Latency-probe settings, used when nas.objective requests measured
  /// hardware objectives (kLatency/kBoth).
  latency::ProbeConfig probe;
  std::uint64_t seed = 2023;

  util::Json to_json() const;
};

/// Remote-execution accounting for one run(), derived from the registry's
/// "sched.remote_*" and "cluster.*" counters by RunSummary::read_metrics.
/// All zeros for purely local runs (and for cluster runs that degraded to
/// local the whole way).
struct ClusterTotals {
  std::size_t remote_jobs = 0;       // jobs served by cluster workers
  std::size_t remote_fallbacks = 0;  // offered remotely, ran locally
  std::size_t dispatches = 0;        // first sends of a job to a worker
  std::size_t redispatches = 0;      // re-sends after a worker failure
  std::size_t worker_failures = 0;   // drops, timeouts, corrupt streams
  std::size_t worker_quarantines = 0;
  std::size_t heartbeat_timeouts = 0;
  std::size_t stale_results = 0;     // replies racing their own re-dispatch
  std::size_t corrupt_frames = 0;    // wire frames failing CRC/structure
  std::size_t corrupt_results = 0;   // CRC-valid but wrong-model records
  std::size_t local_fallbacks = 0;   // declines answered by local execution

  util::Json to_json() const;
};

/// Fault-tolerance and recovery accounting for one run(). Every count and
/// engine-overhead bucket below (and `cluster`) is a view of the run's
/// metrics registry, filled by read_metrics(); the fsck fields and
/// resumed_epochs come from the fsck report and the training loop.
struct RunSummary {
  /// Derived view of the run's metrics registry ("sched.*" counters); the
  /// registry is populated in schedule order, so these equal
  /// analytics::fault_totals over the run's schedules bit-for-bit.
  analytics::FaultTotals faults;
  /// Evaluations whose training job exhausted its retries. Their records
  /// carry failed=true, no fitness, and never reach selection, the Pareto
  /// front, or the commons.
  std::size_t failed_evaluations = 0;
  /// Host seconds spent inside the prediction engine across every model
  /// (derived from the "penguin.engine_overhead_seconds" counter, which is
  /// accumulated in record order and bit-matches summing the history).
  double engine_overhead_seconds = 0.0;
  /// Full metrics-registry snapshot for this run: counters, gauges, and
  /// histograms from every instrumented layer (see util/metrics.hpp).
  util::Json metrics = util::Json::object();
  /// Evaluations reused whole from the commons when resuming.
  std::size_t resumed_evaluations = 0;
  /// Training epochs skipped by resuming partially-trained models from
  /// their epoch checkpoints.
  std::size_t resumed_epochs = 0;
  /// Preloaded records rejected because their stored genome mismatched.
  std::size_t genome_mismatches = 0;
  /// Files the pre-resume deep fsck quarantined or removed (0 on fresh
  /// runs). Quarantines include parse failures and checksum mismatches.
  std::size_t fsck_quarantined = 0;
  std::size_t fsck_tmp_removed = 0;
  /// Artifacts whose stored bytes failed their manifest-journal CRC.
  std::size_t fsck_crc_mismatches = 0;
  /// Journal repairs: torn lines dropped, missing entries pruned, and
  /// unjournaled artifacts adopted back.
  std::size_t fsck_journal_repairs = 0;
  /// Evaluations satisfied by memo-cache replay instead of training, and
  /// children warm-started from an ancestor checkpoint.
  std::size_t memo_hits = 0;
  std::size_t inherited_starts = 0;
  /// Engine overhead carried by replayed records (already paid by their
  /// canonical evaluations; kept out of engine_overhead_seconds so cache
  /// hits never inflate the fresh-overhead total).
  double engine_overhead_replayed_seconds = 0.0;
  /// Same-generation duplicates whose record rode a leader's training
  /// (duplicate coalescing), and the engine overhead those copies carry
  /// (paid once by the leader, split out like the replayed bucket).
  std::size_t coalesced_evaluations = 0;
  double engine_overhead_coalesced_seconds = 0.0;
  /// Latency probes run for hardware-aware objectives (0 in flops mode).
  std::size_t latency_probes = 0;
  /// Remote-execution accounting (all zeros without a cluster backend).
  ClusterTotals cluster;

  /// Store `snapshot` as `metrics` and derive `faults`, every registry
  /// count, the engine-overhead buckets and `cluster` from its counters
  /// (absent counters read as 0).
  void read_metrics(util::Json snapshot);

  util::Json to_json() const;
};

struct WorkflowResult {
  nas::SearchResult search;
  /// Evaluations reused from the commons when resuming (0 otherwise).
  std::size_t resumed_evaluations = 0;
  /// Per-generation placement/timing from the resource manager.
  std::vector<sched::GenerationSchedule> schedules;
  /// Fault/retry/recovery accounting for the whole run.
  RunSummary summary;
  /// Virtual wall time of the whole search (last generation barrier).
  double virtual_wall_seconds = 0.0;
  /// Measured host time for the whole search.
  double measured_wall_seconds = 0.0;
  /// Commons location, when lineage tracking was enabled.
  std::optional<std::filesystem::path> commons_root;
};

class A4nnWorkflow {
 public:
  /// Generates the dataset up front (or accepts a pre-generated one via
  /// the second constructor, so A4NN and the baseline share data).
  explicit A4nnWorkflow(WorkflowConfig config);
  A4nnWorkflow(WorkflowConfig config, const xfel::XfelDataset& shared_data);

  WorkflowResult run();

  const xfel::XfelDataset& dataset() const { return *data_; }
  const WorkflowConfig& config() const { return config_; }

 private:
  WorkflowConfig config_;
  std::optional<xfel::XfelDataset> owned_data_;
  const xfel::XfelDataset* data_;
};

/// Convenience: the same search without the prediction engine (standalone
/// NSGA-Net), sharing the given dataset.
WorkflowConfig standalone_variant(WorkflowConfig config);

}  // namespace a4nn::core
