// The evaluator that the A4NN workflow (and the standalone baseline) plug
// into NSGA-Net: for each generation it builds one training job per
// genome, hands the batch to the resource manager (FIFO over simulated
// GPUs), stamps placement/timing into the records, and forwards every
// record trail to the lineage tracker.
#pragma once

#include <atomic>
#include <map>
#include <stdexcept>

#include "latency/probe.hpp"
#include "nas/memo.hpp"
#include "nas/search.hpp"
#include "orchestrator/training_loop.hpp"
#include "sched/resource_manager.hpp"

namespace a4nn::orchestrator {

/// Thrown when a configured mid-run crash point is reached (fault-injection
/// testing): the lineage tracker has been sealed, so the commons holds
/// exactly the records flushed before the "death".
struct WorkflowInterrupted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class WorkflowEvaluator : public nas::Evaluator {
 public:
  /// All referenced objects must outlive the evaluator. `lineage` may be
  /// null. `space` defines genome decoding; `seed` derives per-model
  /// weight-init streams.
  WorkflowEvaluator(const TrainingLoop& loop, sched::ResourceManager& cluster,
                    nas::SearchSpaceConfig space, std::uint64_t seed,
                    lineage::LineageTracker* lineage = nullptr);

  /// Resume support: record trails from a previous (possibly interrupted)
  /// run of the *same* configuration. When the search re-requests a
  /// model whose id AND genome match a preloaded record, the stored result
  /// is reused instead of retraining — deterministic seeding guarantees
  /// the replay asks for the same genomes in the same order.
  void preload_records(std::vector<nas::EvaluationRecord> records);

  /// How many evaluations were satisfied from preloaded records
  /// ("nas.resumed_evaluations").
  std::size_t resumed_count() const { return read("nas.resumed_evaluations"); }

  /// Preloaded records whose stored genome did not match the re-requested
  /// one (stale commons from a different seed/config): retrained instead.
  std::size_t genome_mismatches() const {
    return read("nas.genome_mismatches");
  }

  /// Evaluations whose job exhausted its retries. The records exist (with
  /// failed=true) but carry no fitness and are excluded from the commons.
  std::size_t failed_count() const { return read("nas.failed_evaluations"); }

  /// Attach the search-time fitness memo-cache (null detaches). In kCold/
  /// kOn modes per-model training seeds become genome-keyed
  /// (nas::memo_model_seed); in kOn a genome that already has a cached
  /// evaluation resolves to an O(1) replay instead of a training job. The
  /// memo must outlive the evaluator. Every non-failed record of a
  /// generation is inserted during the accounting pass, so cache hits are
  /// cross-generation (same-generation duplicates retrain — identically,
  /// thanks to genome-keyed seeds).
  void set_memo(nas::FitnessMemo* memo) { memo_ = memo; }

  /// Evaluations satisfied by memo-cache replay / by ancestor warm starts.
  std::size_t memo_hits() const { return read("nas.memo_hits"); }
  std::size_t inherited_count() const {
    return read("nas.inherited_evaluations");
  }

  /// Attach a latency probe (null detaches; must outlive the evaluator).
  /// During the accounting pass every non-failed record whose stored
  /// latency_host is not *this* machine's fingerprint — fresh trainings,
  /// and memo/resume replays stamped on another host — is probed at the
  /// serving micro-batch geometry and roofline-priced, so the hardware
  /// objectives the search minimizes are always measurements from the
  /// machine running the search.
  void set_latency_probe(const latency::LatencyProbe* probe) {
    probe_ = probe;
  }

  /// Records latency-probed so far (re-probes; fingerprint matches reuse
  /// the stored timing and are not counted).
  std::size_t probed_count() const { return read("latency.probes"); }

  /// Objective mode of the owning search. Stamped into remote job payloads
  /// (cluster::JobRequest.objective, serialized only when not kFlops) so
  /// workers can cross-check the mode beyond the handshake config CRC.
  void set_objective(nas::ObjectiveMode mode) { objective_ = mode; }

  /// Same-generation duplicate coalescing: when enabled (and the attached
  /// memo keys training seeds by genome, which is what makes duplicate
  /// trainings bit-identical), duplicate genomes within one generation
  /// train once — the first occurrence is the leader, the rest wait for
  /// its record and copy it under their own model ids. The journal bytes
  /// each follower flushes are exactly what its own training would have
  /// produced; only the accounting (nas.coalesced, the coalesced
  /// engine-overhead bucket) tells the difference. Off by default so
  /// existing counter expectations are undisturbed.
  void set_coalesce(bool on) { coalesce_ = on; }
  std::size_t coalesced_count() const { return read("nas.coalesced"); }

  /// Attach a metrics registry: every evaluation count and engine-overhead
  /// bucket is accumulated there (in record order, so they bit-match sums
  /// over the history), and the count accessors above read it back. With
  /// nullptr the evaluator counts into a registry it owns. Attach before
  /// the first generation; the registry must outlive the evaluator.
  void set_metrics(util::metrics::Registry* registry);

  /// Fault injection: simulate process death after `n` freshly-trained
  /// records have been flushed to the commons (0 disables). The tracker is
  /// sealed at that point and evaluate_generation throws
  /// WorkflowInterrupted once the in-flight generation drains.
  void set_crash_after(std::size_t n) { crash_after_ = n; }
  bool crashed() const { return crashed_.load(); }

  std::vector<nas::EvaluationRecord> evaluate_generation(
      std::span<const nas::Genome> genomes, int generation) override;

  /// Ancestry-aware entry point the search calls: parentage feeds weight
  /// inheritance (when the loop's TrainerConfig enables it) by naming the
  /// ancestor whose snapshots warm-start each child.
  std::vector<nas::EvaluationRecord> evaluate_generation(
      std::span<const nas::Genome> genomes,
      std::span<const nas::Parentage> parents, int generation) override;

  /// Generation schedules observed so far (for the scalability analyses).
  const std::vector<sched::GenerationSchedule>& schedules() const {
    return schedules_;
  }

 private:
  /// Incremental checkpoint: persist a finished record immediately (not at
  /// the generation barrier) so a crash loses at most the in-flight jobs.
  void flush_record(const nas::EvaluationRecord& record);
  std::size_t read(const char* counter) const {
    return static_cast<std::size_t>(metrics_->counter(counter).value());
  }

  const TrainingLoop* loop_;
  sched::ResourceManager* cluster_;
  nas::SearchSpaceConfig space_;
  std::uint64_t seed_;
  lineage::LineageTracker* lineage_;
  int next_model_id_ = 0;
  std::vector<sched::GenerationSchedule> schedules_;
  std::map<int, nas::EvaluationRecord> resume_pool_;
  nas::FitnessMemo* memo_ = nullptr;
  const latency::LatencyProbe* probe_ = nullptr;
  nas::ObjectiveMode objective_ = nas::ObjectiveMode::kFlops;
  bool coalesce_ = false;
  util::metrics::Registry own_metrics_;
  util::metrics::Registry* metrics_ = &own_metrics_;
  std::size_t crash_after_ = 0;
  std::atomic<std::size_t> flushed_{0};
  std::atomic<bool> crashed_{false};
};

}  // namespace a4nn::orchestrator
