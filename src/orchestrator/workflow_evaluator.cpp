#include "orchestrator/workflow_evaluator.hpp"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "nas/search_space.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"
#include "util/trace.hpp"

namespace a4nn::orchestrator {

namespace {

/// Every count the evaluator keeps, each bumped at one point through
/// util::metrics::count (one trace instant per bump).
constexpr const char* kCounted[] = {
    "nas.resumed_evaluations", "nas.genome_mismatches",
    "nas.failed_evaluations",  "nas.memo_hits",
    "nas.coalesced",           "nas.inherited_evaluations",
    "latency.probes",
};

/// Shared state between a coalesced duplicate group's leader job and its
/// followers. Deadlock-free by construction: dispatch is FIFO and the
/// leader always has a lower job index than every follower, so by the time
/// a follower runs, its leader is already running (or done) on another
/// worker and never waits on anything itself. The leader publishes exactly
/// once — on training success, or on the real exception that
/// execute_contained will treat as permanent (the attempt budget is
/// exhausted), so a permanently failing leader fails its followers with
/// the same error instead of hanging them.
struct CoalesceGroup {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  std::string error;
  const nas::EvaluationRecord* leader = nullptr;
  std::size_t throws = 0;  // real leader exceptions observed so far
};

void publish_success(CoalesceGroup& group, const nas::EvaluationRecord* rec) {
  std::lock_guard<std::mutex> lock(group.mu);
  group.leader = rec;
  group.ok = true;
  group.done = true;
  group.cv.notify_all();
}

void publish_throw_if_final(CoalesceGroup& group, const std::string& error,
                            std::size_t attempt_budget) {
  std::lock_guard<std::mutex> lock(group.mu);
  if (++group.throws >= attempt_budget && !group.done) {
    group.error = error;
    group.ok = false;
    group.done = true;
    group.cv.notify_all();
  }
}

}  // namespace

WorkflowEvaluator::WorkflowEvaluator(const TrainingLoop& loop,
                                     sched::ResourceManager& cluster,
                                     nas::SearchSpaceConfig space,
                                     std::uint64_t seed,
                                     lineage::LineageTracker* lineage)
    : loop_(&loop),
      cluster_(&cluster),
      space_(std::move(space)),
      seed_(seed),
      lineage_(lineage) {
  util::metrics::declare(own_metrics_, kCounted);
}

void WorkflowEvaluator::set_metrics(util::metrics::Registry* registry) {
  metrics_ = registry ? registry : &own_metrics_;
  util::metrics::declare(*metrics_, kCounted);
}

void WorkflowEvaluator::preload_records(
    std::vector<nas::EvaluationRecord> records) {
  for (auto& r : records) resume_pool_[r.model_id] = std::move(r);
}

void WorkflowEvaluator::flush_record(const nas::EvaluationRecord& record) {
  if (!lineage_) return;
  lineage_->record_evaluation(record);
  const std::size_t count = flushed_.fetch_add(1) + 1;
  if (crash_after_ > 0 && count >= crash_after_ && !crashed_.exchange(true)) {
    // Simulated process death: everything already flushed stays on disk;
    // every later write silently disappears, like a killed process.
    lineage_->seal();
  }
}

std::vector<nas::EvaluationRecord> WorkflowEvaluator::evaluate_generation(
    std::span<const nas::Genome> genomes, int generation) {
  return evaluate_generation(genomes, {}, generation);
}

std::vector<nas::EvaluationRecord> WorkflowEvaluator::evaluate_generation(
    std::span<const nas::Genome> genomes,
    std::span<const nas::Parentage> parents, int generation) {
  if (util::shutdown_requested()) {
    // Graceful stop (SIGINT/SIGTERM): every completed record is already
    // flushed to the commons, so a --resume run picks up exactly here.
    throw WorkflowInterrupted("shutdown requested before generation " +
                              std::to_string(generation));
  }
  util::trace::Scope gen_span("generation", "nas");
  gen_span.arg("generation", static_cast<double>(generation));
  gen_span.arg("genomes", static_cast<double>(genomes.size()));
  std::vector<nas::EvaluationRecord> records(genomes.size());

  // One job per genome. Each job owns a slot in `records`; jobs never touch
  // shared state, so they can run on any pool worker.
  std::vector<sched::Job> jobs;
  jobs.reserve(genomes.size());
  // Duplicate-coalescing groups for this generation, keyed by genome.
  std::unordered_map<std::string, std::shared_ptr<CoalesceGroup>> groups;
  namespace trace = util::trace;
  const int lane = trace::enabled() ? trace::current_tid() : 0;
  const std::size_t attempt_budget = cluster_->config().fault.max_retries + 1;
  const int base_id = next_model_id_;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const nas::Genome genome = genomes[i];
    const int model_id = base_id + static_cast<int>(i);
    nas::EvaluationRecord* slot = &records[i];
    // Identify the slot up front so a job that fails permanently still
    // leaves a record naming its genome.
    slot->model_id = model_id;
    slot->genome = genome;
    slot->generation = generation;

    // Resume hit: identical model id and genome from a previous run.
    const auto cached = resume_pool_.find(model_id);
    if (cached != resume_pool_.end()) {
      if (cached->second.failed) {
        // A failed record holds no training result worth replaying (and
        // should never have reached the commons anyway): retrain.
        util::log_warn("resume: model ", model_id,
                       " stored record is a failure marker; retraining");
      } else if (cached->second.genome.key() == genome.key()) {
        *slot = cached->second;
        slot->generation = generation;
        util::metrics::count(*metrics_, "nas.resumed_evaluations",
                             trace::kHostPid, lane,
                             {{"model_id", static_cast<double>(model_id)}});
        jobs.push_back(sched::Job{[slot] { return slot->virtual_seconds; }});
        continue;
      } else {
        // Stale commons (different seed or search config): the stored trail
        // is for another architecture, so it cannot be reused.
        util::log_warn("resume: model ", model_id, " genome mismatch (stored key=",
                       cached->second.genome.key(),
                       ", requested key=", genome.key(), "); retraining");
        util::metrics::count(*metrics_, "nas.genome_mismatches",
                             trace::kHostPid, lane,
                             {{"model_id", static_cast<double>(model_id)}});
      }
    }

    // Weight inheritance: warm-start from the first-named parent (the
    // tournament's first pick), resolved through the memo's canonical map
    // so a parent that was itself a cache replay (and thus wrote no
    // snapshots) redirects to the model that actually trained the genome —
    // identical weights, so kCold and kOn inherit the same tensors.
    // Resolved BEFORE the memo lookup: a child that will warm-start must
    // never be served a replay, because its result depends on the ancestor
    // — a cached record (trained from scratch or from a different parent)
    // would diverge from what a kCold run trains here.
    int ancestor = -1;
    if (loop_->config().inherit_weights && i < parents.size()) {
      const int raw = parents[i].parent_a >= 0 ? parents[i].parent_a
                                               : parents[i].parent_b;
      if (raw >= 0) {
        ancestor = memo_ ? memo_->canonical_model_of(raw) : raw;
        if (ancestor < 0) ancestor = raw;
      }
    }

    // Memo hit: this genome already has a journaled evaluation from an
    // earlier generation (or a warmed shared commons). Replay it under the
    // new model id: the pseudo-job reports the stored virtual duration so
    // the FIFO schedule — and therefore every later device placement — is
    // bit-identical to the run that trained it, and flushes the copied
    // record so the commons carries the same trails a cache-cold run
    // writes. `replayed` stays transient (never serialized). Only
    // parentless jobs are eligible: the memo admits only from-scratch
    // records, and warm-starting children bypass it entirely (above).
    if (memo_ && ancestor < 0) {
      if (const nas::EvaluationRecord* hit = memo_->lookup(genome)) {
        *slot = *hit;
        slot->model_id = model_id;
        slot->generation = generation;
        slot->replayed = true;
        jobs.push_back(sched::Job{[this, slot] {
          flush_record(*slot);
          return slot->virtual_seconds;
        }});
        continue;
      }
    }

    // Per-model deterministic seed independent of execution order. Under
    // the memo (kCold and kOn alike) the seed is keyed by the genome, not
    // the model id, so a duplicate genome trained from scratch produces
    // the byte-identical record its cached twin would replay.
    const bool genome_keyed = memo_ && memo_->mode() != nas::MemoMode::kOff;
    const std::uint64_t model_seed =
        genome_keyed
            ? nas::memo_model_seed(seed_, genome)
            : seed_ ^ (0x9E3779B97F4A7C15ULL *
                       static_cast<std::uint64_t>(model_id + 1));

    // Same-generation duplicate coalescing: genome-keyed seeds make
    // duplicate trainings bit-identical, so the first occurrence of a
    // genome (the leader) trains and every later duplicate (follower)
    // waits for the leader's record instead of re-paying the training.
    // A follower flushes exactly the bytes its own training would have
    // journaled — same record content, same virtual seconds (so the FIFO
    // schedule and every later device placement are unchanged) — only the
    // accounting (nas.coalesced) tells the difference. Warm-starting
    // children are excluded: their result depends on the ancestor, not
    // just the genome.
    std::shared_ptr<CoalesceGroup> group;
    if (coalesce_ && genome_keyed && ancestor < 0) {
      auto [it, inserted] = groups.try_emplace(genome.key(), nullptr);
      if (inserted) {
        it->second = std::make_shared<CoalesceGroup>();
        group = it->second;
      } else {
        std::shared_ptr<CoalesceGroup> leader = it->second;
        jobs.push_back(
            sched::Job{[this, leader, slot, model_id, generation] {
              std::unique_lock<std::mutex> lock(leader->mu);
              leader->cv.wait(lock, [&] { return leader->done; });
              if (!leader->ok)
                // Replicate the leader's permanent failure: the rethrown
                // error exhausts this job's own attempt budget too, so the
                // follower's placement fails with the same message a
                // non-coalesced duplicate training would have produced.
                throw std::runtime_error(leader->error);
              *slot = *leader->leader;
              lock.unlock();
              slot->model_id = model_id;
              slot->generation = generation;
              slot->coalesced = true;
              flush_record(*slot);
              return slot->virtual_seconds;
            }});
        continue;
      }
    }

    sched::Job job{[this, genome, model_id, model_seed, generation, ancestor,
                    slot, group, attempt_budget] {
      try {
        *slot = ancestor >= 0
                    ? loop_->train_genome_inherited(genome, space_, model_id,
                                                    model_seed, ancestor)
                    : loop_->train_genome(genome, space_, model_id,
                                          model_seed);
        slot->generation = generation;
        flush_record(*slot);
        if (group) publish_success(*group, slot);
        return slot->virtual_seconds;
      } catch (const std::exception& e) {
        if (group) publish_throw_if_final(*group, e.what(), attempt_budget);
        throw;
      } catch (...) {
        if (group)
          publish_throw_if_final(*group, "unknown exception", attempt_budget);
        throw;
      }
    }};

    // Remote offering: what a cluster worker needs to reproduce this job
    // bit-exactly (cluster::JobRequest schema), and how to install its
    // result. Training is deterministic given (genome, space, model_id,
    // seed), so a remote record is byte-identical to a local one — the
    // genome-keyed memo seed rides the same payload field, so workers need
    // no cache awareness. Inherited jobs stay local-only: workers have no
    // access to the master's ancestor snapshots.
    if (ancestor >= 0) {
      jobs.push_back(std::move(job));
      continue;
    }
    util::Json payload = util::Json::object();
    payload["job"] = 0.0;  // dispatch id, stamped by the master
    payload["model_id"] = model_id;
    payload["generation"] = generation;
    payload["seed"] = util::u64_to_hex(model_seed);
    payload["genome"] = genome.to_json();
    // Default mode keeps the historical wire bytes (key absent).
    if (objective_ != nas::ObjectiveMode::kFlops)
      payload["objective"] = std::string(nas::objective_mode_name(objective_));
    job.remote_payload =
        std::make_shared<const util::Json>(std::move(payload));
    job.apply_remote = [this, genome, model_id, generation, slot,
                        group](const util::Json& doc) {
      nas::EvaluationRecord record = nas::EvaluationRecord::from_json(doc);
      if (record.model_id != model_id)
        throw std::runtime_error("remote record names model " +
                                 std::to_string(record.model_id) +
                                 ", expected " + std::to_string(model_id));
      if (record.genome.key() != genome.key())
        throw std::runtime_error("remote record genome mismatch for model " +
                                 std::to_string(model_id));
      if (record.failed)
        throw std::runtime_error("remote record is a failure marker: " +
                                 record.error);
      *slot = std::move(record);
      slot->generation = generation;
      flush_record(*slot);
      // A leader served by a cluster worker still unblocks its followers.
      if (group) publish_success(*group, slot);
      return slot->virtual_seconds;
    };
    jobs.push_back(std::move(job));
  }
  next_model_id_ += static_cast<int>(genomes.size());

  const sched::GenerationSchedule schedule =
      cluster_->run_generation(std::move(jobs));
  // Single-threaded accounting pass, in record order: metric counters here
  // bit-match any ad-hoc sum over the history in the same order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].generation = generation;
    records[i].device_id = schedule.placements[i].device_id;
    const std::vector<trace::Arg> id_arg = {
        {"model_id", static_cast<double>(records[i].model_id)}};
    metrics_->counter("nas.evaluations").add();
    if (schedule.placements[i].failed) {
      // The job never produced a result: mark the record failed instead of
      // letting a default-constructed trail masquerade as a fitness-0.0,
      // 0-FLOPs evaluation in selection and the commons.
      records[i].failed = true;
      records[i].error = schedule.placements[i].error;
      util::metrics::count(*metrics_, "nas.failed_evaluations",
                           trace::kHostPid, lane, id_arg);
      util::log_error("model ", records[i].model_id,
                      " failed permanently after retries: ",
                      schedule.placements[i].error);
    }
    if (records[i].replayed) {
      // Honest engine accounting: a replayed record's journaled fit cost
      // (LM iterations, convergence checks) was paid once, by the
      // canonical evaluation. Re-counting it as fresh overhead would
      // inflate RunSummary's engine totals on every cache hit, so
      // replays land in their own counter.
      util::metrics::count(*metrics_, "nas.memo_hits", trace::kHostPid, lane,
                           id_arg);
      metrics_->counter("penguin.engine_overhead_replayed_seconds")
          .add(records[i].engine_overhead_seconds);
    } else if (records[i].coalesced && !records[i].failed) {
      // Same split for coalesced duplicates: their engine cost was paid
      // once, by the group leader.
      util::metrics::count(*metrics_, "nas.coalesced", trace::kHostPid, lane,
                           id_arg);
      metrics_->counter("penguin.engine_overhead_coalesced_seconds")
          .add(records[i].engine_overhead_seconds);
    } else {
      metrics_->counter("penguin.engine_overhead_seconds")
          .add(records[i].engine_overhead_seconds);
    }
    // Replayed records carry the canonical record's provenance, not a warm
    // start paid this run (and the memo admits only from-scratch records
    // anyway): count inheritance for fresh evaluations only, mirroring the
    // engine-overhead split, so RunSummary.inherited_starts stays equal to
    // train.inherited_starts.
    if (records[i].inherited_from_model >= 0 && !records[i].replayed)
      util::metrics::count(*metrics_, "nas.inherited_evaluations",
                           trace::kHostPid, lane, id_arg);
    // Hardware objectives: probe every record that does not already carry
    // a timing from *this* machine — fresh trainings, remote-trained
    // records, and memo/resume replays stamped on another host. Probing
    // happens here, before cache admission and the placement re-record, so
    // the memo and the commons both carry the probed fields; latency is
    // measured at the serving micro-batch geometry on the search machine,
    // never modeled and never trusted across hosts.
    if (probe_ && !records[i].failed &&
        records[i].latency_host != latency::host_fingerprint()) {
      util::Rng init_rng(nas::memo_model_seed(seed_, records[i].genome));
      nn::Model model =
          nas::decode_genome(records[i].genome, space_, init_rng);
      const latency::ProbeResult probed = probe_->probe(model);
      const latency::RooflineEstimate roofline =
          latency::roofline_estimate(model);
      records[i].latency_ms = probed.median_ms;
      records[i].latency_p99_ms = probed.p99_ms;
      records[i].bytes_moved = roofline.bytes_moved;
      records[i].arithmetic_intensity = roofline.arithmetic_intensity();
      records[i].latency_host = latency::host_fingerprint();
      util::metrics::count(
          *metrics_, "latency.probes", trace::kHostPid, lane,
          {{"model_id", static_cast<double>(records[i].model_id)},
           {"latency_ms", records[i].latency_ms},
           {"latency_p99_ms", records[i].latency_p99_ms},
           {"bytes_moved", static_cast<double>(records[i].bytes_moved)}});
    }
    // Cache admission happens here, in the single-threaded accounting
    // pass, so insertion order is deterministic and failures (which the
    // memo rejects anyway) have already been marked by the schedule.
    if (memo_ && !records[i].failed) memo_->insert(records[i]);
    if (trace::enabled()) {
      trace::emit_instant(
          "record.accounting", "nas", trace::now_us(), trace::kHostPid, lane,
          {{"model_id", static_cast<double>(records[i].model_id)},
           {"failed", records[i].failed ? 1.0 : 0.0},
           {"engine_overhead_seconds", records[i].engine_overhead_seconds},
           {"retries", static_cast<double>(schedule.placements[i].retries)},
           {"wasted_seconds", schedule.placements[i].wasted_seconds}});
    }
  }
  schedules_.push_back(schedule);

  if (lineage_) {
    // Re-record with the device placement stamped in (no-ops when sealed).
    // Failed records never reach the commons: a journaled failure would be
    // replayed on resume and fed to analytics as a real evaluation.
    for (const auto& record : records) {
      if (!record.failed) lineage_->record_evaluation(record);
    }
  }

  if (crashed_.load())
    throw WorkflowInterrupted(
        "workflow interrupted after flushing " +
        std::to_string(flushed_.load()) + " evaluation records");
  return records;
}

}  // namespace a4nn::orchestrator
