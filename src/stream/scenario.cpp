#include "stream/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "lineage/tracker.hpp"
#include "nn/dataset.hpp"
#include "nn/optimizer.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace a4nn::stream {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct RecoveryTask {
  std::uint64_t action_id = 0;
  std::size_t window_index = 0;
  std::vector<Frame> buffer;  ///< ring snapshot at the firing boundary
};

}  // namespace

util::Json StreamResult::to_json() const {
  util::Json j = util::Json::object();
  j["frames_produced"] = frames_produced;
  j["frames_served"] = frames_served;
  j["frames_corrupt_dropped"] = frames_corrupt_dropped;
  j["frames_unserved"] = frames_unserved;
  j["windows"] = windows;
  j["triggers_fired"] = triggers_fired;
  j["triggers_acked"] = triggers_acked;
  j["triggers_completed"] = triggers_completed;
  j["triggers_shed"] = triggers_shed;
  j["child_restarts"] = child_restarts;
  j["child_crashes"] = child_crashes;
  j["watchdog_stalls"] = watchdog_stalls;
  j["degraded_entries"] = degraded_entries;
  j["degraded"] = degraded;
  j["interrupted"] = interrupted;
  j["aborted"] = aborted;
  j["graceful_stop"] = graceful_stop;
  j["final_champion_model"] = final_champion_model;
  j["final_champion_epoch"] = final_champion_epoch;
  j["final_generation"] = final_generation;
  j["accuracy_overall"] = accuracy_overall;
  j["p99_outside_faults_ms"] = p99_outside_faults_ms;
  util::Json champs = util::Json::array();
  for (const auto& [model, epoch] : champions) {
    util::Json c = util::Json::object();
    c["model"] = model;
    c["epoch"] = epoch;
    champs.push_back(std::move(c));
  }
  j["champions"] = std::move(champs);
  util::Json wins = util::Json::array();
  for (std::size_t i = 0; i < window_history.size(); ++i) {
    const WindowStats& w = window_history[i];
    util::Json wj = util::Json::object();
    wj["index"] = w.index;
    wj["frames"] = w.frames;
    wj["accuracy"] = w.accuracy;
    wj["p99_latency_ms"] = w.p99_latency_ms;
    wj["fired"] = w.fired;
    wj["fault_tainted"] =
        i < window_fault_tainted.size() ? window_fault_tainted[i] : false;
    wins.push_back(std::move(wj));
  }
  j["window_history"] = std::move(wins);
  return j;
}

StreamScenario::StreamScenario(StreamConfig config)
    : config_(std::move(config)) {}

StreamResult StreamScenario::run() {
  namespace fs = std::filesystem;
  StreamResult result;

  if (config_.resume) {
    lineage::DataCommons commons(config_.commons_root);
    const auto report = commons.fsck(lineage::FsckMode::kQuick);
    if (!report.issues.empty())
      util::log_warn("stream: resume fsck quarantined ",
                     report.files_quarantined, " artifact(s)");
  }

  serve::RegistryConfig rc;
  rc.commons_root = config_.commons_root;
  rc.policy = config_.policy;
  rc.max_flops = config_.max_flops;
  rc.metrics = config_.metrics;
  serve::ModelRegistry registry(rc);
  registry.refresh();  // throws when the commons holds no servable champion
  const auto genesis_gen = registry.active();

  const std::size_t pixels = config_.producer.dataset.detector.pixels;
  if (genesis_gen->input_numel != pixels * pixels)
    throw std::invalid_argument(
        "StreamScenario: champion input (" +
        std::to_string(genesis_gen->input_numel) +
        " floats) does not match the detector (" + std::to_string(pixels) +
        "^2 pixels)");
  if (genesis_gen->num_classes < config_.producer.dataset.conformations)
    throw std::invalid_argument(
        "StreamScenario: champion has fewer classes than the stream has "
        "conformations");

  const fs::path journal_path = config_.journal_path.empty()
                                    ? config_.commons_root / "stream.journal"
                                    : config_.journal_path;
  TriggerJournal journal(journal_path, config_.durable);
  if (config_.journal_append_limit > 0)
    journal.set_append_limit(config_.journal_append_limit);
  try {
    journal.write_genesis(genesis_gen->info.model_id, genesis_gen->info.epoch);
  } catch (const StreamInterrupted&) {
    result.interrupted = true;
    result.journal_text = journal.text();
    return result;
  }

  // Resume bookkeeping: a resumed run replays the deterministic stream
  // from frame 0, so (a) windows a past action already covered must not
  // refire (the replayed stream is served by the *recovered* champion, so
  // accuracies differ, but the journal must not grow), and (b) a
  // fired-but-incomplete action re-executes when the replay reaches its
  // recorded window, with the identical ring buffer.
  DriftMonitor monitor(config_.drift);
  std::map<std::size_t, std::uint64_t> pending_at;  // window -> action id
  {
    std::size_t disarm = 0;
    for (const auto& [id, rec] : journal.actions()) {
      disarm = std::max(disarm,
                        rec.window_index + config_.drift.cooldown_windows + 1);
      if (rec.state != ActionState::kCompleted)
        pending_at[rec.window_index] = id;
    }
    monitor.disarm_until(disarm);
  }

  util::FaultConfig fault_config = config_.fault;
  if (fault_config.seed == 0) fault_config.seed = config_.seed ^ 0xA4A4ULL;
  const util::FaultInjector faults(fault_config);

  util::metrics::Registry own_metrics;
  util::metrics::Registry& metrics =
      config_.metrics ? *config_.metrics : own_metrics;
  static constexpr const char* kCounted[] = {
      "stream.windows",         "stream.triggers_fired",
      "stream.triggers_acked",  "stream.triggers_completed",
      "stream.triggers_shed",   "stream.corrupt_frames"};
  util::metrics::declare(metrics, kCounted);
  util::trace::name_process(util::trace::kStreamPid, "stream supervisor");

  serve::EngineConfig engine_config = config_.engine;
  if (config_.metrics) engine_config.metrics = config_.metrics;
  serve::InferenceEngine engine(registry, engine_config);
  if (config_.hint_service_time_ms > 0.0)
    engine.hint_service_time_ms(config_.hint_service_time_ms);

  FrameQueue queue(config_.queue_capacity);
  StreamProducer producer(config_.producer, queue, &faults);

  lineage::TrackerConfig tracker_config;
  tracker_config.root = config_.commons_root;
  tracker_config.snapshot_every = 1;
  tracker_config.durable = config_.durable;
  lineage::LineageTracker tracker(tracker_config);
  if (config_.metrics) tracker.set_metrics(config_.metrics);

  // Shared state between the three children.
  std::mutex rmutex;
  std::condition_variable rcv;      // recovery worker wake-ups
  std::condition_variable done_cv;  // pump waiting on a deterministic swap
  std::deque<RecoveryTask> tasks;
  std::set<std::uint64_t> done_actions;
  std::atomic<bool> recovery_dead{false};
  std::atomic<bool> action_inflight{false};
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> served_correct{0};
  std::atomic<std::size_t> corrupt_dropped{0};
  std::atomic<std::size_t> unserved{0};
  std::atomic<std::size_t> shed_count{0};

  SupervisorConfig sup_config;
  sup_config.metrics = config_.metrics;
  Supervisor sup(sup_config);
  sup.on_exhausted([&](const std::string& name) {
    if (name == "recovery") {
      // Serve-only degradation: the stale champion keeps serving; fired
      // windows are shed from here on.
      recovery_dead.store(true);
      action_inflight.store(false);
      std::lock_guard<std::mutex> lock(rmutex);
      done_cv.notify_all();
      rcv.notify_all();
    } else if (name == "producer") {
      // No more frames are coming; let the pump drain and finish.
      queue.close();
    }
    // "server" exhausted: the main loop observes it and aborts the run.
  });

  // ---- recovery action execution (recovery child thread) ----------------
  auto execute_action = [&](const RecoveryTask& task,
                            Supervisor::Context& ctx) {
    if (journal.ack(task.action_id))
      util::metrics::count(metrics, "stream.triggers_acked",
                           util::trace::kStreamPid, 3);
    ctx.heartbeat();
    lineage::DataCommons commons(config_.commons_root);

    // Deterministic fine-tune source chain: action 0 starts from the
    // journaled genesis champion, action n from action n-1's model —
    // pinned identities, never "whatever the registry serves right now",
    // so a resumed re-execution fine-tunes the same weights.
    int src_model;
    std::size_t src_epoch;
    if (task.action_id == 0) {
      src_model = journal.genesis_model_id();
      src_epoch = journal.genesis_epoch();
    } else {
      src_model =
          config_.recovery.model_id_base + static_cast<int>(task.action_id) - 1;
      src_epoch = config_.recovery.finetune_epochs;
    }
    nn::Model model = commons.load_model(src_model, src_epoch);
    const auto& shape = model.input_shape();

    nn::Dataset holdout(shape[0], shape[1], shape[2]);
    nn::Dataset train(shape[0], shape[1], shape[2]);
    const std::size_t hold_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(
               static_cast<double>(task.buffer.size()) *
               config_.recovery.holdout_fraction)));
    for (std::size_t i = 0; i < task.buffer.size(); ++i) {
      const Frame& f = task.buffer[i];
      (i < hold_n ? holdout : train).add_sample(f.image, f.truth);
    }
    if (train.size() == 0 || holdout.size() == 0)
      throw std::runtime_error("stream: recovery buffer too small to split");
    ctx.heartbeat();

    // Honest re-scoring: drift invalidated every record's validation
    // fitness, so every loadable model is re-evaluated on the drifted
    // holdout before the registry re-picks. This is what lets the
    // fine-tuned model win the Pareto pick on merit, deterministically.
    auto records = commons.load_records();
    std::map<int, double> rescored;
    for (const auto& rec : records) {
      if (rec.failed) continue;
      const auto epochs = commons.snapshot_epochs(rec.model_id);
      if (epochs.empty()) continue;
      try {
        nn::Model m = commons.load_model(rec.model_id, epochs.back());
        rescored[rec.model_id] = m.evaluate(holdout).accuracy;
      } catch (const std::exception&) {
        continue;  // corrupt snapshot: the registry will quarantine it
      }
      ctx.heartbeat();
    }

    util::Rng rng(mix64(config_.seed ^ (0xF17E0000ULL + task.action_id)));
    nn::Sgd opt(config_.recovery.learning_rate, config_.recovery.momentum);
    std::vector<double> train_acc;
    std::vector<double> train_loss;
    for (std::size_t e = 0; e < config_.recovery.finetune_epochs; ++e) {
      const auto m =
          model.train_epoch(train, config_.recovery.batch_size, opt, rng);
      train_acc.push_back(m.accuracy);
      train_loss.push_back(m.loss);
      ctx.heartbeat();
    }
    const double f_new = model.evaluate(holdout).accuracy;

    const int new_id =
        config_.recovery.model_id_base + static_cast<int>(task.action_id);
    tracker.record_model_epoch(new_id, config_.recovery.finetune_epochs,
                               model);

    const nas::EvaluationRecord* src_rec = nullptr;
    for (const auto& r : records)
      if (r.model_id == src_model) src_rec = &r;
    if (!src_rec)
      throw std::runtime_error("stream: missing record for source model " +
                               std::to_string(src_model));

    nas::EvaluationRecord nr = *src_rec;
    nr.model_id = new_id;
    nr.fitness = f_new;
    nr.measured_fitness = f_new;
    nr.flops = model.flops_per_image();
    nr.parameters = model.parameter_count();
    nr.epochs_trained = config_.recovery.finetune_epochs;
    nr.max_epochs = config_.recovery.finetune_epochs;
    nr.early_terminated = false;
    nr.resumed_from_epoch = 0;
    nr.fitness_history = {f_new};
    nr.train_accuracy_history = std::move(train_acc);
    nr.train_loss_history = std::move(train_loss);
    nr.prediction_history.clear();
    nr.epoch_virtual_seconds.clear();
    // No wall-clock data: the record must be byte-identical on replay.
    nr.wall_seconds = 0.0;
    nr.virtual_seconds = 0.0;
    nr.engine_overhead_seconds = 0.0;
    nr.device_id = -1;
    nr.failed = false;
    nr.error.clear();
    tracker.record_evaluation(nr);

    for (const auto& r : records) {
      if (r.failed) continue;
      const auto it = rescored.find(r.model_id);
      if (it == rescored.end()) continue;
      nas::EvaluationRecord rr = r;
      rr.fitness = it->second;
      rr.measured_fitness = it->second;
      tracker.record_evaluation(rr);
    }
    ctx.heartbeat();

    if (config_.after_promote_hook)
      config_.after_promote_hook(new_id, config_.recovery.finetune_epochs);
    // Hot-swap. A corrupt promoted model is quarantined here and the
    // registry falls back — the completion line records whatever champion
    // the registry actually settled on.
    registry.refresh();
    const auto active = registry.active();
    if (journal.complete(task.action_id, active->info.model_id,
                         active->info.epoch))
      util::metrics::count(metrics, "stream.triggers_completed",
                           util::trace::kStreamPid, 3);
  };

  auto recovery_body = [&](Supervisor::Context& ctx) {
    for (;;) {
      RecoveryTask task;
      {
        std::unique_lock<std::mutex> lock(rmutex);
        while (tasks.empty()) {
          if (ctx.stopping()) return;
          ctx.heartbeat();
          rcv.wait_for(lock, std::chrono::milliseconds(10));
        }
        task = tasks.front();  // copy; popped only after success, so a
                               // crashed attempt retries the same task
      }
      if (ctx.stopping()) return;
      ctx.heartbeat();
      if (faults.stream_recovery_crash(task.action_id, ctx.attempt()))
        throw std::runtime_error("injected recovery crash for action " +
                                 std::to_string(task.action_id));
      execute_action(task, ctx);
      {
        std::lock_guard<std::mutex> lock(rmutex);
        if (!tasks.empty() && tasks.front().action_id == task.action_id)
          tasks.pop_front();
        done_actions.insert(task.action_id);
        action_inflight.store(false);
        done_cv.notify_all();
      }
    }
  };

  // ---- serving pump (server child thread) -------------------------------
  auto server_body = [&](Supervisor::Context& ctx) {
    std::deque<std::pair<Frame, std::future<serve::Prediction>>> inflight;
    std::deque<Frame> ring;
    const std::size_t depth_bound =
        std::max<std::size_t>(1, 2 * engine_config.max_batch);
    const auto cancelled = [&] {
      ctx.heartbeat();
      return ctx.stopping();
    };

    auto dispatch_recovery = [&](std::uint64_t id, std::size_t window_index) {
      RecoveryTask task;
      task.action_id = id;
      task.window_index = window_index;
      task.buffer.assign(ring.begin(), ring.end());
      {
        std::lock_guard<std::mutex> lock(rmutex);
        if (done_actions.count(id)) return;
        tasks.push_back(std::move(task));
        action_inflight.store(true);
        rcv.notify_all();
      }
      if (config_.deterministic_swap) {
        // Hold the stream at the boundary until the swap lands, so the
        // champion change hits a deterministic point in the frame order.
        std::unique_lock<std::mutex> lock(rmutex);
        while (!done_actions.count(id) && !recovery_dead.load() &&
               !ctx.stopping()) {
          ctx.heartbeat();
          done_cv.wait_for(lock, std::chrono::milliseconds(10));
        }
      }
    };

    auto handle_window = [&](const WindowStats& w) {
      util::metrics::count(metrics, "stream.windows", util::trace::kStreamPid,
                           2);
      if (const auto it = pending_at.find(w.index); it != pending_at.end()) {
        dispatch_recovery(it->second, w.index);
        pending_at.erase(it);
      } else if (w.fired) {
        if (recovery_dead.load()) {
          shed_count.fetch_add(1);
          util::metrics::count(metrics, "stream.triggers_shed",
                               util::trace::kStreamPid, 2);
        } else {
          const std::uint64_t id = journal.next_action_id();
          if (journal.fire(id, w.index))
            util::metrics::count(metrics, "stream.triggers_fired",
                                 util::trace::kStreamPid, 2);
          dispatch_recovery(id, w.index);
        }
      }
    };

    auto resolve_one = [&] {
      Frame frame = std::move(inflight.front().first);
      std::future<serve::Prediction> fut =
          std::move(inflight.front().second);
      inflight.pop_front();
      const serve::Prediction p = fut.get();
      served.fetch_add(1);
      if (static_cast<std::int64_t>(p.label) == frame.truth)
        served_correct.fetch_add(1);
      const std::int64_t truth = frame.truth;
      ring.push_back(std::move(frame));
      while (ring.size() > config_.recovery.buffer_frames) ring.pop_front();
      monitor.set_pending(action_inflight.load());
      if (const auto w = monitor.observe(static_cast<std::int64_t>(p.label),
                                         truth, p.latency_ms))
        handle_window(*w);
    };

    for (;;) {
      if (ctx.stopping()) return;
      auto frame = queue.pop(cancelled);
      if (!frame) {
        if (ctx.stopping()) return;
        break;  // queue closed and drained
      }
      ctx.heartbeat();
      bool bad = frame->image.size() != registry.active()->input_numel;
      if (!bad)
        for (const float v : frame->image)
          if (!std::isfinite(v)) {
            bad = true;
            break;
          }
      if (bad) {
        corrupt_dropped.fetch_add(1);
        util::metrics::count(metrics, "stream.corrupt_frames",
                             util::trace::kStreamPid, 2);
        continue;
      }
      auto sub = engine.submit(frame->image);
      if (sub.admission != serve::Admission::kAccepted) {
        unserved.fetch_add(1);
        continue;
      }
      inflight.emplace_back(std::move(*frame), std::move(sub.prediction));
      while (inflight.size() >= depth_bound) resolve_one();
    }
    while (!inflight.empty() && !ctx.stopping()) resolve_one();
  };

  sup.spawn("producer", config_.producer_policy,
            [&](Supervisor::Context& ctx) { producer.run(ctx); }, 1);
  sup.spawn("server", config_.server_policy, server_body, 2);
  sup.spawn("recovery", config_.recovery_policy, recovery_body, 3);

  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (sup.interrupted()) break;
    if (sup.child_done("server")) break;
    if (sup.child_exhausted("server")) {
      result.aborted = true;
      break;
    }
    if (config_.stop_requested && config_.stop_requested()) {
      result.graceful_stop = true;
      break;
    }
    if (config_.max_wall_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (elapsed > config_.max_wall_seconds) {
        util::log_warn("stream: wall deadline expired, aborting");
        result.aborted = true;
        break;
      }
    }
  }
  sup.stop_all();
  engine.drain();

  result.interrupted = result.interrupted || sup.interrupted();
  result.degraded = sup.degraded();
  result.child_restarts = sup.restarts();
  result.child_crashes = sup.crashes();
  result.watchdog_stalls = sup.stalls();
  result.degraded_entries = sup.degraded_entries();

  result.frames_produced = producer.emitted();
  result.frames_served = served.load();
  result.frames_corrupt_dropped = corrupt_dropped.load();
  result.frames_unserved = unserved.load();
  result.accuracy_overall =
      served.load() == 0
          ? 0.0
          : 100.0 * static_cast<double>(served_correct.load()) /
                static_cast<double>(served.load());

  result.window_history = monitor.history();
  result.windows = monitor.windows_closed();

  // Fault-tainted windows from pure oracle replay (identical across runs):
  // a window is tainted when any producer frame mapped into it could have
  // drawn a stall/burst/spike/crash at any plausible restart attempt.
  {
    const std::size_t W = config_.drift.window_frames;
    const std::size_t produced = producer.emitted();
    result.window_fault_tainted.assign(result.windows, false);
    if (fault_config.enabled && result.windows > 0) {
      std::vector<bool> risky(produced, false);
      for (std::size_t i = 0; i < produced; ++i) {
        for (std::size_t a = 0; a <= config_.producer_policy.max_restarts;
             ++a) {
          if (faults.stream_stall(i, a) || faults.stream_crash(i, a))
            risky[i] = true;
          if (faults.stream_burst(i, a))
            for (std::size_t k = i;
                 k < std::min(produced, i + fault_config.stream_burst_frames);
                 ++k)
              risky[k] = true;
          if (faults.stream_rate_spike(i, a))
            for (std::size_t k = i;
                 k <
                 std::min(produced, i + fault_config.stream_rate_spike_frames);
                 ++k)
              risky[k] = true;
        }
      }
      std::size_t valid_seen = 0;
      for (std::size_t i = 0; i < produced; ++i) {
        const std::size_t w = valid_seen / W;
        if (w >= result.windows) break;
        if (risky[i]) result.window_fault_tainted[w] = true;
        if (!faults.stream_corrupt_frame(i)) ++valid_seen;
      }
    }
    double worst = 0.0;
    for (std::size_t w = 0; w < result.windows; ++w)
      if (!result.window_fault_tainted[w])
        worst = std::max(worst, result.window_history[w].p99_latency_ms);
    result.p99_outside_faults_ms = worst;
  }

  for (const auto& [id, rec] : journal.actions()) {
    if (rec.state == ActionState::kFired) ++result.triggers_fired;
    if (rec.state == ActionState::kAcked)
      result.triggers_fired += 1, result.triggers_acked += 1;
    if (rec.state == ActionState::kCompleted) {
      ++result.triggers_fired;
      ++result.triggers_acked;
      ++result.triggers_completed;
      result.champions.emplace_back(rec.champion_model_id,
                                    rec.champion_epoch);
    }
  }
  result.triggers_shed = shed_count.load();
  result.journal_text = journal.text();

  const auto final_gen = registry.active();
  result.final_champion_model = final_gen->info.model_id;
  result.final_champion_epoch = final_gen->info.epoch;
  result.final_generation = final_gen->info.generation;
  return result;
}

}  // namespace a4nn::stream
