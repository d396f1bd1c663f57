// Supervision tree for the streaming loop: runs the producer, the serving
// pump, and the recovery worker as monitored children, in the spirit of
// the sched/cluster quarantine ladder.
//
// Each child gets a policy: a watchdog deadline (heartbeat silence →
// declared stalled, incarnation stopped and restarted), capped exponential
// restart backoff, and a restart budget. A child body that throws is a
// crash (restart); a body that returns is done (no restart); a body that
// throws StreamInterrupted is a simulated kill (stop the whole tree, no
// restart — resume happens in a fresh run via the trigger journal). When a
// child exhausts its restarts the supervisor escalates to degraded mode
// and notifies the scenario, which walks the degradation ladder: recovery
// dead → serve-only (shed re-search triggers); producer dead → drain and
// finish; server dead → abort the run.
//
// Child bodies cooperate through Supervisor::Context: heartbeat() feeds
// the watchdog, stopping() observes stop/restart requests, and sleep_ms()
// sleeps interruptibly so a stalled-but-sleeping child can be reclaimed
// without detaching threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.hpp"

namespace a4nn::stream {

struct ChildPolicy {
  std::size_t max_restarts = 3;
  double backoff_base_ms = 10.0;
  double backoff_multiplier = 2.0;
  double backoff_cap_ms = 200.0;
  /// Heartbeat-silence deadline; 0 disables the watchdog for this child.
  double watchdog_ms = 0.0;
};

struct SupervisorConfig {
  double poll_ms = 5.0;
  /// stream.* counters land here (nullable: the supervisor then counts
  /// into a registry it owns; must outlive the supervisor).
  util::metrics::Registry* metrics = nullptr;
};

class Supervisor {
 public:
  class Context {
   public:
    void heartbeat();
    bool stopping() const;
    /// Interruptible sleep; false when woken by a stop request.
    bool sleep_ms(double ms);
    /// Restart count of this incarnation (0 for the first run).
    std::size_t attempt() const { return attempt_; }

   private:
    friend class Supervisor;
    struct Incarnation;
    explicit Context(std::shared_ptr<Incarnation> inc, std::size_t attempt)
        : inc_(std::move(inc)), attempt_(attempt) {}
    std::shared_ptr<Incarnation> inc_;
    std::size_t attempt_ = 0;
  };
  using Body = std::function<void(Context&)>;

  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Called (from the monitor thread) when a child exhausts its restart
  /// budget, with the child's name. Set before spawn().
  void on_exhausted(std::function<void(const std::string&)> callback);

  /// Start a monitored child. `tid` is the child's trace lane on
  /// util::trace::kStreamPid.
  void spawn(std::string name, ChildPolicy policy, Body body, int tid);

  /// Signal every incarnation to stop and join all threads (children and
  /// monitor). Idempotent; the destructor calls it.
  void stop_all();

  bool degraded() const { return degraded_.load(); }
  /// A child threw StreamInterrupted (simulated kill): the tree is
  /// stopping and the scenario should surface an interrupted result.
  bool interrupted() const { return interrupted_.load(); }

  bool child_done(const std::string& name) const;
  bool child_exhausted(const std::string& name) const;
  std::string child_error(const std::string& name) const;

  std::size_t restarts() const { return read("stream.child_restarts"); }
  std::size_t crashes() const { return read("stream.child_crashes"); }
  std::size_t stalls() const { return read("stream.watchdog_stalls"); }
  std::size_t degraded_entries() const {
    return read("stream.degraded_entries");
  }

 private:
  enum class ChildState { kRunning, kDone, kCrashed, kStalled, kExhausted };
  struct Child;

  void start_incarnation(Child& child);
  void monitor_loop();
  std::size_t read(const char* counter) const {
    return static_cast<std::size_t>(metrics_->counter(counter).value());
  }

  SupervisorConfig config_;
  std::function<void(const std::string&)> on_exhausted_;
  util::metrics::Registry own_metrics_;
  util::metrics::Registry* metrics_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Child>> children_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> interrupted_{false};
  std::thread monitor_;
  bool monitor_started_ = false;
  bool stopped_ = false;
};

}  // namespace a4nn::stream
