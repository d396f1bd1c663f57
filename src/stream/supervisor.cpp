#include "stream/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "stream/journal.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace a4nn::stream {

using Clock = std::chrono::steady_clock;

/// Shared between the supervisor and one running incarnation of a child's
/// body; kept alive by shared_ptr so a reclaimed-but-still-exiting thread
/// can't touch freed state.
struct Supervisor::Context::Incarnation {
  std::atomic<bool> stop{false};
  std::atomic<Clock::rep> last_beat{Clock::now().time_since_epoch().count()};
  std::mutex mutex;
  std::condition_variable cv;

  void request_stop() {
    stop.store(true);
    cv.notify_all();
  }
};

void Supervisor::Context::heartbeat() {
  inc_->last_beat.store(Clock::now().time_since_epoch().count(),
                        std::memory_order_relaxed);
}

bool Supervisor::Context::stopping() const { return inc_->stop.load(); }

bool Supervisor::Context::sleep_ms(double ms) {
  if (ms <= 0.0) return !inc_->stop.load();
  std::unique_lock<std::mutex> lock(inc_->mutex);
  inc_->cv.wait_for(lock, std::chrono::duration<double, std::milli>(ms),
                    [&] { return inc_->stop.load(); });
  return !inc_->stop.load();
}

struct Supervisor::Child {
  std::string name;
  ChildPolicy policy;
  Body body;
  int tid = 0;
  std::thread thread;
  std::shared_ptr<Context::Incarnation> inc;
  std::size_t restarts = 0;
  ChildState state = ChildState::kRunning;
  std::string error;
  Clock::time_point restart_due;
};

Supervisor::Supervisor(SupervisorConfig config)
    : config_(config),
      metrics_(config_.metrics ? config_.metrics : &own_metrics_) {
  static constexpr const char* kCounted[] = {
      "stream.child_restarts", "stream.child_crashes",
      "stream.watchdog_stalls", "stream.degraded_entries"};
  util::metrics::declare(*metrics_, kCounted);
}

Supervisor::~Supervisor() { stop_all(); }

void Supervisor::on_exhausted(std::function<void(const std::string&)> cb) {
  on_exhausted_ = std::move(cb);
}

void Supervisor::spawn(std::string name, ChildPolicy policy, Body body,
                       int tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto child = std::make_unique<Child>();
  child->name = std::move(name);
  child->policy = policy;
  child->body = std::move(body);
  child->tid = tid;
  util::trace::name_thread(util::trace::kStreamPid, tid, child->name);
  start_incarnation(*child);
  children_.push_back(std::move(child));
  if (!monitor_started_) {
    monitor_started_ = true;
    monitor_ = std::thread([this] { monitor_loop(); });
  }
}

void Supervisor::start_incarnation(Child& child) {
  // Caller holds mutex_. The previous thread (if any) has already set a
  // terminal state and is returning; join is bounded.
  if (child.thread.joinable()) child.thread.join();
  child.inc = std::make_shared<Context::Incarnation>();
  child.state = ChildState::kRunning;
  auto inc = child.inc;
  const std::size_t attempt = child.restarts;
  Child* self = &child;
  child.thread = std::thread([this, self, inc, attempt] {
    Context ctx(inc, attempt);
    try {
      self->body(ctx);
      std::lock_guard<std::mutex> lock(mutex_);
      if (self->inc == inc) self->state = ChildState::kDone;
    } catch (const StreamInterrupted& e) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (self->inc == inc) {
          self->state = ChildState::kDone;
          self->error = e.what();
        }
      }
      interrupted_.store(true);
      util::log_warn("stream: " + self->name + " interrupted: " + e.what());
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (self->inc == inc) {
        self->state = ChildState::kCrashed;
        self->error = e.what();
        util::metrics::count(*metrics_, "stream.child_crashes",
                             util::trace::kStreamPid, self->tid);
        const double backoff = std::min(
            self->policy.backoff_cap_ms,
            self->policy.backoff_base_ms *
                std::pow(self->policy.backoff_multiplier,
                         static_cast<double>(self->restarts)));
        self->restart_due =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   backoff));
      }
    }
  });
}

void Supervisor::monitor_loop() {
  const auto poll =
      std::chrono::duration<double, std::milli>(std::max(config_.poll_ms, 1.0));
  while (!stop_.load()) {
    std::this_thread::sleep_for(poll);
    if (interrupted_.load()) {
      // Simulated kill: freeze the tree in place; stop_all() (driven by
      // the scenario) does the joining.
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& child : children_)
        if (child->inc) child->inc->request_stop();
      continue;
    }
    // Reaped threads are joined OUTSIDE mutex_: an exiting child wrapper
    // takes mutex_ to record its terminal state, so joining under the lock
    // would deadlock against a child that finished right at the deadline.
    std::vector<std::thread> reap;
    std::vector<std::string> exhausted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& child : children_) {
        if (child->state == ChildState::kRunning &&
            child->policy.watchdog_ms > 0.0 && child->inc) {
          const auto last = Clock::time_point(Clock::duration(
              child->inc->last_beat.load(std::memory_order_relaxed)));
          const double silent_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - last)
                  .count();
          if (silent_ms > child->policy.watchdog_ms) {
            util::metrics::count(*metrics_, "stream.watchdog_stalls",
                                 util::trace::kStreamPid, child->tid);
            util::log_warn("stream: watchdog: " + child->name +
                           " silent for " + std::to_string(silent_ms) +
                           "ms, reclaiming");
            child->inc->request_stop();
            // Detach the incarnation so a concurrently-exiting wrapper
            // (whose inc no longer matches) leaves the state to us.
            child->inc.reset();
            child->state = ChildState::kStalled;
            child->restart_due = Clock::now();
            reap.push_back(std::move(child->thread));
          }
        }
        if ((child->state == ChildState::kCrashed ||
             child->state == ChildState::kStalled) &&
            Clock::now() >= child->restart_due &&
            (!child->thread.joinable() || child->state == ChildState::kCrashed)) {
          if (child->restarts >= child->policy.max_restarts) {
            child->state = ChildState::kExhausted;
            degraded_.store(true);
            util::metrics::count(*metrics_, "stream.degraded_entries",
                                 util::trace::kStreamPid, child->tid);
            util::log_warn("stream: " + child->name +
                           " exhausted its restart budget — degraded mode");
            if (on_exhausted_) exhausted.push_back(child->name);
          } else {
            ++child->restarts;
            util::metrics::count(*metrics_, "stream.child_restarts",
                                 util::trace::kStreamPid, child->tid);
            start_incarnation(*child);
          }
        }
      }
    }
    for (auto& t : reap) t.join();
    for (const auto& name : exhausted) on_exhausted_(name);
  }
}

void Supervisor::stop_all() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& child : children_)
      if (child->inc) child->inc->request_stop();
  }
  if (monitor_.joinable()) monitor_.join();
  // Same rule as the monitor loop: join child threads OUTSIDE mutex_,
  // because an exiting wrapper takes it to record its terminal state.
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& child : children_)
      if (child->thread.joinable()) reap.push_back(std::move(child->thread));
  }
  for (auto& t : reap) t.join();
}

bool Supervisor::child_done(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& child : children_)
    if (child->name == name) return child->state == ChildState::kDone;
  return false;
}

bool Supervisor::child_exhausted(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& child : children_)
    if (child->name == name) return child->state == ChildState::kExhausted;
  return false;
}

std::string Supervisor::child_error(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& child : children_)
    if (child->name == name) return child->error;
  return {};
}

}  // namespace a4nn::stream
