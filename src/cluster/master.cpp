#include "cluster/master.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/log.hpp"
#include "util/trace.hpp"

namespace a4nn::cluster {

namespace {

/// Lane 0 on the cluster pid is the master itself (fallbacks with no
/// worker attached); worker `i` gets lane `i + 1`.
constexpr int kMasterLane = 0;

using util::metrics::count;
using util::trace::kClusterPid;

int worker_lane(std::size_t worker_index) {
  return static_cast<int>(worker_index) + 1;
}

/// Every count the master emits through count(), as a same-named pid-3
/// instant on the lane of the worker involved. Remote results are counted
/// separately ("cluster.remote_results"), against their job.remote spans.
constexpr const char* kCounted[] = {
    "cluster.local_fallbacks",    "cluster.dispatches",
    "cluster.redispatches",       "cluster.worker_failures",
    "cluster.worker_quarantines", "cluster.heartbeat_timeouts",
    "cluster.stale_results",      "cluster.corrupt_frames",
    "cluster.corrupt_results",    "cluster.worker_connects",
    "cluster.worker_rejects",     "cluster.injected_partitions",
    "cluster.injected_torn_frames",
};

}  // namespace

Master::Master(MasterOptions options)
    : options_(std::move(options)),
      listener_(options_.bind, options_.port),
      injector_([&] {
        util::FaultConfig fc = options_.fault;
        if (fc.seed == 0) fc.seed = options_.seed;
        // The injector's backoff knobs are reused for the master's
        // re-dispatch delay, in host milliseconds instead of virtual
        // seconds — jittered_backoff_seconds() then reads as ms directly.
        fc.backoff_base_seconds = options_.backoff_base_ms;
        fc.backoff_multiplier = options_.backoff_multiplier;
        fc.backoff_cap_seconds = options_.backoff_cap_ms;
        return fc;
      }()) {
  if (util::trace::enabled()) {
    util::trace::name_process(kClusterPid, "cluster master");
    util::trace::name_thread(kClusterPid, kMasterLane, "master");
  }
  util::metrics::declare(pending_, kCounted);
  last_heartbeat_ms_ = now_ms();
  io_thread_ = std::thread([this] { io_loop(); });
}

Master::~Master() { stop(); }

double Master::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Master::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    const std::string bye = cluster::encode(MsgType::kShutdown);
    for (auto& c : conns_) {
      if (c->conn.valid()) c->conn.send_all(bye);
      c->conn.close();
    }
    for (auto& [id, job] : jobs_) {
      if (!job->done) finish_job(*job, std::nullopt);
    }
    queue_.clear();
    workers_cv_.notify_all();
  }
  if (io_thread_.joinable()) io_thread_.join();
  listener_.close();
}

std::size_t Master::connected_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& c : conns_)
    if (c->welcomed && c->conn.valid()) ++n;
  return n;
}

bool Master::wait_for_workers(std::size_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto live = [&] {
    std::size_t k = 0;
    for (const auto& c : conns_)
      if (c->welcomed && c->conn.valid()) ++k;
    return k;
  };
  return workers_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [&] { return stopping_ || live() >= n; }) &&
         !stopping_;
}

void Master::set_metrics(util::metrics::Registry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = registry ? registry : &pending_;
  if (!registry) return;
  util::metrics::declare(*registry, kCounted);
  // Events counted before the run attached its registry (worker handshakes
  // happen while the master is waiting for --min-workers) were buffered;
  // flush them so the counters match the pid-3 trace events exactly.
  const util::Json pending = pending_.snapshot();
  for (const auto& [name, value] : pending.at("counters").as_object())
    registry->counter(name).add(value.as_number());
  pending_.reset();
}

std::optional<util::Json> Master::evaluate(const util::Json& payload) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return std::nullopt;

  // Fast path: with no reachable worker the cluster degrades to local
  // execution immediately — queueing would only add I/O-tick latency.
  const bool any_worker = std::any_of(
      conns_.begin(), conns_.end(),
      [](const auto& c) { return c->welcomed && c->conn.valid(); });
  if (!any_worker) {
    count(*metrics_, "cluster.local_fallbacks", kClusterPid, kMasterLane);
    return std::nullopt;
  }

  const std::uint64_t id = next_job_id_++;
  auto owned = std::make_unique<PendingJob>();
  PendingJob& job = *owned;
  job.id = id;
  job.payload = payload;
  job.payload["job"] = static_cast<double>(id);
  if (payload.contains("model_id"))
    job.model_id = static_cast<int>(payload.at("model_id").as_number());
  jobs_.emplace(id, std::move(owned));
  queue_.push_back(id);

  job.cv.wait(lock, [&] { return job.done; });
  std::optional<util::Json> result = std::move(job.result);
  jobs_.erase(id);
  return result;
}

void Master::finish_job(PendingJob& job, std::optional<util::Json> result) {
  job.done = true;
  job.result = std::move(result);
  job.assigned_conn = 0;
  job.cv.notify_all();
}

void Master::io_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      const double now = now_ms();

      // New connections (drain everything pending this tick).
      for (;;) {
        TcpConn c = listener_.accept(0);
        if (!c.valid()) break;
        auto conn = std::make_unique<Connection>();
        conn->id = next_conn_id_++;
        conn->conn = std::move(c);
        conn->last_recv_ms = now;
        conns_.push_back(std::move(conn));
      }

      // Inbound bytes -> frames -> messages.
      for (auto& c : conns_) pump_connection(*c);

      // Heartbeats out, liveness in.
      if (now - last_heartbeat_ms_ >= options_.heartbeat_interval_ms) {
        last_heartbeat_ms_ = now;
        const std::string ping = cluster::encode(MsgType::kHeartbeat);
        for (auto& c : conns_) {
          if (!c->welcomed || !c->conn.valid()) continue;
          if (!c->conn.send_all(ping)) fail_connection(*c, "send_failed");
        }
      }
      for (auto& c : conns_) {
        if (!c->conn.valid()) continue;
        if (now - c->last_recv_ms > options_.heartbeat_timeout_ms) {
          count(*metrics_, "cluster.heartbeat_timeouts", kClusterPid,
                c->welcomed ? worker_lane(c->worker_index) : kMasterLane);
          fail_connection(*c, "heartbeat_timeout");
        }
      }

      // Sweep closed connections (ids keep job bookkeeping stable).
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const auto& c) {
                                    return !c->conn.valid();
                                  }),
                   conns_.end());

      dispatch_ready_jobs();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Master::pump_connection(Connection& conn) {
  if (!conn.conn.valid()) return;
  char buf[16 * 1024];
  for (;;) {
    const int n = conn.conn.recv_some(buf, sizeof(buf), 0);
    if (n == 0) break;  // nothing more this tick
    if (n < 0) {
      fail_connection(conn, "connection_closed");
      return;
    }
    conn.last_recv_ms = now_ms();
    conn.decoder.feed(buf, static_cast<std::size_t>(n));
  }
  // Corrupt frames are survivable (the decoder resyncs); count them so the
  // corruption sweep can assert nothing corrupt was committed silently.
  while (conn.decoder.corrupt_frames() > conn.corrupt_seen) {
    ++conn.corrupt_seen;
    count(*metrics_, "cluster.corrupt_frames", kClusterPid,
          conn.welcomed ? worker_lane(conn.worker_index) : kMasterLane);
  }
  util::WireFrame frame;
  while (conn.conn.valid() && conn.decoder.next(frame)) {
    handle_frame(conn, frame);
  }
}

void Master::handle_frame(Connection& conn, const util::WireFrame& frame) {
  if (!known_type(frame.type)) {
    // CRC-valid payload under a garbage type byte: a resync landed inside
    // hostile bytes. Treat the stream as poisoned.
    count(*metrics_, "cluster.corrupt_frames", kClusterPid,
          conn.welcomed ? worker_lane(conn.worker_index) : kMasterLane);
    fail_connection(conn, "unknown_message_type");
    return;
  }
  const auto type = static_cast<MsgType>(frame.type);
  util::Json body;
  try {
    body = parse_body(frame);
  } catch (const std::exception&) {
    count(*metrics_, "cluster.corrupt_frames", kClusterPid,
          conn.welcomed ? worker_lane(conn.worker_index) : kMasterLane);
    fail_connection(conn, "malformed_body");
    return;
  }

  try {
    switch (type) {
      case MsgType::kHello: {
        if (conn.welcomed) {
          fail_connection(conn, "duplicate_hello");
          return;
        }
        const Hello hello = Hello::from_json(body);
        std::string reject_reason;
        if (hello.protocol != kProtocolVersion)
          reject_reason = "protocol version mismatch";
        else if (hello.config_crc != options_.config_crc)
          reject_reason = "config digest mismatch";
        else if (quarantined_[hello.worker])
          reject_reason = "worker quarantined";
        if (!reject_reason.empty()) {
          Reject r;
          r.reason = reject_reason;
          conn.conn.send_all(cluster::encode(MsgType::kReject, r.to_json()));
          conn.conn.close();
          count(*metrics_, "cluster.worker_rejects", kClusterPid, kMasterLane);
          return;
        }
        conn.hello = hello;
        auto [it, fresh] = worker_indices_.emplace(hello.worker,
                                                   worker_indices_.size());
        conn.worker_index = it->second;
        conn.welcomed = true;
        if (util::trace::enabled() && fresh) {
          util::trace::name_thread(util::trace::kClusterPid,
                                   worker_lane(conn.worker_index),
                                   "worker " + hello.worker);
        }
        Welcome w;
        w.worker_index = conn.worker_index;
        if (!conn.conn.send_all(
                cluster::encode(MsgType::kWelcome, w.to_json()))) {
          fail_connection(conn, "send_failed");
          return;
        }
        count(*metrics_, "cluster.worker_connects", kClusterPid,
              worker_lane(conn.worker_index));
        util::log_info("cluster: worker '", hello.worker, "' joined (threads=",
                       hello.threads, ", ram=", hello.ram_bytes, ")");
        workers_cv_.notify_all();
        break;
      }
      case MsgType::kHeartbeatAck:
        break;  // last_recv_ms already refreshed in pump_connection
      case MsgType::kJobResult: {
        const JobResult res = JobResult::from_json(body);
        auto it = jobs_.find(res.job);
        if (it == jobs_.end() || it->second->done ||
            it->second->assigned_conn != conn.id) {
          // Unknown id, already-finished job, or a reply racing its own
          // re-dispatch. Either way the commons must not see it twice.
          count(*metrics_, "cluster.stale_results", kClusterPid,
                worker_lane(conn.worker_index));
          break;
        }
        PendingJob& job = *it->second;
        const bool id_matches =
            res.record.is_object() && res.record.contains("model_id") &&
            static_cast<int>(res.record.at("model_id").as_number()) ==
                job.model_id;
        if (!id_matches) {
          // CRC-valid frame carrying the wrong model's record: a worker
          // bug, not line noise. Never commit it; retry elsewhere.
          count(*metrics_, "cluster.corrupt_results", kClusterPid,
                worker_lane(conn.worker_index));
          if (conn.outstanding > 0) --conn.outstanding;
          job.assigned_conn = 0;
          job.not_before_ms =
              now_ms() + injector_.jittered_backoff_seconds(
                             0, static_cast<std::size_t>(job.id), job.attempts);
          queue_.push_back(job.id);
          fail_connection(conn, "corrupt_result");
          break;
        }
        if (conn.outstanding > 0) --conn.outstanding;
        metrics_->counter("cluster.remote_results").add(1.0);
        if (util::trace::enabled()) {
          const double end_us = util::trace::now_us();
          util::trace::emit_complete(
              "job.remote", "cluster", job.dispatched_us,
              std::max(0.0, end_us - job.dispatched_us),
              util::trace::kClusterPid, worker_lane(conn.worker_index),
              {{"model_id", static_cast<double>(job.model_id)},
               {"attempt", static_cast<double>(job.attempts)}});
        }
        finish_job(job, res.record);
        break;
      }
      default:
        // Master-bound streams never carry master->worker message types.
        fail_connection(conn, "unexpected_message");
        break;
    }
  } catch (const std::exception& e) {
    util::log_warn("cluster: dropping worker after bad '",
                   type_name(type), "' message: ", e.what());
    count(*metrics_, "cluster.corrupt_frames", kClusterPid,
          conn.welcomed ? worker_lane(conn.worker_index) : kMasterLane);
    fail_connection(conn, "bad_message_body");
  }
}

void Master::fail_connection(Connection& conn, const char* why) {
  if (!conn.conn.valid() && conn.outstanding == 0 && !conn.welcomed) return;
  conn.conn.close();
  const int lane =
      conn.welcomed ? worker_lane(conn.worker_index) : kMasterLane;
  if (conn.welcomed) {
    count(*metrics_, "cluster.worker_failures", kClusterPid, lane);
    util::log_warn("cluster: worker '", conn.hello.worker, "' failed (", why,
                   ")");
    const std::size_t fails = ++failures_[conn.hello.worker];
    if (fails >= options_.quarantine_after &&
        !quarantined_[conn.hello.worker]) {
      quarantined_[conn.hello.worker] = true;
      count(*metrics_, "cluster.worker_quarantines", kClusterPid, lane);
      util::log_warn("cluster: quarantining worker '", conn.hello.worker,
                     "' after ", fails, " failures");
    }
  }
  // Put every in-flight job back in the queue behind a jittered backoff.
  const double now = now_ms();
  for (auto& [id, job] : jobs_) {
    if (job->done || job->assigned_conn != conn.id) continue;
    job->assigned_conn = 0;
    job->not_before_ms =
        now + injector_.jittered_backoff_seconds(
                  0, static_cast<std::size_t>(job->id), job->attempts);
    queue_.push_back(id);
  }
  conn.outstanding = 0;
  conn.welcomed = false;
}

void Master::dispatch_ready_jobs() {
  if (queue_.empty()) return;
  const double now = now_ms();

  std::vector<Connection*> workers;
  for (auto& c : conns_)
    if (c->welcomed && c->conn.valid()) workers.push_back(c.get());

  std::deque<std::uint64_t> keep;
  while (!queue_.empty()) {
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->done ||
        it->second->assigned_conn != 0)
      continue;  // finished or re-assigned while queued
    PendingJob& job = *it->second;

    if (workers.empty()) {
      // Nobody reachable: degrade to local execution instead of wedging.
      count(*metrics_, "cluster.local_fallbacks", kClusterPid, kMasterLane);
      finish_job(job, std::nullopt);
      continue;
    }
    if (job.attempts >= options_.max_attempts) {
      count(*metrics_, "cluster.local_fallbacks", kClusterPid, kMasterLane);
      finish_job(job, std::nullopt);
      continue;
    }
    if (job.not_before_ms > now) {
      keep.push_back(id);
      continue;
    }

    // Capacity-aware placement: most free slots first, more RAM breaking
    // ties, then the stable worker index so placement is reproducible.
    Connection* best = nullptr;
    for (Connection* w : workers) {
      if (w->outstanding >= w->hello.threads) continue;
      if (!best) {
        best = w;
        continue;
      }
      const std::size_t free_b = best->hello.threads - best->outstanding;
      const std::size_t free_w = w->hello.threads - w->outstanding;
      if (free_w > free_b ||
          (free_w == free_b &&
           (w->hello.ram_bytes > best->hello.ram_bytes ||
            (w->hello.ram_bytes == best->hello.ram_bytes &&
             w->worker_index < best->worker_index))))
        best = w;
    }
    if (!best) {
      keep.push_back(id);  // all workers saturated; retry next tick
      continue;
    }

    ++job.attempts;
    const std::uint64_t dispatch_epoch = dispatch_counter_++;
    job.assigned_conn = best->id;
    job.dispatched_us = util::trace::now_us();
    ++best->outstanding;
    count(*metrics_,
          job.attempts > 1 ? "cluster.redispatches" : "cluster.dispatches",
          kClusterPid, worker_lane(best->worker_index));

    const std::string bytes =
        cluster::encode(MsgType::kJobRequest, job.payload);
    if (injector_.torn_frame(dispatch_epoch, best->worker_index,
                             job.attempts)) {
      count(*metrics_, "cluster.injected_torn_frames", kClusterPid,
            worker_lane(best->worker_index));
      best->conn.send_torn(bytes, bytes.size() / 2);
      fail_connection(*best, "injected_torn_frame");
    } else if (!best->conn.send_all(bytes)) {
      fail_connection(*best, "send_failed");
    } else if (injector_.network_partition(dispatch_epoch, best->worker_index,
                                           job.attempts)) {
      count(*metrics_, "cluster.injected_partitions", kClusterPid,
            worker_lane(best->worker_index));
      fail_connection(*best, "injected_partition");
    }
    if (!best->conn.valid()) {
      workers.erase(std::find(workers.begin(), workers.end(), best));
      // fail_connection requeued the job (and anything else in flight).
    }
  }
  queue_ = std::move(keep);
}

}  // namespace a4nn::cluster
