// The cluster master: accepts worker connections, partitions each
// generation's evaluation jobs across them, and survives every network
// fault the workers and links can throw at it.
//
// It plugs into the scheduler as a sched::RemoteExecutor: pool threads
// block in evaluate() while the master's single I/O thread handshakes
// workers, places jobs capacity-aware (most free slots first, RAM as the
// tie-break), pings heartbeats, and re-dispatches the in-flight jobs of a
// dead worker with capped exponential backoff. Robustness rules:
//
//   - A worker is *dead* when its connection drops, a frame from it fails
//     CRC validation irrecoverably, or it misses the heartbeat deadline.
//     Its outstanding jobs go back to the queue (attempt + 1).
//   - A worker identity that keeps failing is quarantined after
//     `quarantine_after` failures — reconnects are rejected, mirroring the
//     scheduler's device quarantine semantics.
//   - A job that exhausts `max_attempts` dispatches, or becomes
//     dispatchable while zero workers are reachable, is *declined*:
//     evaluate() returns nullopt and the scheduler runs the job locally.
//     The master therefore degrades to single-process execution instead
//     of wedging — with zero workers a cluster run IS the solo run.
//   - A result frame for an unknown or already-reassigned job id (a stale
//     reply racing a re-dispatch) is dropped, never committed.
//   - Backoff jitter and injected faults draw from the seeded hash stream
//     (util/fault), never the wall clock, so a faulty run's decision
//     sequence replays deterministically.
//
// Accounting: every counter lands in the attached metrics registry under
// "cluster.*". Counted events go through util::metrics::count, which emits
// the same-named instant on the trace's pid-3 lanes (one lane per worker);
// each remote result also closes a job.remote span. scripts/check_trace.py
// cross-checks both exactly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/transport.hpp"
#include "sched/remote.hpp"
#include "util/fault.hpp"
#include "util/frame.hpp"
#include "util/metrics.hpp"

namespace a4nn::cluster {

struct MasterOptions {
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;  // 0: ephemeral; read back with port()
  /// CRC-32 digest of the run-configuration JSON; a Hello with a different
  /// digest is rejected (the worker would compute different results).
  std::uint32_t config_crc = 0;
  int heartbeat_interval_ms = 200;
  /// A worker silent for longer than this is declared dead.
  int heartbeat_timeout_ms = 2000;
  /// Dispatch attempts per job before evaluate() declines it (the
  /// scheduler then runs it locally).
  std::size_t max_attempts = 5;
  /// Worker failures (disconnect, heartbeat loss, corrupt frames) before
  /// the worker identity is quarantined for the rest of the run.
  std::size_t quarantine_after = 3;
  /// Capped exponential re-dispatch backoff (host milliseconds), jittered
  /// from the seeded hash stream.
  double backoff_base_ms = 50.0;
  double backoff_multiplier = 2.0;
  double backoff_cap_ms = 2000.0;
  /// Deterministic fault injection (partition/torn-frame on dispatch) and
  /// backoff jitter. `fault.seed` falls back to `seed` when 0.
  util::FaultConfig fault;
  std::uint64_t seed = 0;
};

class Master : public sched::RemoteExecutor {
 public:
  explicit Master(MasterOptions options);
  ~Master() override;

  std::uint16_t port() const { return listener_.port(); }

  /// Stop serving: close every connection, decline every queued job, join
  /// the I/O thread. Idempotent; the destructor calls it.
  void stop();

  /// Welcomed, live workers right now.
  std::size_t connected_workers() const;

  /// Block until at least `n` workers are welcomed or `timeout_ms` passes.
  bool wait_for_workers(std::size_t n, int timeout_ms);

  // sched::RemoteExecutor
  std::optional<util::Json> evaluate(const util::Json& payload) override;
  void set_metrics(util::metrics::Registry* registry) override;

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    util::Json payload;
    int model_id = -1;
    std::size_t attempts = 0;  // dispatches so far
    /// Host steady-clock ms before which this job may not be re-dispatched.
    double not_before_ms = 0.0;
    /// Id of the connection currently running the job; 0 when queued.
    std::uint64_t assigned_conn = 0;
    double dispatched_us = 0.0;  // trace timestamp of the last dispatch
    bool done = false;
    std::optional<util::Json> result;
    std::condition_variable cv;
  };

  struct Connection {
    std::uint64_t id = 0;  // stable handle; conns_ gets swept, indices do not
    TcpConn conn;
    util::StreamDecoder decoder;
    std::size_t corrupt_seen = 0;  // decoder corrupt count already tallied
    bool welcomed = false;
    Hello hello;
    std::size_t worker_index = 0;  // stable per identity, assigned at first Hello
    double last_recv_ms = 0.0;
    std::size_t outstanding = 0;
  };

  void io_loop();
  double now_ms() const;

  // All private helpers below run on the I/O thread with mutex_ held.
  void pump_connection(Connection& conn);
  void handle_frame(Connection& conn, const util::WireFrame& frame);
  void fail_connection(Connection& conn, const char* why);
  void dispatch_ready_jobs();
  void finish_job(PendingJob& job, std::optional<util::Json> result);

  MasterOptions options_;
  TcpListener listener_;
  util::FaultInjector injector_;

  mutable std::mutex mutex_;
  std::condition_variable workers_cv_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::map<std::uint64_t, std::unique_ptr<PendingJob>> jobs_;
  std::deque<std::uint64_t> queue_;
  /// Worker identity -> failure count / quarantine flag / stable index.
  std::map<std::string, std::size_t> failures_;
  std::map<std::string, bool> quarantined_;
  std::map<std::string, std::size_t> worker_indices_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t dispatch_counter_ = 0;
  double last_heartbeat_ms_ = 0.0;
  /// Counts made while no registry is attached (pre-run handshakes);
  /// flushed into the registry by set_metrics so counters always equal
  /// their pid-3 trace instants.
  util::metrics::Registry pending_;
  util::metrics::Registry* metrics_ = &pending_;
  bool stopping_ = false;

  std::thread io_thread_;
};

}  // namespace a4nn::cluster
