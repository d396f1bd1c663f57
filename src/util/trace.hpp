// Structured tracing: a thread-safe span recorder that emits Chrome trace
// format JSON (chrome://tracing, Perfetto, speedscope). Every workflow
// stage records spans here — per-epoch training, engine fits, scheduler
// placements, journal commits — so one artifact answers both "where did
// the host time go" and "what did the simulated cluster do".
//
// Two clock domains share the file as separate pseudo-processes:
//   pid kHostPid (1):    real spans, microseconds of host monotonic time,
//                        one lane (tid) per host thread.
//   pid kVirtualPid (2): the resource manager's simulated timeline,
//                        microseconds of *virtual* seconds, one lane per
//                        simulated GPU. Retries, backoff waste, and
//                        quarantines appear as events on the device lane,
//                        so scheduler-gap analysis reads straight off the
//                        trace.
//
// Off by default, with a hard zero-overhead-when-off guarantee: every
// entry point checks one relaxed atomic load and returns; no allocation,
// no locking, no clock read. Recording never touches RNG streams or float
// accumulation order, so an instrumented run is bit-identical to a bare
// one (test_determinism locks this in).
//
// Enable with trace::start() (the a4nn_run driver maps --trace-out and the
// A4NN_TRACE environment variable onto it), then trace::write(path) to
// serialize.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace a4nn::util::trace {

/// Pseudo-process ids: real host spans, the simulated device timeline, the
/// cluster master's per-worker lanes (host microseconds; dispatches,
/// re-dispatches, heartbeat losses, quarantines), and the streaming
/// scenario's supervision tree (producer/server/recovery lanes; trigger,
/// restart, and degraded-mode events).
inline constexpr int kHostPid = 1;
inline constexpr int kVirtualPid = 2;
inline constexpr int kClusterPid = 3;
inline constexpr int kStreamPid = 4;

/// True while the recorder is capturing. Hot paths gate on this.
bool enabled();

/// Begin capturing (clears any previous buffer and restarts the clock).
void start();

/// Stop capturing. The buffer is kept for write()/to_json().
void stop();

/// Drop every buffered event and lane name.
void clear();

/// Microseconds of host time since start(); 0.0 while disabled.
double now_us();

/// Numeric span/event argument (Chrome trace "args" entry).
struct Arg {
  std::string key;
  double value = 0.0;
};

/// Record a complete span ("ph":"X"). `ts_us`/`dur_us` are microseconds in
/// the pid's clock domain. No-op while disabled.
void emit_complete(std::string name, std::string cat, double ts_us,
                   double dur_us, int pid, int tid,
                   std::vector<Arg> args = {});

/// Record an instant event ("ph":"i", thread scope). No-op while disabled.
void emit_instant(std::string name, std::string cat, double ts_us, int pid,
                  int tid, std::vector<Arg> args = {});

/// Label a pseudo-process / lane. Names are retained across start()/stop()
/// (but not clear()) and serialized as metadata events.
void name_process(int pid, std::string name);
void name_thread(int pid, int tid, std::string name);

/// List `name` under the document's top-level "counted" key: a counter
/// whose same-named instants must number exactly its value (see
/// metrics::count). Retained like lane names: across start()/stop(), but
/// not clear().
void declare_counted(std::string name);

/// Dense id for the calling host thread (allocated on first use).
int current_tid();

/// Number of buffered events (metadata excluded). For tests.
std::size_t event_count();

/// Serialize the buffer as a Chrome-trace JSON document:
///   {"traceEvents": [...], "displayTimeUnit": "ms", "counted": [...],
///    ...extra}
/// ("counted" only when some name was declared).
/// `extra` top-level keys (e.g. a metrics snapshot) are merged in;
/// chrome://tracing and Perfetto ignore keys they do not know.
Json to_json(const Json* extra = nullptr);

/// Write to_json(extra) to `path` (pretty-printed). Returns false and logs
/// on I/O failure.
bool write(const std::filesystem::path& path, const Json* extra = nullptr);

/// RAII span on the calling host thread's lane. When tracing is off the
/// constructor reads one atomic and does nothing else.
class Scope {
 public:
  Scope(const char* name, const char* cat);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Attach a numeric argument (no-op when the scope is not recording).
  void arg(const char* key, double value);

 private:
  bool live_;
  const char* name_;
  const char* cat_;
  double start_us_ = 0.0;
  std::vector<Arg> args_;
};

}  // namespace a4nn::util::trace
