// Typed metrics registry: counters, gauges, and fixed-bin histograms that
// the workflow layers (training loop, prediction engine, scheduler,
// lineage journal, GEMM driver) increment at their accounting points.
//
// Design constraints, in order:
//   1. Determinism: reading or writing a metric never perturbs RNG streams,
//      float summation order, or scheduling — a run with metrics attached
//      is bit-identical to one without.
//   2. Exactness: a counter incremented at the same code point, in the same
//      order, as an ad-hoc accumulator holds the bit-identical value, so
//      RunSummary totals can become derived views of the registry instead
//      of hand-threaded sums.
//   3. Hot-path safety: increments are lock-free (one relaxed atomic RMW);
//      only first-time registration of a name takes a mutex.
//
// Instruments are registered lazily by name and live as long as their
// registry; references returned by counter()/gauge()/histogram() are
// stable. `snapshot()` serializes everything into one util::Json document
// (the RunSummary `metrics` block and the trace file's `metrics` key).
//
// Counted events (a worker failing, a trigger firing, a memo replay) go
// through count(): one call bumps the counter and emits the trace instant
// of the same name, so the two agree by construction. Each component
// declares its counted names once (declare()), which lists them in the
// trace document; scripts/check_trace.py holds every declared counter equal
// to its instant count, including names that stayed at zero.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/trace.hpp"

namespace a4nn::util::metrics {

/// Monotonic accumulator. Holds a double so one type serves both event
/// counts (exact up to 2^53) and second/byte totals; single-threaded call
/// sites accumulate in call order and therefore bit-match an ad-hoc sum.
class Counter {
 public:
  void add(double v = 1.0) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value, with a monotonic-max variant for
/// high-water marks (scratch-arena footprints).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void update_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-width bins over [lo, hi]; out-of-range observations clamp into the
/// edge bins (same convention as util::histogram).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void observe(double v);
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const {
    return counts_[bin].load(std::memory_order_relaxed);
  }
  std::uint64_t total() const;

  /// q-quantile (q in [0,1]) estimated from the bin counts with linear
  /// interpolation inside the containing bin — the usual
  /// Prometheus-histogram estimator, so p99 error is bounded by one bin
  /// width. Observations sit on the clamped range [lo, hi]; an empty
  /// histogram returns lo. The serving layer reads p50/p95/p99 latency
  /// off this.
  double quantile(double q) const;

  /// Everything observed since the previous window_snapshot() (or since
  /// construction/reset), with the quantile estimate restricted to that
  /// window. Bins are atomically exchanged to zero, so consecutive
  /// snapshots partition the observation stream: an observation lands in
  /// exactly one window. The drift monitor reads per-window tail latency
  /// and label distributions off this without a second histogram.
  struct WindowSnapshot {
    std::uint64_t total = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::vector<std::uint64_t> counts;  ///< per-bin counts in the window
  };
  WindowSnapshot window_snapshot();

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::atomic<std::uint64_t>> counts_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime. histogram() with a name that already exists returns the
  /// existing instrument regardless of the requested shape.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);

  /// One JSON document over every instrument:
  ///   {"counters": {name: value}, "gauges": {name: value},
  ///    "histograms": {name: {"lo", "hi", "counts": [...]}}}
  Json snapshot() const;

  /// Reset every registered instrument to zero (names stay registered).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Register each of `names` in `registry` (snapshots list it from zero) and
/// in the trace's "counted" list. Call once per registry a component
/// counts into, before its first count().
void declare(Registry& registry, std::span<const char* const> names);

/// Bump counter `name` by one and emit a trace instant of the same name on
/// lane (pid, tid), category = the name's prefix before the first '.'.
void count(Registry& registry, const std::string& name, int pid, int tid,
           std::vector<trace::Arg> args = {});

/// Process-wide registry for call sites with no instance plumbing (the
/// GEMM driver, scratch arenas). Workflow runs use their own Registry so
/// per-run totals stay exact across multiple runs in one process.
Registry& global();

}  // namespace a4nn::util::metrics
