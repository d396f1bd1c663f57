#include "util/metrics.hpp"

#include <cmath>

namespace a4nn::util::metrics {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins) {
  if (!(hi_ > lo_)) hi_ = lo_ + 1.0;
}

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  const double span = hi_ - lo_;
  double pos = (v - lo_) / span * static_cast<double>(counts_.size());
  std::size_t bin;
  if (pos <= 0.0) {
    bin = 0;
  } else if (pos >= static_cast<double>(counts_.size())) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<std::size_t>(pos);
  }
  counts_[bin].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::total() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

namespace {

/// Shared quantile estimator over a materialized count vector (the live
/// quantile() and window_snapshot() both defer here so their estimates
/// agree bin for bin).
double quantile_of(const std::vector<std::uint64_t>& counts, double lo,
                   double hi, double q) {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  if (n == 0) return lo;
  // Target rank in (0, n]; walk bins until the cumulative count covers it,
  // then interpolate within the covering bin.
  const double rank = q * static_cast<double>(n);
  const double bin_width = (hi - lo) / static_cast<double>(counts.size());
  double cum = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double c = static_cast<double>(counts[b]);
    if (c == 0.0) continue;
    if (cum + c >= rank) {
      const double frac = (rank - cum) / c;
      return lo + (static_cast<double>(b) + frac) * bin_width;
    }
    cum += c;
  }
  return hi;
}

}  // namespace

double Histogram::quantile(double q) const {
  std::vector<std::uint64_t> counts(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b)
    counts[b] = counts_[b].load(std::memory_order_relaxed);
  return quantile_of(counts, lo_, hi_, q);
}

Histogram::WindowSnapshot Histogram::window_snapshot() {
  WindowSnapshot w;
  w.counts.resize(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    // exchange, not load+reset: an observation racing with the snapshot is
    // claimed by exactly one window, never dropped or double-counted.
    w.counts[b] = counts_[b].exchange(0, std::memory_order_relaxed);
    w.total += w.counts[b];
  }
  w.p50 = quantile_of(w.counts, lo_, hi_, 0.50);
  w.p95 = quantile_of(w.counts, lo_, hi_, 0.95);
  w.p99 = quantile_of(w.counts, lo_, hi_, 0.99);
  return w;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               std::size_t bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lo, hi, bins);
  return *slot;
}

Json Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters[name] = c->value();
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json hj = Json::object();
    hj["lo"] = h->lo();
    hj["hi"] = h->hi();
    Json counts = Json::array();
    for (std::size_t b = 0; b < h->bins(); ++b)
      counts.push_back(Json(static_cast<double>(h->count(b))));
    hj["counts"] = std::move(counts);
    // Quantile snapshot rides along so RunSummary.metrics and the serve
    // stats endpoint expose tail latency without re-deriving it.
    hj["p50"] = h->quantile(0.50);
    hj["p95"] = h->quantile(0.95);
    hj["p99"] = h->quantile(0.99);
    histograms[name] = std::move(hj);
  }
  Json j = Json::object();
  j["counters"] = std::move(counters);
  j["gauges"] = std::move(gauges);
  j["histograms"] = std::move(histograms);
  return j;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  // In-place zeroing: references handed out earlier must stay valid.
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void declare(Registry& registry, std::span<const char* const> names) {
  for (const char* name : names) {
    registry.counter(name);
    trace::declare_counted(name);
  }
}

void count(Registry& registry, const std::string& name, int pid, int tid,
           std::vector<trace::Arg> args) {
  registry.counter(name).add();
  if (trace::enabled())
    trace::emit_instant(name, name.substr(0, name.find('.')), trace::now_us(),
                        pid, tid, std::move(args));
}

Registry& global() {
  static Registry registry;
  return registry;
}

}  // namespace a4nn::util::metrics
