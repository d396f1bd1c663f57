// The benchmark's own arithmetic: medians, the fastest round, tail
// percentiles that refuse to read a tail from too few samples, due-time
// latency with refused requests counted as misses, the max_rps ladder
// rule, and the unattributed share of a traced run. stats_test.cpp pins
// each rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Latency of a request that was shed, rejected or never answered. It
/// sorts above every real latency, so it always counts as a miss.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Samples a percentile must leave beyond it (in the tail it describes).
inline constexpr std::size_t kTailSamples = 10;

/// Median of `values` (mean of the middle two for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Smallest of `values`. A shared host's interference (steal, a busy
/// neighbour on the same core) only ever adds time to a round, so the
/// fastest of a run's rounds is its best estimate of the program's own
/// cost and moves far less between runs than their median.
inline double fastest(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("fastest of no samples");
  return *std::min_element(values.begin(), values.end());
}

/// Nearest-rank `q`-th percentile (0 < q < 100): the smallest sample with
/// at least q% of the samples at or below it. Throws unless at least
/// kTailSamples samples lie strictly beyond that rank, so a p99 needs
/// 1000 samples and never reads a tail off a handful of requests.
inline double tail_percentile(std::vector<double> values, double q) {
  if (!(q > 0.0 && q < 100.0))
    throw std::invalid_argument("percentile outside (0, 100)");
  const std::size_t n = values.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kTailSamples)
    throw std::invalid_argument("too few samples beyond the percentile");
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// Fewest samples for which tail_percentile(q) is defined.
inline std::size_t min_samples_for(double q) {
  std::size_t n = kTailSamples + 1;
  while (n - static_cast<std::size_t>(std::ceil(
                 q / 100.0 * static_cast<double>(n) - 1e-9)) <
         kTailSamples)
    ++n;
  return n;
}

/// One request of an open-loop run, in milliseconds on one clock.
struct RequestTiming {
  double due_ms = 0.0;        ///< when the schedule says it is sent
  double submitted_ms = 0.0;  ///< when the generator actually submitted it
  double service_ms = 0.0;    ///< engine-reported admission -> prediction
  bool answered = false;      ///< false: shed, rejected or never answered
};

/// Latency a client sees: from the request's due time to its prediction.
/// A late generator therefore costs latency instead of hiding load.
inline double due_latency_ms(const RequestTiming& r) {
  if (!r.answered) return kMissed;
  return (r.submitted_ms - r.due_ms) + r.service_ms;
}

inline std::vector<double> due_latencies_ms(std::span<const RequestTiming> rs) {
  std::vector<double> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(due_latency_ms(r));
  return out;
}

/// Fixed geometric rate ladder: `lo`, lo*ratio, ... up to `hi`. The ratio
/// must be below 1.1 so neighbouring rungs differ by less than a tenth.
inline std::vector<double> rate_ladder(double lo, double hi, double ratio) {
  if (!(ratio > 1.0 && ratio < 1.1))
    throw std::invalid_argument("ladder ratio must lie in (1, 1.1)");
  std::vector<double> rungs;
  for (double r = lo; r <= hi * (1.0 + 1e-12); r *= ratio)
    rungs.push_back(std::round(r));
  return rungs;
}

/// Outcome of one rung of the ladder.
struct RungResult {
  double rate = 0.0;
  double p99_ms = 0.0;
  std::size_t refused = 0;  ///< shed + rejected + unanswered
  double drain_ms = 0.0;    ///< time to answer the backlog left at the end
};

/// A rung holds when its p99 meets the limit, nothing was refused, and
/// the backlog left when the generator stopped drains within the limit
/// (a growing backlog would need ever longer to drain).
inline bool rung_holds(const RungResult& r, double limit_ms) {
  return r.refused == 0 && r.p99_ms <= limit_ms && r.drain_ms <= limit_ms;
}

/// max_rps: the highest rate among the rungs that hold (0 when none does).
inline double max_holding_rate(std::span<const RungResult> rungs,
                               double limit_ms) {
  double best = 0.0;
  for (const auto& r : rungs)
    if (rung_holds(r, limit_ms)) best = std::max(best, r.rate);
  return best;
}

/// Share (%) of `wall_s` not covered by the benchmark's spans. Spans must
/// not overlap; a sum beyond the wall means they do, and is an error.
inline double unattributed_pct(double wall_s, std::span<const double> spans_s) {
  if (!(wall_s > 0.0)) throw std::invalid_argument("wall time must be > 0");
  double covered = 0.0;
  for (double s : spans_s) {
    if (s < 0.0) throw std::invalid_argument("negative span");
    covered += s;
  }
  if (covered > wall_s * (1.0 + 1e-9))
    throw std::invalid_argument("spans cover more than the wall: overlap");
  return 100.0 * (wall_s - covered) / wall_s;
}

}  // namespace perfbench
