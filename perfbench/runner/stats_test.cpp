// Self-test of the benchmark's arithmetic (stats.hpp). run.py runs it
// before every workload; it exits non-zero on the first broken rule.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED: %s\n", what.c_str());
    ++failures;
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_median() {
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  check(throws([] { median({}); }), "median of nothing throws");
}

void test_fastest() {
  check(fastest({3.0, 1.5, 2.0}) == 1.5, "fastest of three");
  check(throws([] { fastest({}); }), "fastest of nothing throws");
}

void test_tail_percentile() {
  // 1000 samples: p99 is the 990th value and 10 samples lie beyond it.
  check(tail_percentile(one_to(1000), 99.0) == 990.0, "p99 of 1..1000");
  check(throws([] { tail_percentile(one_to(999), 99.0); }),
        "p99 of 999 samples leaves 9 beyond it and throws");
  check(min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  check(min_samples_for(50.0) == 20, "p50 needs 20 samples");
  check(tail_percentile(one_to(20), 50.0) == 10.0, "p50 of 1..20");
  check(throws([] { tail_percentile(one_to(19), 50.0); }),
        "p50 of 19 samples leaves 9 beyond it and throws");
  // Order does not matter.
  std::vector<double> shuffled = one_to(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  check(tail_percentile(shuffled, 99.0) == 990.0, "p99 ignores order");
  check(throws([] { tail_percentile(one_to(2000), 100.0); }),
        "q outside (0, 100) throws");
}

void test_due_latency() {
  RequestTiming on_time{10.0, 10.0, 2.5, true};
  check(due_latency_ms(on_time) == 2.5, "on-time request: service latency");
  RequestTiming late{10.0, 13.0, 2.5, true};
  check(due_latency_ms(late) == 5.5, "late generator adds its lateness");
  RequestTiming refused{10.0, 10.0, 0.0, false};
  check(std::isinf(due_latency_ms(refused)), "refused request is a miss");

  // 990 fast answers and 10 refusals: p99 is still fast (10 misses fit
  // beyond it). One more refusal pushes a miss into the p99.
  std::vector<RequestTiming> rs(1000, on_time);
  for (std::size_t i = 0; i < 10; ++i) rs[i].answered = false;
  check(tail_percentile(due_latencies_ms(rs), 99.0) == 2.5,
        "10 refusals in 1000 stay beyond p99");
  rs[10].answered = false;
  check(std::isinf(tail_percentile(due_latencies_ms(rs), 99.0)),
        "11 refusals in 1000 make p99 a miss");
}

void test_ladder() {
  const std::vector<double> ladder = rate_ladder(1000.0, 2000.0, 1.08);
  check(ladder.front() == 1000.0, "ladder starts at lo");
  bool fine = true;
  for (std::size_t i = 1; i < ladder.size(); ++i)
    fine = fine && ladder[i] / ladder[i - 1] < 1.1 && ladder[i] > ladder[i - 1];
  check(fine, "rungs rise by less than a tenth");
  check(ladder.back() <= 2000.0 && ladder.back() * 1.08 > 2000.0,
        "ladder ends at the last rung below hi");
  check(throws([] { rate_ladder(1000.0, 2000.0, 1.1); }),
        "a ratio of 1.1 is too coarse");

  const double limit = 10.0;
  std::vector<RungResult> rungs = {
      {4000.0, 3.0, 0, 1.0},    // holds
      {4320.0, 9.9, 0, 2.0},    // holds
      {4666.0, 10.5, 0, 2.0},   // p99 over the limit
      {5039.0, 4.0, 1, 2.0},    // one refusal
      {5442.0, 4.0, 0, 12.0},   // backlog drains too slowly
  };
  check(rung_holds(rungs[1], limit), "p99 at 9.9 ms holds");
  check(!rung_holds(rungs[2], limit), "p99 over the limit fails");
  check(!rung_holds(rungs[3], limit), "any refusal fails");
  check(!rung_holds(rungs[4], limit), "a growing backlog fails");
  check(max_holding_rate(rungs, limit) == 4320.0,
        "max_rps is the highest holding rung");
  rungs.push_back({5877.0, 5.0, 0, 1.0});
  check(max_holding_rate(rungs, limit) == 5877.0,
        "a holding rung above failing ones still counts");
  check(max_holding_rate({}, limit) == 0.0, "no rung holds: 0");
}

void test_unattributed() {
  const std::vector<double> spans = {2.0, 3.0, 4.5};
  check(std::abs(unattributed_pct(10.0, spans) - 5.0) < 1e-12,
        "9.5 s of spans in 10 s leaves 5%");
  check(unattributed_pct(9.5, spans) == 0.0, "spans covering the wall: 0%");
  check(throws([] { unattributed_pct(9.0, std::vector<double>{5.0, 5.0}); }),
        "spans beyond the wall overlap and throw");
  check(throws([] { unattributed_pct(0.0, std::vector<double>{}); }),
        "zero wall throws");
  check(throws([] { unattributed_pct(1.0, std::vector<double>{-0.1}); }),
        "negative span throws");
}

}  // namespace

int main() {
  test_median();
  test_fastest();
  test_tail_percentile();
  test_due_latency();
  test_ladder();
  test_unattributed();
  if (failures > 0) return 1;
  std::fprintf(stderr, "stats_test: all checks passed\n");
  return 0;
}
