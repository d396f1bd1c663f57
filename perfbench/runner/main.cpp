// perfbench_runner: runs one workload of the repo benchmark and prints
// one JSON object on stdout (metrics with units, attempted and failed
// operations, and whether every output check passed). perfbench/run.py
// builds it and is the command BENCHMARK.json names.
//
//   perfbench_runner --workload search|commons|serve --seed N
//                    --seconds S --trace 0|1 --tmp DIR [--reference-seed N]
#include <malloc.h>

#include <cstdio>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "tensor/parallel.hpp"
#include "util/args.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  util::ArgParser args("perfbench_runner", "Run one benchmark workload");
  args.add_option("workload", "search", "search | commons | serve");
  args.add_option("seed", "1", "run seed (request frames, probe inputs)");
  args.add_option("seconds", "10", "measuring budget of the run");
  args.add_option("trace", "0", "1: per-layer metrics instead of end-to-end");
  args.add_option("tmp", "", "scratch directory for commons trees");
  args.add_option("reference-seed", "2023",
                  "NAS seed of the reference searches (2023; 7 is held out)");
  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }

  Options opts;
  opts.workload = args.get("workload");
  opts.seed = std::stoull(args.get("seed"));
  opts.seconds = args.get_double("seconds");
  opts.trace = args.get("trace") == "1";
  opts.tmp = args.get("tmp");
  opts.reference_seed = std::stoull(args.get("reference-seed"));
  if (opts.tmp.empty()) {
    std::fprintf(stderr, "perfbench_runner: --tmp is required\n");
    return 2;
  }
  fs::create_directories(opts.tmp);
  // One malloc arena for every thread. With per-thread arenas the peak
  // resident set depended on which of the search's and the serving
  // engine's short-lived threads got a fresh arena, and moved by ~6 MB
  // (20 %) between runs of one seed.
  mallopt(M_ARENA_MAX, 1);
  util::set_log_level(util::LogLevel::kWarn);
  tensor::set_intra_op_threads(1);

  Report report;
  try {
    if (opts.trace) report_zero_layers(report);
    if (opts.workload == "search") run_search(opts, report);
    else if (opts.workload == "commons") run_commons(opts, report);
    else if (opts.workload == "serve") run_serve(opts, report);
    else {
      std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  if (!opts.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("%s\n", report.to_json().dump().c_str());
  return 0;
}
