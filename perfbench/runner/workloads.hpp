// The three workloads. Each fills a Report: with opts.trace false the
// end-to-end metrics, with opts.trace true the per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_search(const Options& opts, Report& report);
void run_commons(const Options& opts, Report& report);
void run_serve(const Options& opts, Report& report);

}  // namespace perfbench
