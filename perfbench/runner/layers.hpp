// Per-layer probes of the traced run. Each one times calls into a
// module's public functions on the run's own data: the genomes it
// decoded, the fitness histories it recorded, the commons it wrote.
#pragma once

#include "common.hpp"
#include "traced.hpp"

namespace perfbench {

/// Top-level layer kinds of a decoded genome, in the order reported.
const std::vector<std::string>& layer_kinds();

/// Every per-layer metric at 0, so each workload prints the full set and
/// a layer it does not use reads 0.
void report_zero_layers(Report& report);

/// xfel.*, nas.*, orchestrator.* from one traced search.
void report_search_layers(Report& report, double synth_s,
                          const TracedRun& traced);

/// nn.<kind>.* (train mode, trainer batch), nn.eval_ms, tensor.*, and
/// penguin.* over the distinct genomes and histories of `history`.
void report_model_layers(Report& report, const core::WorkflowConfig& config,
                         const xfel::XfelDataset& data,
                         const std::vector<nas::EvaluationRecord>& history);

/// lineage.* over a finished commons: commits replayed into a fresh
/// tracker under `scratch` with the workload's durability, then load,
/// deep fsck and model loads on the commons itself.
void report_lineage_layers(Report& report, const lineage::TrackerConfig& config,
                           const fs::path& scratch);

/// unattributed_pct and trace_overhead_pct of a traced run.
void report_accounting(Report& report, double wall_s,
                       const std::vector<double>& spans_s, double traced_s,
                       double untraced_median_s);

}  // namespace perfbench
