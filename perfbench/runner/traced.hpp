// The traced composition: A4nnWorkflow::run() rebuilt from the same
// public parts, with the benchmark's spans around them. A TrainingLoop
// subclass times train_genome, an nas::Evaluator decorator times each
// generation, and the commons steps (fsck, load, tracker set-up) are timed
// where the workflow calls them. Nothing inside src/ is instrumented.
// Output checks compare its result with plain A4nnWorkflow::run(), so
// this wiring cannot drift from the real one unnoticed.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Host seconds of each span of one traced run. The spans do not overlap
/// and, with the unattributed rest, add up to `wall_s`.
struct TracedSpans {
  double wall_s = 0.0;
  double tracker_setup_s = 0.0;  // LineageTracker + search config commit
  double fsck_s = 0.0;           // DataCommons::fsck (resume only)
  double load_records_s = 0.0;   // DataCommons::load_records (resume only)
  double nas_self_s = 0.0;       // NsgaNetSearch::run outside the evaluator
  double dispatch_s = 0.0;       // evaluate_generation outside train_genome
  double train_s = 0.0;          // TrainingLoop::train_genome
  double memo_index_s = 0.0;     // memo_index.json commit
  std::size_t epochs = 0;        // epochs trained by train_genome

  std::vector<double> covered() const {
    return {tracker_setup_s, fsck_s,   load_records_s, nas_self_s,
            dispatch_s,      train_s, memo_index_s};
  }
};

struct TracedRun {
  core::WorkflowResult result;
  TracedSpans spans;
};

/// Run `config` over `data` through the traced composition.
TracedRun run_traced(core::WorkflowConfig config, const xfel::XfelDataset& data);

/// Run `config` over `data` through plain A4nnWorkflow::run(). Its
/// measured_wall_seconds is the host time of run(), which is search_s.
core::WorkflowResult run_plain(const core::WorkflowConfig& config,
                               const xfel::XfelDataset& data);

}  // namespace perfbench
