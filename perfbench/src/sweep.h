// The layer sweep of a traced run (see sweep.cc).
#ifndef PERFBENCH_SWEEP_H_
#define PERFBENCH_SWEEP_H_

#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

struct SweepInputs {
  /// The workload's prepared pipeline: online and serve layers run on it.
  const spade::Spade* spade = nullptr;
  /// Request lines for the serve layers.
  std::vector<std::string> serve_lines;
  /// Value-level triples the offline, persist and delta layers rebuild
  /// from (the churn batch interns its new values here).
  ValueGraph* sample = nullptr;
  /// Scratch directory for snapshot files.
  std::string run_dir;
};

/// Run sweep rounds until `budget_s` has passed (at least one), then set
/// every per-layer metric on `run`.
void LayerSweep(const SweepInputs& in, const Args& args, double budget_s,
                Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_SWEEP_H_
