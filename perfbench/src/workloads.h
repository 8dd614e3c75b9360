// The benchmark's workloads (see README.md for what each one stresses).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "perfbench/src/common.h"

namespace perfbench {

/// Each runs one workload: set-up, timed loop, checks; in a traced run also
/// the layer sweep. Scratch files go under `run_dir`.
void OneBigCfs(const Args& args, const std::string& run_dir, Run* run);
void ManyCfsServe(const Args& args, const std::string& run_dir, Run* run);
void WritePath(const Args& args, const std::string& run_dir, Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
