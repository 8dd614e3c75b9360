// The repository benchmark: one command, three workloads, every metric by
// name with its unit, answers checked against an independent oracle.
//
//   spade_perfbench --workload one_big_cfs|many_cfs_serve|write_path
//                   --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object; the lines before
// it are the human-readable run report. Exit code 0 only when every
// operation succeeded and every check passed.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* why) {
  std::cerr << "spade_perfbench: " << why
            << "\nusage: spade_perfbench --workload "
               "one_big_cfs|many_cfs_serve|write_path --seed N --seconds S "
               "--trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  using WorkloadFn = void (*)(const perfbench::Args&, const std::string&,
                              perfbench::Run*);
  const std::map<std::string, WorkloadFn> workloads = {
      {"one_big_cfs", perfbench::OneBigCfs},
      {"many_cfs_serve", perfbench::ManyCfsServe},
      {"write_path", perfbench::WritePath}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown or missing --workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  // Scratch files live in the checkout, one directory per run.
  const std::string run_dir = ".bench_run/" + args.workload + "-" +
                              std::to_string(args.seed) +
                              (args.trace ? "-trace" : "");
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) return Usage(("cannot create " + run_dir).c_str());

  perfbench::Run run;
  for (const std::string& e : perfbench::SelfCheck()) {
    run.Fail("oracle self-check: " + e);
  }
  run.Attempt();
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", "
            << args.seconds << " s, " << perfbench::Nproc() << " workers"
            << (args.trace ? ", traced" : "") << "\n";
  it->second(args, run_dir, &run);

  if (args.trace) {
    perfbench::Tracer& tracer = perfbench::Tracer::Get();
    const std::string trace_path = ".bench_run/trace-" + args.workload + "-" +
                                   std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeTrace(trace_path)) {
      run.Fail("cannot write " + trace_path);
    }
    std::cout << "trace: " << trace_path << " (Chrome trace-event JSON)\n";
    std::cout << "layer self time (count, total ms, self ms):\n";
    for (const auto& [name, l] : tracer.Summarize()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  %-32s %8llu %12.3f %12.3f\n",
                    name.c_str(), static_cast<unsigned long long>(l.count),
                    l.total_ms, l.self_ms);
      std::cout << buf;
    }
  }
  std::filesystem::remove_all(run_dir, ec);
  run.PrintReport();
  std::cout << run.ResultJson() << std::endl;
  return run.correct() && run.failed() == 0 ? 0 : 1;
}
