// Shared pieces of the benchmark: run bookkeeping, sample statistics,
// worker pools, request mixes and the value-level churn generator.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/oracle.h"
#include "src/core/spade.h"
#include "src/exec/thread_pool.h"
#include "src/net/line_client.h"
#include "src/net/tcp_server.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Operation counts, failures and metrics of one run. Thread-safe.
class Run {
 public:
  void Attempt(uint64_t n = 1);
  /// One failed operation or check: the run is no longer correct.
  void Fail(const std::string& why);
  /// A check that passed: counted as an attempted operation.
  void Check(bool ok, const std::string& why_if_not);

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);  ///< a line of the human report

  uint64_t attempted() const;
  uint64_t failed() const;
  bool correct() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson() const;
  void PrintReport() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// "median X ms; p99 Y ms (n=N)": the median plus the highest percentile
/// with at least ten samples beyond it; the median alone below 40 samples.
std::string Describe(const std::vector<double>& v, const std::string& unit);

/// Worker threads for one scheduler: `workers` compute threads counting
/// the calling thread (the same convention as the program's own pools).
class WorkerPool {
 public:
  explicit WorkerPool(size_t workers);
  spade::TaskScheduler* scheduler() { return &scheduler_; }

 private:
  std::unique_ptr<spade::ThreadPool> pool_;
  spade::TaskScheduler scheduler_;
};

size_t Nproc();
double PeakRssMb();
double SecondsSince(int64_t start_ns);

/// Options every workload's pipeline starts from.
spade::SpadeOptions BaseOptions(size_t threads);

/// An in-process TCP server on an ephemeral loopback port with `nproc`
/// workers and an admission cap far above the offered load.
spade::net::TcpServerOptions ServerOptions();
/// A client of that server that does not retry: a `busy` reply is a failed
/// operation.
spade::net::LineClientOptions ClientOptions(uint16_t port, uint64_t seed);

/// Byte-exact rendering of an explore outcome (keys, scores, stored
/// groups), for comparing answers of one store at different worker counts.
std::string RenderOutcome(const spade::ExploreOutcome& outcome);

/// Parse an `explore ...` request line the way the serve grammar does.
/// `kind` receives the interestingness index (0 variance, 1 skewness,
/// 2 kurtosis).
bool ParseExplore(const std::string& line, spade::ExploreRequest* req,
                  int* kind);

/// Append a newline when the text does not end with one.
std::string WithNewline(std::string s);

/// A seeded explore mix over `cfs_names`, in blocks of 20 lines whose
/// make-up is fixed: two all-CFS explores when `all_cfs_slots` is set, two
/// single-CFS explores with early-stop on, the rest plain single-CFS explores
/// with the CFSs taken in turn; one line in ten adds max-dims=1 and one in
/// ten max-dims=2. The seed adds top / interestingness variants and the order
/// within a block; with probability 0.25 a slot repeats exactly an earlier
/// line of the same slot.
std::vector<std::string> MakeMix(const std::vector<std::string>& cfs_names,
                                 bool all_cfs_slots, size_t count,
                                 uint64_t seed);
/// Share of lines equal to an earlier line of the same streams.
double RepeatShare(const std::vector<std::vector<std::string>>& streams);

/// One mutation batch at value level: about `fraction` of the triples, taken
/// from a contiguous hot range of subjects. Mostly measure values get a new
/// number; a share of dimension values switch to another value of the same
/// property. `adds` and `retracts` are disjoint from each other, and every
/// add is absent from the graph while every retract is present.
struct Churn {
  std::vector<ValueGraph::Triple> adds;
  std::vector<ValueGraph::Triple> retracts;
  size_t measure_edits = 0;
  size_t dimension_edits = 0;
};
Churn MakeChurn(ValueGraph* graph, double fraction, uint64_t seed);

bool WriteFile(const std::string& path, const std::string& data);
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
