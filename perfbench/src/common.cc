#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench/src/trace.h"
#include "src/rdf/ntriples.h"
#include "src/util/rng.h"

namespace perfbench {

// --- Run --------------------------------------------------------------------

void Run::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Run::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  correct_ = false;
  if (errors_.size() < 40) errors_.push_back(why);
}

void Run::Check(bool ok, const std::string& why_if_not) {
  Attempt();
  if (!ok) Fail(why_if_not);
}

void Run::Set(const std::string& name, double value, const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Run::Note(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(line);
}

uint64_t Run::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Run::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

bool Run::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_;
}

std::string Run::ResultJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
    out << (i ? ", " : "") << "\"" << metrics_[i].first << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

void Run::PrintReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& n : notes_) std::cout << n << "\n";
  std::cout << "operations: attempted " << attempted_ << ", failed " << failed_
            << "\n";
  for (const std::string& e : errors_) std::cout << "FAILED: " << e << "\n";
  for (const auto& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", m.second.first);
    std::cout << "metric " << m.first << " = " << value << " " << m.second.second
              << "\n";
  }
}

// --- Samples ----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

std::string Describe(const std::vector<double>& v, const std::string& unit) {
  char buf[160];
  if (v.size() < 40) {
    std::snprintf(buf, sizeof(buf), "median %.3f %s (n=%zu)", Median(v),
                  unit.c_str(), v.size());
    return buf;
  }
  // Highest percentile with at least ten samples beyond it.
  const double n = static_cast<double>(v.size());
  double best = 0.5;
  for (double p : {0.75, 0.9, 0.95, 0.99, 0.999}) {
    if (n * (1 - p) >= 10 - 1e-9) best = p;
  }
  std::snprintf(buf, sizeof(buf), "median %.3f %s; p%g %.3f %s (n=%zu)",
                Median(v), unit.c_str(), best * 100, Quantile(v, best),
                unit.c_str(), v.size());
  return buf;
}

// --- Environment ------------------------------------------------------------

WorkerPool::WorkerPool(size_t workers)
    : pool_(workers > 1 ? std::make_unique<spade::ThreadPool>(workers - 1)
                        : nullptr),
      scheduler_(pool_.get()) {}

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(int64_t start_ns) {
  return (Tracer::NowNs() - start_ns) / 1e9;
}

spade::SpadeOptions BaseOptions(size_t threads) {
  spade::SpadeOptions options;
  options.num_threads = threads;
  options.top_k = 10;
  return options;
}

spade::net::TcpServerOptions ServerOptions() {
  spade::net::TcpServerOptions topt;
  topt.listen.host = "127.0.0.1";
  topt.listen.port = 0;
  topt.install_signal_handlers = false;
  // Far above the offered load: shedding would be a failed operation.
  topt.max_inflight = 64;
  topt.serve.num_threads = Nproc();
  return topt;
}

spade::net::LineClientOptions ClientOptions(uint16_t port, uint64_t seed) {
  spade::net::LineClientOptions copts;
  copts.server.host = "127.0.0.1";
  copts.server.port = port;
  copts.seed = seed;
  copts.max_attempts = 1;  // a `busy` reply is a failed operation, not a retry
  copts.io_timeout_ms = 60000;
  return copts;
}

std::string RenderOutcome(const spade::ExploreOutcome& outcome) {
  std::ostringstream out;
  char buf[64];
  out << "cfs " << outcome.num_cfs_explored << " truncated "
      << outcome.truncated << "\n";
  for (const spade::Insight& in : outcome.insights) {
    std::snprintf(buf, sizeof(buf), "%.17g", in.ranked.score);
    out << buf << " " << in.cfs_name << " | " << in.description << " | "
        << in.ranked.num_groups << " |";
    for (const spade::GroupResult& g : in.ranked.groups) {
      for (spade::TermId v : g.dim_values) out << " " << v;
      std::snprintf(buf, sizeof(buf), "%.17g", g.value);
      out << "=" << buf << ";";
    }
    out << "\n" << in.sparql << "\n";
  }
  return out.str();
}

bool ParseExplore(const std::string& line, spade::ExploreRequest* req,
                  int* kind) {
  std::istringstream in(line);
  std::string token;
  if (!(in >> token) || token != "explore") return false;
  *req = spade::ExploreRequest();
  *kind = 0;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq), value = token.substr(eq + 1);
    if (key == "cfs") {
      std::istringstream names(value);
      std::string name;
      while (std::getline(names, name, ',')) req->cfs_names.push_back(name);
    } else if (key == "top") {
      req->top_k = std::stoul(value);
    } else if (key == "interestingness") {
      *kind = value == "skewness" ? 1 : value == "kurtosis" ? 2 : 0;
      req->interestingness = static_cast<spade::InterestingnessKind>(*kind);
    } else if (key == "earlystop") {
      req->earlystop = value == "on";
    } else if (key == "max-dims") {
      req->max_dims = std::stoul(value);
    } else {
      return false;
    }
  }
  return true;
}

std::string WithNewline(std::string s) {
  if (s.empty() || s.back() != '\n') s.push_back('\n');
  return s;
}

// --- Request mixes ----------------------------------------------------------

std::vector<std::string> MakeMix(const std::vector<std::string>& cfs_names,
                                 bool all_cfs_slots, size_t count,
                                 uint64_t seed) {
  // Blocks of kBlock lines whose make-up does not depend on the seed:
  // all-CFS, early-stop and plain single-CFS slots, the CFSs taken in turn,
  // and a fixed share of max-dims slots (the variant that changes the work
  // most). The seed picks the cheap variants (top, interestingness), the
  // repeats and the order within each block. Any prefix of a stream then
  // has nearly the same make-up, so runs that stop anywhere compare.
  constexpr size_t kBlock = 20;
  constexpr size_t kEarlystopPerBlock = 2;
  constexpr double kShareRepeat = 0.25;
  const size_t n_all = all_cfs_slots ? 2 : 0;
  const size_t n_es = kEarlystopPerBlock;
  spade::Rng rng(seed);
  static const char* kKinds[] = {"skewness", "kurtosis"};
  std::vector<std::string> out;
  // Earlier lines by slot, for exact repeats of the same kind of work.
  std::map<std::string, std::vector<std::string>> earlier;
  size_t next_cfs = 0;
  while (out.size() < count) {
    std::vector<std::string> block;
    for (size_t i = 0; i < kBlock; ++i) {
      std::string slot = "explore";
      if (i >= n_all) slot += " cfs=" + cfs_names[next_cfs++ % cfs_names.size()];
      if (i >= n_all && i < n_all + n_es) slot += " earlystop=on";
      if (i % 10 == 7) slot += " max-dims=1";
      if (i % 10 == 9) slot += " max-dims=2";
      std::vector<std::string>& same = earlier[slot];
      if (!same.empty() && rng.NextDouble() < kShareRepeat) {
        block.push_back(same[rng.Uniform(same.size())]);
        continue;
      }
      std::string line = slot;
      if (rng.NextDouble() < 0.25) {
        line += " top=" + std::to_string(1 + rng.Uniform(20));
      }
      if (rng.NextDouble() < 0.2) {
        line += std::string(" interestingness=") + kKinds[rng.Uniform(2)];
      }
      same.push_back(line);
      block.push_back(line);
    }
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Uniform(i)]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(count);
  return out;
}

double RepeatShare(const std::vector<std::vector<std::string>>& streams) {
  size_t total = 0, repeats = 0;
  for (const auto& stream : streams) {
    std::set<std::string> seen;
    for (const std::string& line : stream) {
      ++total;
      if (!seen.insert(line).second) ++repeats;
    }
  }
  return total == 0 ? 0 : static_cast<double>(repeats) / total;
}

// --- Churn ------------------------------------------------------------------

namespace {

/// The same literal with another integer lexical form (datatype kept).
std::string WithNumber(const std::string& term, long long n) {
  const size_t close = term.find('"', 1);
  return "\"" + std::to_string(n) + "\"" + term.substr(close + 1);
}

}  // namespace

Churn MakeChurn(ValueGraph* graph, double fraction, uint64_t seed) {
  spade::Rng rng(seed);
  const auto& triples = graph->triples();
  const uint32_t rdf_type =
      graph->Find("<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>");
  // Distinct objects per property (dimension edits pick from these).
  std::map<uint32_t, std::vector<uint32_t>> objects;
  for (const auto& t : triples) {
    if (t[1] != rdf_type) objects[t[1]].push_back(t[2]);
  }
  for (auto& [p, v] : objects) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  auto present = [&](const ValueGraph::Triple& t) {
    return std::binary_search(triples.begin(), triples.end(), t);
  };
  Churn churn;
  const size_t target =
      std::max<size_t>(1, static_cast<size_t>(fraction * triples.size()));
  // Hot range: a contiguous run of subjects from a seeded start.
  size_t i = triples.empty() ? 0 : rng.Uniform(triples.size());
  while (i > 0 && triples[i - 1][0] == triples[i][0]) --i;
  std::set<ValueGraph::Triple> adds;
  for (size_t step = 0; step < triples.size() && churn.retracts.size() < target;
       ++step) {
    const ValueGraph::Triple t = triples[(i + step) % triples.size()];
    if (t[1] == rdf_type) continue;
    double v = 0;
    ValueGraph::Triple repl = t;
    if (ParseLiteralNumber(graph->term(t[2]), &v)) {
      long long n = std::llround(v) + 1 + static_cast<long long>(rng.Uniform(997));
      for (int tries = 0; tries < 8; ++tries, ++n) {
        repl[2] = graph->Intern(WithNumber(graph->term(t[2]), n));
        if (!present(repl) && !adds.count(repl)) break;
      }
      if (present(repl) || adds.count(repl)) continue;
      ++churn.measure_edits;
    } else {
      // A dimension edit on about one in five non-numeric values.
      if (rng.NextDouble() >= 0.2) continue;
      const std::vector<uint32_t>& pool = objects[t[1]];
      if (pool.size() < 2) continue;
      repl[2] = pool[rng.Uniform(pool.size())];
      if (repl[2] == t[2] || present(repl) || adds.count(repl)) continue;
      ++churn.dimension_edits;
    }
    churn.retracts.push_back(t);
    adds.insert(repl);
  }
  churn.adds.assign(adds.begin(), adds.end());
  std::sort(churn.retracts.begin(), churn.retracts.end());
  return churn;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

}  // namespace perfbench
