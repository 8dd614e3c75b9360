// The three workloads. Each sets up its inputs from the seed, runs its timed
// loop, then checks the answers against the independent oracle and the
// properties named in README.md.
#include "perfbench/src/workloads.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench/src/sweep.h"
#include "perfbench/src/trace.h"
#include "src/core/enumeration.h"
#include "src/datagen/realworld.h"
#include "src/datagen/synthetic.h"
#include "src/ingest/chunk_source.h"
#include "src/net/line_client.h"
#include "src/net/tcp_server.h"
#include "src/persist/serve.h"
#include "src/rdf/ntriples.h"
#include "src/util/string_util.h"

namespace perfbench {

namespace {

using spade::Spade;

// Input sizes (README.md gives the resulting make-up of each input).
constexpr size_t kOneBigFacts = 100000;
constexpr double kManyScale = 4.2;   // GenerateCeos: ~100k triples
constexpr double kWriteScale = 8.0;  // GenerateCeos: ~20 MiB of N-Triples
constexpr size_t kChurnPairs = 4;
constexpr double kChurnFraction = 0.01;
constexpr size_t kClients = 4;   // closed-loop connections of many_cfs_serve
constexpr size_t kReaders = 3;   // reader connections beside the writer
constexpr size_t kReadSteps = 2;  // reads per reader in a write_path round
constexpr std::chrono::milliseconds kWriterDelay{5};
constexpr size_t kMixLines = 4000;

Tracer& tracer() { return Tracer::Get(); }

/// Set-ups per run (setup_s is their median): `reps` untraced, one traced.
int SetupReps(const Args& args, int reps) { return args.trace ? 1 : reps; }

/// In a traced run the timed loop alternates operations with tracing on
/// and off, so that traced and untraced samples come from the same run.
bool TraceOn(const Args& args) {
  static std::atomic<uint64_t> count{0};
  if (!args.trace) return false;
  const bool on = count.fetch_add(1) % 2 == 0;
  tracer().SetEnabled(on);
  return on;
}

void NotePeakRss(Run* run, const std::string& when) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "peak RSS %s: %.1f MiB", when.c_str(),
                PeakRssMb());
  run->Note(buf);
}

void RecordTally(Run* run, const std::string& what, const CheckTally& t) {
  run->Attempt(t.checked + t.failed);
  for (size_t i = 0; i < t.failed; ++i) {
    run->Fail(what + ": " + (i < t.errors.size() ? t.errors[i] : "mismatch"));
  }
  run->Note(what + ": " + std::to_string(t.checked) + " checked, " +
            std::to_string(t.unchecked) + " unchecked, " +
            std::to_string(t.failed) + " failed");
}

bool IsOk(const spade::Result<std::string>& reply) {
  return reply.ok() && reply->rfind("ok", 0) == 0;
}

std::string ReplyError(const std::string& line,
                       const spade::Result<std::string>& reply) {
  return "'" + line + "' -> " +
         (reply.ok() ? reply->substr(0, 120) : reply.status().ToString());
}

/// End-to-end metrics from samples taken with tracing off; in a traced run
/// the traced-minus-untraced differences instead, and trace.overhead_pct on
/// `overhead_basis`, the workload's most-sampled operation.
void SetEndToEnd(const Args& args, Run* run, const std::vector<double>& setups,
                 const std::vector<double> primary[2],
                 const std::vector<double> secondary[2], double throughput,
                 const std::vector<double> overhead_basis[2]) {
  if (!args.trace) {
    run->Set("setup_s", Median(setups), "s");
    run->Set("peak_rss_mb", PeakRssMb(), "MiB");
    run->Set("primary_ms", Median(primary[0]), "ms");
    run->Set("secondary_ms", Median(secondary[0]), "ms");
    run->Set("throughput_rps", throughput, "1/s");
    return;
  }
  const double base = Median(primary[0]);
  const double basis = Median(overhead_basis[0]);
  run->Set("trace.overhead_pct",
           basis > 0 ? 100.0 * (Median(overhead_basis[1]) - basis) / basis : 0,
           "%");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "tracing overhead (traced - untraced medians): primary %+.3f ms "
                "(n=%zu/%zu), secondary %+.3f ms (n=%zu/%zu)",
                Median(primary[1]) - base, primary[1].size(), primary[0].size(),
                Median(secondary[1]) - Median(secondary[0]), secondary[1].size(),
                secondary[0].size());
  run->Note(buf);
}

std::vector<std::string> TypeCfsNames(const Spade& spade) {
  std::vector<std::string> names;
  for (const auto& cfs : spade.fact_sets()) {
    if (cfs.origin == spade::CandidateFactSet::Origin::kType) {
      names.push_back(cfs.name);
    }
  }
  return names;
}

/// Map "cfs description" -> printed score for each insight line of an
/// explore reply ("<rank> <score> <cfs> <description>").
std::map<std::string, std::string> ScoresOf(const std::string& reply) {
  std::map<std::string, std::string> out;
  std::istringstream in(reply);
  std::string line;
  while (std::getline(in, line)) {
    const size_t a = line.find(' ');
    if (a == std::string::npos || line.rfind("ok", 0) == 0) continue;
    const size_t b = line.find(' ', a + 1);
    if (b == std::string::npos) continue;
    out[line.substr(b + 1)] = line.substr(a + 1, b - a - 1);
  }
  return out;
}

/// The first line where two replies differ, both versions.
std::string FirstDifference(const std::string& a, const std::string& b) {
  std::istringstream x(a), y(b);
  std::string la, lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(x, la));
    const bool gb = static_cast<bool>(std::getline(y, lb));
    if (!ga && !gb) return "";
    if (!ga || !gb || la != lb) return "[" + la + "] vs [" + lb + "]";
  }
}

/// The reply the serve grammar gives for `outcome`: "ok N", one
/// "<rank> <score> <cfs> <description>" line per insight, "end".
std::string ServedReply(const spade::ExploreOutcome& outcome) {
  std::string out = "ok " + std::to_string(outcome.insights.size()) + "\n";
  for (size_t i = 0; i < outcome.insights.size(); ++i) {
    const spade::Insight& in = outcome.insights[i];
    out += std::to_string(i + 1) + " " + spade::FormatDouble(in.ranked.score, 6) +
           " " + in.cfs_name + " " + in.description + "\n";
  }
  return out + "end\n";
}

/// The same request evaluated in full: early-stop off, every aggregate.
std::string FullEvaluationLine(const std::string& line) {
  std::istringstream in(line);
  std::string token, out = "explore";
  in >> token;
  while (in >> token) {
    if (token.rfind("earlystop=", 0) == 0 || token.rfind("top=", 0) == 0) continue;
    out += " " + token;
  }
  return out + " earlystop=off top=1000000";
}

}  // namespace

// --- one_big_cfs --------------------------------------------------------------

void OneBigCfs(const Args& args, const std::string& run_dir, Run* run) {
  const size_t nproc = Nproc();
  spade::SyntheticOptions shape;
  shape.num_facts = kOneBigFacts;
  shape.dim_cardinality = {100, 40, 12};
  shape.num_measures = 15;
  shape.sparsity = 0.1;
  shape.multi_valued_dims = {2};
  shape.multi_value_prob = 0.3;
  shape.seed = args.seed;

  std::unique_ptr<spade::Graph> graph;
  std::unique_ptr<Spade> spade;
  std::vector<double> setups;
  for (int rep = 0; rep < SetupReps(args, 3); ++rep) {
    spade.reset();
    graph.reset();
    const int64_t t0 = Tracer::NowNs();
    graph = spade::GenerateSynthetic(shape);
    spade = std::make_unique<Spade>(graph.get(), BaseOptions(nproc));
    spade::Status st = spade->RunOffline();
    if (st.ok()) st = spade->PrepareFactSets();
    if (!st.ok() || spade->fact_sets().size() != 1) {
      run->Fail("set-up: " + st.ToString() + ", fact sets " +
                std::to_string(spade->fact_sets().size()));
      return;
    }
    setups.push_back(SecondsSince(t0));
  }
  NotePeakRss(run, "after set-up");
  const std::string cfs = spade->fact_sets()[0].name;
  run->Note("input: " + std::to_string(graph->NumTriples()) + " triples, " +
            std::to_string(spade->fact_sets()[0].members.size()) +
            " facts in " + cfs);

  WorkerPool pool(nproc);
  spade::ExploreRequest req;
  req.cfs_names = {cfs};
  std::vector<double> par[2], ser[2];
  std::string reference;
  spade::ExploreOutcome kept;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int64_t start = Tracer::NowNs();
  size_t explores = 0;
  do {
    const bool on = TraceOn(args);
    const uint64_t id = tracer().NewRequest();
    std::string text[2];
    for (int serial = 0; serial < 2; ++serial) {
      Span span(serial ? "explore.serial" : "explore.nproc", id);
      const int64_t t = Tracer::NowNs();
      auto out = spade->Explore(req, serial ? nullptr : pool.scheduler());
      const double ms = (Tracer::NowNs() - t) / 1e6;
      run->Attempt();
      if (!out.ok() || out->truncated) {
        run->Fail("explore: " + out.status().ToString());
        continue;
      }
      (serial ? ser : par)[on].push_back(ms);
      text[serial] = RenderOutcome(*out);
      if (reference.empty()) {
        reference = text[serial];
        kept = *out;
      }
      ++explores;
    }
    run->Check(text[0] == text[1] && text[0] == reference,
               "explores at " + std::to_string(nproc) +
                   " workers and at 1 worker answered differently");
  } while (SecondsSince(start) < budget);
  const double loop_s = SecondsSince(start);
  tracer().SetEnabled(false);
  SetEndToEnd(args, run, setups, par, ser, explores / loop_s, par);
  run->Note("explore_ms (" + std::to_string(nproc) +
            " workers): " + Describe(par[0], "ms"));
  run->Note("explore_serial_ms (1 worker): " + Describe(ser[0], "ms"));

  // Oracle: the returned insights, then the whole candidate space.
  ValueGraph values = ValueGraph::FromGraph(*graph);
  Oracle oracle(values);
  CheckTally tally = CheckInsights(oracle, *spade, kept.insights, 0);
  RecordTally(run, "oracle, returned insights", tally);
  run->Check(tally.checked > 0, "oracle checked no insight");
  const spade::SpadeOptions opts = BaseOptions(nproc);
  spade::CfsIndex index(spade->fact_sets()[0].members);
  spade::CfsAnalysis analysis = spade::AnalyzeAttributes(
      spade->store(), index, spade->offline_stats(), opts.enumeration);
  std::vector<spade::LatticeSpec> lattices = spade::EnumerateLattices(
      spade->store(), index, analysis, spade->offline_stats(), opts.enumeration);
  RecordTally(run, "oracle, top-k over the candidate space",
              CheckTopKComplete(oracle, *spade, cfs, lattices, kept.insights, 0));

  if (args.trace) {
    run->Set("oracle.insights_checked", static_cast<double>(tally.checked),
             "count");
    SweepInputs in;
    in.spade = spade.get();
    for (const char* variant : {" max-dims=1", " max-dims=1 top=3",
                                " max-dims=1 interestingness=skewness",
                                " max-dims=2 top=5"}) {
      in.serve_lines.push_back("explore cfs=" + cfs + variant);
    }
    ValueGraph sample = ValueGraph::FromGraph(*graph, 200000);
    in.sample = &sample;
    in.run_dir = run_dir;
    LayerSweep(in, args, args.seconds / 2, run);
  }
}

// --- many_cfs_serve -------------------------------------------------------------

void ManyCfsServe(const Args& args, const std::string& run_dir, Run* run) {
  const size_t nproc = Nproc();
  std::unique_ptr<spade::Graph> graph;
  std::unique_ptr<Spade> spade;
  std::unique_ptr<spade::net::TcpServer> server;
  std::thread server_loop;
  spade::net::TcpServeStats server_stats;
  std::vector<double> setups;
  for (int rep = 0; rep < SetupReps(args, 5); ++rep) {
    if (server) {
      server->RequestShutdown();
      server_loop.join();
      server.reset();
    }
    spade.reset();
    graph.reset();
    const int64_t t0 = Tracer::NowNs();
    graph = spade::GenerateRealDataset(spade::RealDataset::kCeos, args.seed,
                                       kManyScale);
    spade = std::make_unique<Spade>(graph.get(), BaseOptions(nproc));
    spade::Status st = spade->RunOffline();
    if (st.ok()) st = spade->PrepareFactSets();
    if (st.ok()) {
      server = std::make_unique<spade::net::TcpServer>(
          static_cast<const Spade*>(spade.get()), ServerOptions());
      st = server->Start();
    }
    if (!st.ok()) {
      run->Fail("set-up: " + st.ToString());
      return;
    }
    server_loop = std::thread([&] { server_stats = server->Run(); });
    setups.push_back(SecondsSince(t0));
  }
  NotePeakRss(run, "after set-up");
  const uint16_t port = server->port();
  std::vector<std::string> names;
  for (const auto& cfs : spade->fact_sets()) names.push_back(cfs.name);
  std::vector<std::vector<std::string>> streams(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    streams[c] = MakeMix(names, true, kMixLines, args.seed * 1000 + c);
  }

  struct ClientLog {
    std::vector<double> ms[2], all_ms[2];
    std::vector<std::string> lines;  // in the order sent
    std::map<std::string, std::string> replies;
  };
  std::vector<ClientLog> logs(kClients);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int64_t start = Tracer::NowNs();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        spade::net::LineClient client(ClientOptions(port, args.seed * 10 + c));
        ClientLog& log = logs[c];
        for (size_t i = 0; SecondsSince(start) < budget; ++i) {
          const std::string& line = streams[c][i % streams[c].size()];
          TraceOn(args);
          Span span("request", tracer().NewRequest());
          const bool on = span.active();
          const int64_t t = Tracer::NowNs();
          auto reply = client.Request(line);
          const double ms = (Tracer::NowNs() - t) / 1e6;
          run->Attempt();
          if (!IsOk(reply)) {
            run->Fail(ReplyError(line, reply));
            continue;
          }
          log.ms[on].push_back(ms);
          if (line.find("cfs=") == std::string::npos) log.all_ms[on].push_back(ms);
          log.lines.push_back(line);
          auto [it, fresh] = log.replies.emplace(line, *reply);
          if (!fresh && it->second != *reply) {
            run->Fail("repeated line answered differently: " + line);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double loop_s = SecondsSince(start);
  tracer().SetEnabled(false);
  server->RequestShutdown();
  server_loop.join();

  std::vector<double> ms[2], all_ms[2];
  std::map<std::string, std::string> replies;
  std::vector<std::vector<std::string>> sent;
  size_t completed = 0;
  for (const ClientLog& log : logs) {
    for (int on = 0; on < 2; ++on) {
      ms[on].insert(ms[on].end(), log.ms[on].begin(), log.ms[on].end());
      all_ms[on].insert(all_ms[on].end(), log.all_ms[on].begin(),
                        log.all_ms[on].end());
    }
    completed += log.lines.size();
    sent.push_back(log.lines);
    for (const auto& [line, reply] : log.replies) {
      auto [it, fresh] = replies.emplace(line, reply);
      if (!fresh && it->second != reply) {
        run->Fail("connections got different answers to: " + line);
      }
    }
  }
  SetEndToEnd(args, run, setups, ms, all_ms, completed / loop_s, ms);
  const spade::SpadeReport& report = spade->report();
  run->Note("input: " + std::to_string(graph->NumTriples()) + " triples, " +
            std::to_string(names.size()) + " fact sets, " +
            std::to_string(report.derivations.total()) + " derived attributes");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mix: %zu requests sent, %.1f%% exactly repeat an earlier line "
                "(generated streams: %.1f%%), %zu requests shed",
                completed, 100 * RepeatShare(sent), 100 * RepeatShare(streams),
                static_cast<size_t>(server_stats.num_requests_shed));
  run->Note(buf);
  run->Note("serve_rps: " + std::to_string(completed / loop_s));
  run->Note("serve_p50_ms / serve_p99_ms: " + Describe(ms[0], "ms"));
  run->Note("explore_all_ms: " + Describe(all_ms[0], "ms"));
  run->Check(server_stats.num_requests_shed == 0, "the server shed requests");

  // Properties and oracle on a sample of the distinct lines sent: the first
  // ones of connection 0 plus the first all-CFS and early-stop lines.
  std::vector<std::string> check;
  auto add_check = [&](const std::string& line) {
    if (std::find(check.begin(), check.end(), line) == check.end()) {
      check.push_back(line);
    }
  };
  for (const std::string& line : logs[0].lines) {
    if (check.size() >= 8) break;
    add_check(line);
  }
  for (const auto& log : logs) {
    for (const std::string& line : log.lines) {
      if (line.find("cfs=") == std::string::npos) {
        add_check(line);
        break;
      }
    }
    for (const std::string& line : log.lines) {
      if (line.find("earlystop=on") != std::string::npos) {
        add_check(line);
        break;
      }
    }
  }
  WorkerPool pool(nproc);
  spade::persist::ServeOptions so;
  so.num_threads = nproc;
  spade::persist::InsightServer core(static_cast<const Spade*>(spade.get()), so);
  ValueGraph values = ValueGraph::FromGraph(*graph);
  Oracle oracle(values);
  CheckTally tally;
  for (const std::string& line : check) {
    bool is_error = false, truncated = false;
    const std::string local =
        core.HandleLine(line, pool.scheduler(), nullptr, &is_error, &truncated);
    run->Check(WithNewline(local) == replies[line],
               "TCP reply differs from HandleLine for '" + line + "'");
    if (line.find("earlystop=on") != std::string::npos) {
      const std::string full = core.HandleLine(
          FullEvaluationLine(line), pool.scheduler(), nullptr, &is_error,
          &truncated);
      const std::map<std::string, std::string> exact = ScoresOf(full);
      for (const auto& [insight, score] : ScoresOf(local)) {
        auto it = exact.find(insight);
        run->Check(it != exact.end() && it->second == score,
                   "early-stop score differs from the full evaluation: " +
                       insight);
      }
    }
    spade::ExploreRequest req;
    int kind = 0;
    if (!ParseExplore(line, &req, &kind)) {
      run->Fail("unparsable mix line: " + line);
      continue;
    }
    auto out = spade->Explore(req, pool.scheduler());
    if (!out.ok()) {
      run->Fail("explore: " + out.status().ToString());
      continue;
    }
    // The insights the oracle checks are the ones the server sent.
    run->Check(ServedReply(*out) == replies[line],
               "in-process explore differs from the TCP reply for '" + line +
                   "': " + FirstDifference(ServedReply(*out), replies[line]));
    tally.Add(CheckInsights(oracle, *spade, out->insights, kind));
  }
  RecordTally(run, "oracle, insights of " + std::to_string(check.size()) +
                       " distinct lines",
              tally);
  run->Check(tally.checked > 0, "oracle checked no insight");

  if (args.trace) {
    run->Set("oracle.insights_checked", static_cast<double>(tally.checked),
             "count");
    SweepInputs in;
    in.spade = spade.get();
    in.serve_lines.assign(streams[0].begin(), streams[0].begin() + 16);
    in.sample = &values;
    in.run_dir = run_dir;
    LayerSweep(in, args, args.seconds / 2, run);
  }
}

// --- write_path ------------------------------------------------------------------

void WritePath(const Args& args, const std::string& run_dir, Run* run) {
  const size_t nproc = Nproc();
  const std::string base_path = run_dir + "/base.nt";
  const std::string snap_path = run_dir + "/store.snapshot";
  auto add_path = [&](size_t j) { return run_dir + "/add" + std::to_string(j) + ".nt"; };
  auto ret_path = [&](size_t j) { return run_dir + "/retract" + std::to_string(j) + ".nt"; };

  // Timed set-up: generate the graph and write it as N-Triples with the
  // program's writer.
  std::unique_ptr<spade::Graph> graph;
  std::vector<double> setups;
  for (int rep = 0; rep < SetupReps(args, 5); ++rep) {
    graph.reset();
    const int64_t t0 = Tracer::NowNs();
    graph = spade::GenerateRealDataset(spade::RealDataset::kCeos, args.seed,
                                       kWriteScale);
    std::ofstream out(base_path, std::ios::binary | std::ios::trunc);
    spade::NTriplesWriter::Write(*graph, out);
    out.close();
    if (!out) {
      run->Fail("set-up: cannot write " + base_path);
      return;
    }
    setups.push_back(SecondsSince(t0));
  }
  // Untimed: the value-level copy the oracle and the churn work on, and the
  // delta files.
  ValueGraph base = ValueGraph::FromGraph(*graph);
  graph.reset();
  std::vector<Churn> churns;
  for (size_t j = 0; j < kChurnPairs; ++j) {
    churns.push_back(MakeChurn(&base, kChurnFraction, args.seed * 97 + j));
    if (!WriteFile(add_path(j), base.ToNTriples(churns[j].adds)) ||
        !WriteFile(ret_path(j), base.ToNTriples(churns[j].retracts))) {
      run->Fail("set-up: cannot write the delta files under " + run_dir);
      return;
    }
  }
  NotePeakRss(run, "after set-up");
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "input: %zu triples, %.1f MiB of N-Triples; churn batch: %zu "
                "retracts / %zu adds (%zu measure, %zu dimension edits)",
                base.triples().size(), FileBytes(base_path) / 1048576.0,
                churns[0].retracts.size(), churns[0].adds.size(),
                churns[0].measure_edits, churns[0].dimension_edits);
  run->Note(buf);

  // Phase 1: cold start from the file, snapshot save, snapshot load.
  WorkerPool pool(nproc);
  const spade::ExploreRequest all;
  std::unique_ptr<spade::Graph> loaded_graph;
  std::unique_ptr<Spade> loaded;
  std::vector<double> ingest_ms[2], load_ms, save_ms;
  uint64_t snapshot_bytes = 0;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  int64_t start = Tracer::NowNs();
  do {
    // One store at a time: the previous round's loaded copy goes first.
    loaded.reset();
    loaded_graph.reset();
    const bool on = TraceOn(args);
    Span span("write.cold_start", tracer().NewRequest());
    int64_t t = Tracer::NowNs();
    auto graph = std::make_unique<spade::Graph>();
    spade::SpadeOptions o = BaseOptions(nproc);
    o.ingest.enabled = true;
    auto fresh = std::make_unique<Spade>(graph.get(), o);
    spade::Status st;
    {
      std::ifstream in(base_path);
      spade::NTriplesChunkSource src(in, graph.get());
      st = fresh->RunOffline(&src);
    }
    if (st.ok()) st = fresh->PrepareFactSets();
    auto first = fresh->Explore(all, pool.scheduler());
    run->Attempt();
    if (!st.ok() || !first.ok()) {
      run->Fail("cold start: " + st.ToString() + " " + first.status().ToString());
      return;
    }
    ingest_ms[on].push_back((Tracer::NowNs() - t) / 1e6);

    t = Tracer::NowNs();
    st = fresh->SaveStore(snap_path);
    save_ms.push_back((Tracer::NowNs() - t) / 1e6);
    snapshot_bytes = FileBytes(snap_path);
    const std::string first_text = RenderOutcome(*first);
    fresh.reset();
    graph.reset();
    t = Tracer::NowNs();
    auto graph2 = std::make_unique<spade::Graph>();
    spade::SpadeOptions lo = BaseOptions(nproc);
    lo.load_store = snap_path;
    auto reloaded = std::make_unique<Spade>(graph2.get(), lo);
    if (st.ok()) st = reloaded->RunOffline();
    if (st.ok()) st = reloaded->PrepareFactSets();
    auto second = reloaded->Explore(all, pool.scheduler());
    run->Attempt();
    if (!st.ok() || !second.ok()) {
      run->Fail("snapshot: " + st.ToString() + " " + second.status().ToString());
      return;
    }
    load_ms.push_back((Tracer::NowNs() - t) / 1e6);
    run->Check(first_text == RenderOutcome(*second),
               "first insights after ingest and after snapshot load differ");
    loaded_graph = std::move(graph2);
    loaded = std::move(reloaded);
  } while (SecondsSince(start) < budget / 2);

  NotePeakRss(run, "after phase 1");
  // Phase 2: one writer applying batches beside three readers, then compact.
  const std::vector<std::string> names = TypeCfsNames(*loaded);
  spade::net::TcpServer server(loaded.get(), ServerOptions());
  spade::Status st = server.Start();
  if (!st.ok()) {
    run->Fail("server start: " + st.ToString());
    return;
  }
  spade::net::TcpServeStats server_stats;
  std::thread server_loop([&] { server_stats = server.Run(); });
  // Readers send the single-CFS max-dims=2 explores of a mix: the cold
  // starts above already time the all-CFS explore, lattice work stays small
  // beside the write path, and rounds are short enough for about twenty
  // batches a run.
  std::vector<std::vector<std::string>> reader_lines(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    for (std::string& line : MakeMix(names, false, kMixLines, args.seed * 500 + r)) {
      if (line.find("max-dims=2") != std::string::npos) {
        reader_lines[r].push_back(std::move(line));
      }
    }
  }
  // Rounds of two steps, so that the writer lock is contended both ways.
  // Step one: each reader sends an explore, and kWriterDelay later the writer
  // sends its batch, which waits for those reads to release the lock: apply
  // latency includes the writer's wait. Step two starts once every first
  // read has answered, when the batch holds the lock: each reader sends
  // another explore, which waits behind the writer. Bounded reads per round
  // also keep the batch from waiting forever, since the lock prefers readers.
  spade::net::LineClient writer(ClientOptions(server.port(), args.seed * 3));
  std::vector<std::unique_ptr<spade::net::LineClient>> reader_clients;
  for (size_t r = 0; r < kReaders; ++r) {
    reader_clients.push_back(std::make_unique<spade::net::LineClient>(
        ClientOptions(server.port(), args.seed * 5 + r)));
  }
  std::vector<double> apply_ms[2], read_ms[2], step_ms[kReadSteps], round_s;
  std::mutex read_mu;
  size_t batches = 0;
  start = Tracer::NowNs();
  bool writer_ok = true;
  do {
    const bool on = TraceOn(args);
    const int64_t round_start = Tracer::NowNs();
    std::thread writer_thread([&] {
      std::this_thread::sleep_for(kWriterDelay);
      const size_t j = (batches / 2) % kChurnPairs;
      const bool forward = batches % 2 == 0;
      const std::string line = "apply add=" + (forward ? add_path(j) : ret_path(j)) +
                               " retract=" + (forward ? ret_path(j) : add_path(j));
      Span span("write.apply", tracer().NewRequest());
      const int64_t t = Tracer::NowNs();
      auto reply = writer.Request(line);
      run->Attempt();
      if (!IsOk(reply)) {
        run->Fail(ReplyError(line, reply));
        writer_ok = false;
        return;
      }
      apply_ms[on].push_back((Tracer::NowNs() - t) / 1e6);
    });
    for (size_t step = 0; step < kReadSteps; ++step) {
      std::vector<std::thread> threads;
      for (size_t r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r, step] {
          const std::vector<std::string>& mix = reader_lines[r];
          const std::string& line = mix[(batches * kReadSteps + step) % mix.size()];
          Span span("request", tracer().NewRequest());
          const int64_t t = Tracer::NowNs();
          auto reply = reader_clients[r]->Request(line);
          const double ms = (Tracer::NowNs() - t) / 1e6;
          run->Attempt();
          if (!IsOk(reply)) {
            run->Fail(ReplyError(line, reply));
            return;
          }
          std::lock_guard<std::mutex> lock(read_mu);
          read_ms[on].push_back(ms);
          if (!on) step_ms[step].push_back(ms);
        });
      }
      for (auto& t : threads) t.join();
    }
    writer_thread.join();
    if (!writer_ok) break;
    if (!on) round_s.push_back(SecondsSince(round_start));
    ++batches;
  } while (SecondsSince(start) < budget / 2);
  run->Note("phase 2 rounds: " + Describe(round_s, "s"));
  NotePeakRss(run, "before compact");
  {
    auto reply = writer.Request("compact");
    run->Check(IsOk(reply), ReplyError("compact", reply));
  }
  tracer().SetEnabled(false);
  server.RequestShutdown();
  server_loop.join();
  NotePeakRss(run, "after phase 2");

  // Reads per second beside the writer: the reads of a round over the
  // median round time, so that one slow round does not move it.
  SetEndToEnd(args, run, setups, ingest_ms, apply_ms,
              kReadSteps * kReaders / Median(round_s), read_ms);
  run->Note("ingest_to_insight_ms: " + Describe(ingest_ms[0], "ms"));
  run->Note("load_to_insight_ms: " + Describe(load_ms, "ms") +
            "; snapshot save " + Describe(save_ms, "ms"));
  std::snprintf(buf, sizeof(buf), "snapshot_mb: %.2f MiB",
                snapshot_bytes / 1048576.0);
  run->Note(buf);
  run->Note("apply_ms (" + std::to_string(batches) +
            " batches, then compact): " + Describe(apply_ms[0], "ms"));
  run->Note("churn reads (" + std::to_string(kReaders) +
            " readers beside the writer): " + Describe(read_ms[0], "ms"));
  run->Note("  sent before the batch: " + Describe(step_ms[0], "ms") +
            "; sent while it holds the lock: " + Describe(step_ms[1], "ms"));
  run->Check(server_stats.num_requests_shed == 0, "the server shed requests");

  // The final triple set at value level, after every applied batch.
  ValueGraph final_set = base;
  for (size_t k = 0; k < batches; ++k) {
    const Churn& c = churns[(k / 2) % kChurnPairs];
    if (k % 2 == 0) {
      final_set.ApplyBatch(c.adds, c.retracts);
    } else {
      final_set.ApplyBatch(c.retracts, c.adds);
    }
  }
  // After the churn and compact, explores equal those of a fresh build.
  spade::Graph rebuilt_graph;
  Spade rebuilt(&rebuilt_graph, BaseOptions(nproc));
  {
    std::istringstream text(final_set.ToNTriples());
    spade::NTriplesChunkSource src(text, &rebuilt_graph);
    st = rebuilt.RunOffline(&src);
    // Compact reseals in the canonical term order, as it did on the churned
    // store: both then number terms alike, so ties and summation order match.
    if (st.ok()) st = rebuilt.Compact();
    if (st.ok()) st = rebuilt.PrepareFactSets();
  }
  if (!st.ok()) {
    run->Fail("fresh build of the final triple set: " + st.ToString());
    return;
  }
  spade::persist::ServeOptions so;
  so.num_threads = nproc;
  spade::persist::InsightServer churned(static_cast<const Spade*>(loaded.get()), so);
  spade::persist::InsightServer fresh(static_cast<const Spade*>(&rebuilt), so);
  std::vector<std::string> lines = {"list", "explore"};
  for (const std::string& name : names) lines.push_back("explore cfs=" + name);
  for (const std::string& line : lines) {
    bool is_error = false, truncated = false;
    const std::string a = churned.HandleLine(line, pool.scheduler(), nullptr,
                                             &is_error, &truncated);
    const std::string b = fresh.HandleLine(line, pool.scheduler(), nullptr,
                                           &is_error, &truncated);
    run->Check(a == b, "after the churn '" + line +
                           "' differs from a fresh build: " + FirstDifference(a, b));
  }
  Oracle oracle(final_set);
  auto out = rebuilt.Explore(all, pool.scheduler());
  CheckTally tally;
  if (out.ok()) tally = CheckInsights(oracle, rebuilt, out->insights, 0);
  RecordTally(run, "oracle, insights of the final triple set", tally);
  run->Check(out.ok() && tally.checked > 0, "oracle checked no insight");

  if (args.trace) {
    run->Set("oracle.insights_checked", static_cast<double>(tally.checked),
             "count");
    SweepInputs in;
    in.spade = loaded.get();
    in.serve_lines.assign(reader_lines[0].begin(), reader_lines[0].begin() + 16);
    in.sample = &final_set;
    in.run_dir = run_dir;
    LayerSweep(in, args, args.seconds / 2, run);
  }
}

}  // namespace perfbench
