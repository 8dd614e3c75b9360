// The layer sweep of a traced run: every layer the benchmark names, called
// through its public function on the workload's own data, each call inside
// a span. Per-layer times are the median over sweep rounds of each layer's
// summed span time in the round; per-request layers (net.client,
// persist.serve.handle) are medians over requests.
#include "perfbench/src/sweep.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "perfbench/src/trace.h"
#include "src/core/cfs.h"
#include "src/core/enumeration.h"
#include "src/derive/derivations.h"
#include "src/ingest/chunk_source.h"
#include "src/ingest/ingest.h"
#include "src/net/line_client.h"
#include "src/net/tcp_server.h"
#include "src/persist/serve.h"
#include "src/rdf/ntriples.h"
#include "src/stats/attr_stats.h"
#include "src/store/delta.h"
#include "src/summary/summary.h"

namespace perfbench {

namespace {

using spade::Spade;

/// Counts and ratios of one round, by metric name.
using RoundValues = std::map<std::string, double>;

void OnlineLayers(const SweepInputs& in, WorkerPool* pool, Run* run,
                  RoundValues* out) {
  const Spade& sp = *in.spade;
  const spade::SpadeOptions opts = BaseOptions(Nproc());
  std::vector<spade::CandidateFactSet> sets;
  {
    Span s("core.cfs.select");
    sets = spade::SelectCandidateFactSets(sp.store().graph(), &sp.summary(),
                                          opts.cfs);
  }
  run->Check(sets.size() == sp.fact_sets().size(),
             "sweep: fact-set selection differs from the pipeline's");

  spade::Arm total(opts.max_stored_groups);
  size_t candidates = 0, pruned = 0, workers = 0, groups = 0, evaluated = 0,
         reused = 0;
  double wall = 0, work = 0;
  uint64_t peak_cells = 0, peak_bitmap = 0;
  for (uint32_t id = 0; id < sp.fact_sets().size(); ++id) {
    spade::CfsIndex index(sp.fact_sets()[id].members);
    spade::CfsAnalysis analysis;
    {
      Span s("core.enumeration.analyze");
      analysis = spade::AnalyzeAttributes(sp.store(), index, sp.offline_stats(),
                                          opts.enumeration);
    }
    std::vector<spade::LatticeSpec> lattices;
    {
      Span s("core.enumeration.enumerate");
      lattices = spade::EnumerateLattices(sp.store(), index, analysis,
                                          sp.offline_stats(), opts.enumeration);
    }
    candidates += spade::CountCandidateAggregates(id, lattices);
    spade::CubeEvalOptions eo;
    eo.top_k = opts.top_k;
    eo.num_shards = spade::ResolveShardCount(
        eo.algorithm, false, opts.num_shards, pool->scheduler()->num_threads());
    spade::CubeEvalInputs inputs;
    inputs.db = &sp.store();
    inputs.cfs_id = id;
    inputs.cfs = &index;
    inputs.lattices = &lattices;
    inputs.offline_stats = &sp.offline_stats();
    std::unique_ptr<spade::CubeEvaluator> evaluator = spade::MakeCubeEvaluator(eo);
    spade::Arm shard(opts.max_stored_groups);
    spade::EvalStats stats;
    {
      Span s("exec.evaluator.prepare");
      evaluator->Prepare(inputs, shard, pool->scheduler(), &stats);
    }
    for (size_t li = 0; li < lattices.size(); ++li) {
      Span s("exec.evaluator.lattice");
      evaluator->EvaluateLattice(inputs, li, &shard, pool->scheduler(), &stats);
    }
    total.Absorb(std::move(shard));
    workers = std::max(workers, stats.lattice_workers_used);
    wall += stats.lattice_wall_ms;
    work += stats.lattice_work_ms;
    groups += stats.num_groups_emitted;
    evaluated += stats.num_mdas_evaluated;
    reused += stats.num_mdas_reused;
    peak_cells = std::max(peak_cells, stats.lattice_peak_partial_cells);
    peak_bitmap = std::max(peak_bitmap, stats.peak_bitmap_bytes);

    // The same CFS with early-stop on: how much of the candidate space the
    // confidence intervals prune.
    spade::CubeEvalOptions es = eo;
    es.enable_earlystop = true;
    es.num_shards = 1;
    spade::Arm es_arm(opts.max_stored_groups);
    Span s("exec.evaluator.earlystop");
    pruned += spade::MakeCubeEvaluator(es)
                  ->EvaluateCfs(inputs, &es_arm, pool->scheduler())
                  .num_mdas_pruned;
  }
  std::vector<spade::Arm::Ranked> top;
  {
    Span s("core.arm.topk");
    top = total.TopK(opts.top_k, opts.interestingness);
  }
  size_t sparql_bytes = 0;
  {
    Span s("sparql.render");
    for (const auto& r : top) sparql_bytes += sp.MdaToSparql(r.key).size();
  }
  run->Check(!top.empty() && sparql_bytes > 0, "sweep: no insight rendered");
  (*out)["core.lattice.wall_ms"] = wall;
  (*out)["core.lattice.slice_work_ms"] = work;
  (*out)["core.lattice.parallel_efficiency"] =
      wall > 0 && workers > 0 ? work / (wall * workers) : 0;
  (*out)["exec.lattice_workers"] = static_cast<double>(workers);
  (*out)["core.groups_emitted"] = static_cast<double>(groups);
  (*out)["core.mdas_evaluated"] = static_cast<double>(evaluated);
  (*out)["core.mdas_reused"] = static_cast<double>(reused);
  (*out)["core.lattice.peak_partial_cells"] = static_cast<double>(peak_cells);
  (*out)["bitmap.peak_bytes"] = static_cast<double>(peak_bitmap);
  (*out)["core.earlystop.pruned_ratio"] =
      candidates > 0 ? static_cast<double>(pruned) / candidates : 0;
}

/// The serve lines in process through HandleLine, then over TCP, both with
/// the same number of concurrent callers; every TCP reply must equal the
/// in-process one.
void ServeLayers(const SweepInputs& in, WorkerPool* pool, Run* run,
                 RoundValues* out) {
  const size_t callers = std::min<size_t>(4, Nproc());
  const std::vector<std::string>& lines = in.serve_lines;
  spade::persist::ServeOptions so;
  so.num_threads = Nproc();
  spade::persist::InsightServer core(in.spade, so);
  std::vector<std::string> local(lines.size());
  Tracer& tracer = Tracer::Get();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < lines.size(); i += callers) {
          Span s("persist.serve.handle", tracer.NewRequest());
          bool is_error = false, truncated = false;
          local[i] = core.HandleLine(lines[i], pool->scheduler(), nullptr,
                                     &is_error, &truncated);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  spade::net::TcpServer server(in.spade, ServerOptions());
  spade::Status st = server.Start();
  if (!st.ok()) {
    run->Fail("sweep: server start: " + st.ToString());
    return;
  }
  spade::net::TcpServeStats stats;
  std::thread loop([&] { stats = server.Run(); });
  std::vector<std::string> remote(lines.size());
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        spade::net::LineClient client(ClientOptions(server.port(), 77 + c));
        for (size_t i = c; i < lines.size(); i += callers) {
          Span s("net.client", tracer.NewRequest());
          auto reply = client.Request(lines[i]);
          remote[i] = reply.ok() ? *reply : "transport: " + reply.status().ToString();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  server.RequestShutdown();
  loop.join();
  for (size_t i = 0; i < lines.size(); ++i) {
    run->Check(remote[i] == WithNewline(local[i]),
               "sweep: TCP reply differs from HandleLine for '" + lines[i] + "'");
  }
  (*out)["net.requests_shed"] = static_cast<double>(stats.num_requests_shed);
}

void OfflineLayers(const std::string& nt, WorkerPool* pool, Run* run,
                   RoundValues* out) {
  {
    Span s("rdf.parse");
    spade::Graph g;
    std::istringstream text(nt);
    spade::NTriplesChunkSource src(text, &g);
    std::vector<spade::Triple> chunk;
    bool done = false;
    while (!done) {
      spade::Status st = src.NextChunk(65536, &chunk, &done);
      if (!st.ok()) {
        run->Fail("sweep: parse: " + st.ToString());
        return;
      }
    }
  }
  spade::Graph g;
  spade::AttributeStore store(&g);
  std::vector<spade::AttrStats> stats;
  spade::IngestStats ingest;
  {
    Span s("ingest.wall");
    std::istringstream text(nt);
    spade::NTriplesChunkSource src(text, &g);
    spade::IngestOptions io;
    io.enabled = true;
    spade::Status st = spade::RunStreamingIngest(
        &src, &g, &store, &stats, pool->scheduler(), io, nullptr, &ingest);
    if (!st.ok()) {
      run->Fail("sweep: ingest: " + st.ToString());
      return;
    }
  }
  (*out)["ingest.overlap_ms"] = ingest.overlap_ms;
  size_t classes = 0;
  {
    Span s("summary.build");
    classes = spade::StructuralSummary::Build(g).num_classes();
  }
  std::vector<spade::AttrStats> recomputed;
  {
    Span s("stats.compute");
    for (spade::AttrId a = 0; a < store.num_attributes(); ++a) {
      recomputed.push_back(spade::ComputeAttrStats(store, a));
    }
  }
  size_t derived = 0;
  {
    Span s("derive.all");
    derived = spade::DeriveAll(&store, recomputed, spade::DerivationOptions())
                  .total();
  }
  run->Check(classes > 0 && recomputed.size() == stats.size() && derived > 0,
             "sweep: summary, statistics or derivations came out empty");
}

std::vector<spade::Triple> ParseTriples(const std::string& nt, spade::Graph* g,
                                        Run* run) {
  std::vector<spade::Triple> all, chunk;
  std::istringstream text(nt);
  spade::NTriplesChunkReader reader(text, g);
  bool done = false;
  while (!done) {
    spade::Status st = reader.NextChunk(65536, &chunk, &done);
    if (!st.ok()) {
      run->Fail("sweep: delta parse: " + st.ToString());
      break;
    }
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

void PersistAndDeltaLayers(const SweepInputs& in, const std::string& nt,
                           const Churn& churn, Run* run, RoundValues* out) {
  spade::Graph g;
  spade::SpadeOptions o = BaseOptions(Nproc());
  o.ingest.enabled = true;
  o.enable_incremental = true;
  Spade sp(&g, o);
  {
    std::istringstream text(nt);
    spade::NTriplesChunkSource src(text, &g);
    spade::Status st = sp.RunOffline(&src);
    if (st.ok()) st = sp.PrepareFactSets();
    if (st.ok()) st = sp.RunOnline().status();
    if (!st.ok()) {
      run->Fail("sweep: build: " + st.ToString());
      return;
    }
  }
  const std::string path = in.run_dir + "/sweep.snapshot";
  spade::Status st;
  {
    Span s("persist.save");
    st = sp.SaveStore(path);
  }
  run->Check(st.ok(), "sweep: save: " + st.ToString());
  (*out)["persist.snapshot_bytes"] = static_cast<double>(FileBytes(path));
  {
    Span s("persist.load");
    spade::Graph lg;
    spade::SpadeOptions lo = BaseOptions(Nproc());
    lo.load_store = path;
    Spade loaded(&lg, lo);
    st = loaded.RunOffline();
  }
  run->Check(st.ok(), "sweep: load: " + st.ToString());
  std::remove(path.c_str());

  const std::string adds_nt = in.sample->ToNTriples(churn.adds);
  const std::string retracts_nt = in.sample->ToNTriples(churn.retracts);
  {
    // MergeTableWithDelta over the attributes the batch touches.
    std::vector<spade::Triple> adds = ParseTriples(adds_nt, &g, run);
    std::vector<spade::Triple> retracts = ParseTriples(retracts_nt, &g, run);
    spade::GraphDelta staged;
    g.StageDelta(std::move(adds), std::move(retracts), &staged);
    spade::TripleDeltaByProperty by_property =
        spade::GroupDeltaByProperty(staged.added, staged.removed, g.rdf_type());
    Span s("store.delta.merge");
    for (const spade::PropertyDelta& pd : by_property.properties) {
      const spade::AttributeTable* base = nullptr;
      for (spade::AttrId a = 0; a < sp.store().num_attributes(); ++a) {
        const spade::AttributeTable& t = sp.store().attribute(a);
        if (t.origin == spade::AttrOrigin::kDirect && t.property == pd.property) {
          base = &t;
        }
      }
      spade::MergeTableWithDelta(base, pd);
    }
  }
  spade::DeltaReport report;
  {
    Span s("store.delta.apply");
    std::istringstream a(adds_nt), r(retracts_nt);
    spade::NTriplesChunkSource adds(a, &g), retracts(r, &g);
    st = sp.ApplyDelta(&adds, &retracts, &report);
  }
  run->Check(st.ok() && report.num_added > 0,
             "sweep: apply: " + st.ToString());
  (*out)["store.delta.attrs_changed"] =
      static_cast<double>(report.num_attrs_changed);
  (*out)["core.cfs_reused"] = static_cast<double>(report.num_cfs_reused);
  {
    Span s("persist.compact");
    st = sp.Compact();
  }
  run->Check(st.ok(), "sweep: compact: " + st.ToString());
}

}  // namespace

void LayerSweep(const SweepInputs& in, const Args& args, double budget_s,
                Run* run) {
  Tracer& tracer = Tracer::Get();
  WorkerPool pool(Nproc());
  const std::string nt = in.sample->ToNTriples();
  const Churn churn = MakeChurn(in.sample, 0.01, args.seed * 31 + 7);
  std::vector<uint64_t> rounds;
  std::map<std::string, std::vector<double>> values;
  const int64_t start = Tracer::NowNs();
  tracer.SetEnabled(true);
  do {
    const uint64_t id = tracer.NewRequest();
    rounds.push_back(id);
    RoundValues round;
    Span s("sweep.round", id);
    OnlineLayers(in, &pool, run, &round);
    ServeLayers(in, &pool, run, &round);
    OfflineLayers(nt, &pool, run, &round);
    PersistAndDeltaLayers(in, nt, churn, run, &round);
    for (const auto& [name, v] : round) values[name].push_back(v);
  } while (SecondsSince(start) < budget_s);
  tracer.SetEnabled(false);

  static const char* kRoundLayers[] = {
      "core.cfs.select",      "core.enumeration.analyze",
      "core.enumeration.enumerate", "exec.evaluator.prepare",
      "exec.evaluator.lattice",     "core.arm.topk",
      "sparql.render",        "rdf.parse",
      "ingest.wall",          "summary.build",
      "stats.compute",        "derive.all",
      "persist.save",         "persist.load",
      "store.delta.apply",    "store.delta.merge",
      "persist.compact"};
  for (const char* layer : kRoundLayers) {
    std::map<uint64_t, double> per = tracer.PerRequestMs(layer);
    std::vector<double> v;
    for (uint64_t id : rounds) v.push_back(per.count(id) ? per[id] : 0.0);
    run->Set(std::string(layer) + "_ms", Median(v), "ms");
  }
  auto per_request = [&](const char* layer) {
    std::vector<double> v;
    for (const auto& [id, ms] : tracer.PerRequestMs(layer)) v.push_back(ms);
    return Median(v);
  };
  const double client = per_request("net.client");
  const double handle = per_request("persist.serve.handle");
  run->Set("net.client_ms", client, "ms");
  run->Set("persist.serve.handle_ms", handle, "ms");
  run->Set("net.wait_ms", client - handle, "ms");
  static const std::pair<const char*, const char*> kRoundCounts[] = {
      {"core.lattice.wall_ms", "ms"},
      {"core.lattice.slice_work_ms", "ms"},
      {"core.lattice.parallel_efficiency", "ratio"},
      {"exec.lattice_workers", "count"},
      {"core.groups_emitted", "count"},
      {"core.mdas_evaluated", "count"},
      {"core.mdas_reused", "count"},
      {"core.lattice.peak_partial_cells", "count"},
      {"bitmap.peak_bytes", "bytes"},
      {"core.earlystop.pruned_ratio", "ratio"},
      {"net.requests_shed", "count"},
      {"ingest.overlap_ms", "ms"},
      {"persist.snapshot_bytes", "bytes"},
      {"store.delta.attrs_changed", "count"},
      {"core.cfs_reused", "count"}};
  for (const auto& [name, unit] : kRoundCounts) {
    run->Set(name, Median(values[name]), unit);
  }
  run->Note("layer sweep: " + std::to_string(rounds.size()) + " rounds, " +
            std::to_string(in.sample->triples().size()) +
            " triples in the ingest sample, churn batch " +
            std::to_string(churn.retracts.size()) + " retracts / " +
            std::to_string(churn.adds.size()) + " adds");
}

}  // namespace perfbench
