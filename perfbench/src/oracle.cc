#include "perfbench/src/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>

#include "src/core/spade.h"
#include "src/rdf/ntriples.h"

namespace perfbench {

namespace {

constexpr const char* kRdfTypeTerm =
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";

bool Close(double a, double b, double rel) {
  if (a == b) return true;
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

bool ParseLiteralNumber(const std::string& term, double* out) {
  if (term.empty() || term[0] != '"') return false;
  std::string lex;
  for (size_t i = 1; i < term.size(); ++i) {
    if (term[i] == '\\' && i + 1 < term.size()) {
      lex.push_back(term[++i]);
    } else if (term[i] == '"') {
      break;
    } else {
      lex.push_back(term[i]);
    }
  }
  size_t b = lex.find_first_not_of(" \t\r\n");
  size_t e = lex.find_last_not_of(" \t\r\n");
  if (b == std::string::npos) return false;
  lex = lex.substr(b, e - b + 1);
  char* end = nullptr;
  *out = std::strtod(lex.c_str(), &end);
  return end == lex.c_str() + lex.size();
}

// --- ValueGraph -------------------------------------------------------------

uint32_t ValueGraph::Intern(const std::string& term) {
  auto it = ids_.find(term);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(terms_.size());
  terms_.push_back(term);
  ids_.emplace(term, id);
  return id;
}

uint32_t ValueGraph::Find(const std::string& term) const {
  auto it = ids_.find(term);
  return it == ids_.end() ? kNone : it->second;
}

ValueGraph ValueGraph::FromGraph(const spade::Graph& graph,
                                 size_t max_triples) {
  ValueGraph out;
  std::vector<uint32_t> cache(graph.dict().max_id() + 1, kNone);
  auto map = [&](spade::TermId id) {
    if (cache[id] == kNone) {
      cache[id] = out.Intern(spade::NTriplesWriter::FormatTerm(graph.dict(), id));
    }
    return cache[id];
  };
  spade::TermId last_subject = spade::kInvalidTerm;
  for (const spade::Triple& t : graph.triples()) {
    if (t.s != last_subject && out.triples_.size() >= max_triples) break;
    last_subject = t.s;
    out.triples_.push_back({map(t.s), map(t.p), map(t.o)});
  }
  out.Seal();
  return out;
}

void ValueGraph::Add(const std::string& s, const std::string& p,
                     const std::string& o) {
  triples_.push_back({Intern(s), Intern(p), Intern(o)});
}

void ValueGraph::Seal() {
  std::sort(triples_.begin(), triples_.end());
  triples_.erase(std::unique(triples_.begin(), triples_.end()), triples_.end());
}

void ValueGraph::ApplyBatch(const std::vector<Triple>& adds,
                            const std::vector<Triple>& retracts) {
  std::vector<Triple> r = retracts, a = adds;
  std::sort(r.begin(), r.end());
  std::sort(a.begin(), a.end());
  std::vector<Triple> kept;
  kept.reserve(triples_.size());
  std::set_difference(triples_.begin(), triples_.end(), r.begin(), r.end(),
                      std::back_inserter(kept));
  std::vector<Triple> merged;
  merged.reserve(kept.size() + a.size());
  std::set_union(kept.begin(), kept.end(), a.begin(), a.end(),
                 std::back_inserter(merged));
  triples_ = std::move(merged);
}

std::string ValueGraph::ToNTriples() const { return ToNTriples(triples_); }

std::string ValueGraph::ToNTriples(const std::vector<Triple>& subset) const {
  std::string out;
  for (const Triple& t : subset) {
    out += terms_[t[0]];
    out += ' ';
    out += terms_[t[1]];
    out += ' ';
    out += terms_[t[2]];
    out += " .\n";
  }
  return out;
}

// --- Scores -----------------------------------------------------------------

OracleScores ScoreValues(const std::vector<double>& values) {
  OracleScores s;
  const size_t n = values.size();
  if (n < 2) return s;
  double sum = 0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(n);
  double m2 = 0, m3 = 0, m4 = 0;
  for (double v : values) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  s.variance = m2 / static_cast<double>(n - 1);
  if (m2 > 0) {
    const double var_biased = m2 / static_cast<double>(n);
    s.skewness = std::fabs((m3 / n) / std::pow(var_biased, 1.5));
    s.kurtosis = std::fabs((m4 / n) / (var_biased * var_biased) - 3.0);
  }
  return s;
}

double PickScore(const OracleScores& s, int kind) {
  return kind == 0 ? s.variance : kind == 1 ? s.skewness : s.kurtosis;
}

// --- Oracle -----------------------------------------------------------------

Oracle::Oracle(const ValueGraph& graph) : graph_(graph) {
  rdf_type_ = graph.Find(kRdfTypeTerm);
  // Triples are sorted (s, p, o); regroup them per property keeping the
  // subject order, which yields each table's CSR directly.
  std::unordered_map<uint32_t, std::vector<const ValueGraph::Triple*>> by_p;
  for (const ValueGraph::Triple& t : graph.triples()) by_p[t[1]].push_back(&t);
  for (auto& [p, rows] : by_p) {
    Table& table = tables_[p];
    for (const ValueGraph::Triple* t : rows) {
      if (table.subjects.empty() || table.subjects.back() != (*t)[0]) {
        table.subjects.push_back((*t)[0]);
        table.offsets.push_back(static_cast<uint32_t>(table.objects.size()));
      }
      table.objects.push_back((*t)[2]);
    }
    table.offsets.push_back(static_cast<uint32_t>(table.objects.size()));
  }
  // Term ids are dense; parse every literal once.
  uint32_t max_id = 0;
  for (const ValueGraph::Triple& t : graph.triples()) {
    max_id = std::max({max_id, t[0], t[1], t[2]});
  }
  numeric_.assign(max_id + 1, 0);
  is_numeric_.assign(max_id + 1, 0);
  for (uint32_t id = 0; id <= max_id && !graph.triples().empty(); ++id) {
    double v = 0;
    if (ParseLiteralNumber(graph.term(id), &v)) {
      numeric_[id] = v;
      is_numeric_[id] = 1;
    }
  }
}

const uint32_t* Oracle::Values(uint32_t property, uint32_t subject,
                               size_t* n) const {
  *n = 0;
  auto it = tables_.find(property);
  if (it == tables_.end()) return nullptr;
  const Table& t = it->second;
  auto pos = std::lower_bound(t.subjects.begin(), t.subjects.end(), subject);
  if (pos == t.subjects.end() || *pos != subject) return nullptr;
  const size_t i = static_cast<size_t>(pos - t.subjects.begin());
  *n = t.offsets[i + 1] - t.offsets[i];
  return t.objects.data() + t.offsets[i];
}

void Oracle::AttrValues(const OracleAttr& attr, uint32_t subject,
                        std::vector<uint32_t>* out) const {
  out->clear();
  size_t n = 0;
  const uint32_t* vals = Values(attr.property, subject, &n);
  if (attr.kind != OracleAttr::Kind::kPath) {
    out->assign(vals, vals + n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    size_t m = 0;
    const uint32_t* next = Values(attr.second, vals[i], &m);
    out->insert(out->end(), next, next + m);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool Oracle::Numeric(uint32_t term, double* out) const {
  if (term >= is_numeric_.size() || !is_numeric_[term]) return false;
  *out = numeric_[term];
  return true;
}

std::vector<uint32_t> Oracle::MembersOfType(const std::string& type_term) const {
  std::vector<uint32_t> out;
  const uint32_t type = graph_.Find(type_term);
  if (type == ValueGraph::kNone || rdf_type_ == ValueGraph::kNone) return out;
  auto it = tables_.find(rdf_type_);
  if (it == tables_.end()) return out;
  const Table& t = it->second;
  for (size_t i = 0; i < t.subjects.size(); ++i) {
    for (uint32_t k = t.offsets[i]; k < t.offsets[i + 1]; ++k) {
      if (t.objects[k] == type) out.push_back(t.subjects[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
struct Acc {
  double facts = 0;  ///< count(*)
  double count = 0;  ///< measure values
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  bool any = false;
};

double Finish(const Acc& a, OracleFunc f) {
  switch (f) {
    case OracleFunc::kCountStar:
      return a.facts;
    case OracleFunc::kCount:
      return a.count;
    case OracleFunc::kSum:
      return a.sum;
    case OracleFunc::kAvg:
      return a.count > 0 ? a.sum / a.count : 0;
    case OracleFunc::kMin:
      return a.min;
    case OracleFunc::kMax:
      return a.max;
  }
  return 0;
}
}  // namespace

std::vector<double> Oracle::NodeResult::Values(size_t m) const {
  std::vector<double> out;
  for (const auto& [key, cell] : groups) {
    if (cell.has[m]) out.push_back(cell.value[m]);
  }
  return out;
}

Oracle::NodeResult Oracle::EvaluateNode(
    const std::vector<uint32_t>& members, const std::vector<OracleAttr>& dims,
    const std::vector<OracleMeasure>& measures) const {
  const size_t nm = measures.size();
  std::map<GroupKey, std::vector<Acc>> accs;
  std::vector<std::vector<uint64_t>> dim_keys(dims.size());
  std::vector<Acc> fact(nm);
  std::vector<uint32_t> vals;
  for (uint32_t x : members) {
    bool complete = true;
    for (size_t d = 0; d < dims.size() && complete; ++d) {
      AttrValues(dims[d], x, &vals);
      dim_keys[d].clear();
      if (vals.empty()) {
        complete = false;
      } else if (dims[d].kind == OracleAttr::Kind::kCount) {
        dim_keys[d].push_back(KeyOfCount(vals.size()));
      } else {
        for (uint32_t v : vals) dim_keys[d].push_back(KeyOfTerm(v));
      }
    }
    if (!complete) continue;
    // This fact's contribution to each measure (once per group). Measures
    // over the same attribute share one lookup of its values.
    const OracleAttr* fetched = nullptr;
    for (size_t m = 0; m < nm; ++m) {
      Acc& a = fact[m];
      a = Acc();
      a.facts = 1;
      a.any = true;
      if (measures[m].func == OracleFunc::kCountStar) continue;
      const OracleAttr& attr = measures[m].attr;
      if (fetched == nullptr || fetched->kind != attr.kind ||
          fetched->property != attr.property || fetched->second != attr.second) {
        AttrValues(attr, x, &vals);
        fetched = &attr;
      }
      const size_t n = vals.size();
      a.any = n > 0;
      if (measures[m].attr.kind == OracleAttr::Kind::kCount) {
        if (n > 0) {
          a.count = 1;
          a.sum = a.min = a.max = static_cast<double>(n);
        }
        continue;
      }
      a.count = static_cast<double>(n);
      for (size_t i = 0; i < n; ++i) {
        double v = 0;
        if (!Numeric(vals[i], &v)) continue;
        a.sum += v;
        a.min = std::min(a.min, v);
        a.max = std::max(a.max, v);
      }
    }
    // Cross product of the dimension values.
    std::vector<size_t> odo(dims.size(), 0);
    GroupKey key(dims.size());
    bool done = false;
    while (!done) {
      for (size_t d = 0; d < dims.size(); ++d) key[d] = dim_keys[d][odo[d]];
      std::vector<Acc>& cell = accs[key];
      if (cell.empty()) cell.resize(nm);
      for (size_t m = 0; m < nm; ++m) {
        if (!fact[m].any) continue;
        Acc& c = cell[m];
        c.any = true;
        c.facts += fact[m].facts;
        c.count += fact[m].count;
        c.sum += fact[m].sum;
        c.min = std::min(c.min, fact[m].min);
        c.max = std::max(c.max, fact[m].max);
      }
      done = true;
      for (size_t d = dims.size(); d-- > 0;) {
        if (++odo[d] < dim_keys[d].size()) {
          done = false;
          break;
        }
        odo[d] = 0;
      }
    }
  }
  NodeResult out;
  for (auto& [key, cell] : accs) {
    NodeResult::Cell c;
    c.value.resize(nm);
    c.has.resize(nm);
    for (size_t m = 0; m < nm; ++m) {
      c.has[m] = cell[m].any;
      if (cell[m].any) c.value[m] = Finish(cell[m], measures[m].func);
    }
    out.groups.emplace(key, std::move(c));
  }
  return out;
}

std::map<GroupKey, double> Oracle::ClassicalRollUp(
    const std::vector<uint32_t>& members, const std::vector<OracleAttr>& dims,
    size_t keep_dim, const OracleMeasure& measure) const {
  // Finest node, then roll up by adding group values: what a relational
  // cube over the fact-dimension join does when a fact is multi-valued.
  NodeResult finest = EvaluateNode(members, dims, {measure});
  std::map<GroupKey, double> out;
  for (const auto& [key, cell] : finest.groups) {
    if (!cell.has[0]) continue;
    out[GroupKey{key[keep_dim]}] += cell.value[0];
  }
  return out;
}

// --- Checking the program's insights ----------------------------------------

void CheckTally::Add(const CheckTally& o) {
  checked += o.checked;
  unchecked += o.unchecked;
  failed += o.failed;
  for (const std::string& e : o.errors) {
    if (errors.size() < 20) errors.push_back(e);
  }
}

namespace {

/// Translate one of the program's attributes; false when the oracle has no
/// definition for it (keyword and language derivations).
bool ToOracleAttr(const Oracle& oracle, const spade::Spade& spade,
                  spade::AttrId id, OracleAttr* out) {
  const spade::AttributeStore& db = spade.store();
  const spade::AttributeTable& t = db.attribute(id);
  const spade::Dictionary& dict = db.graph().dict();
  auto find = [&](spade::TermId property) {
    return oracle.graph().Find(spade::NTriplesWriter::FormatTerm(dict, property));
  };
  if (t.origin == spade::AttrOrigin::kDirect) {
    out->kind = OracleAttr::Kind::kDirect;
    out->property = find(t.property);
    return out->property != ValueGraph::kNone;
  }
  if (t.origin != spade::AttrOrigin::kCount && t.origin != spade::AttrOrigin::kPath) {
    return false;
  }
  const spade::AttributeTable& src = db.attribute(t.derived_from);
  if (src.origin != spade::AttrOrigin::kDirect) return false;
  out->property = find(src.property);
  if (t.origin == spade::AttrOrigin::kCount) {
    out->kind = OracleAttr::Kind::kCount;
    return out->property != ValueGraph::kNone;
  }
  // A path attribute is named "<p>/<q>" after its two direct attributes.
  const std::string prefix = src.name + "/";
  if (t.name.compare(0, prefix.size(), prefix) != 0) return false;
  std::optional<spade::AttrId> q = db.FindAttribute(t.name.substr(prefix.size()));
  if (!q || db.attribute(*q).origin != spade::AttrOrigin::kDirect) return false;
  out->kind = OracleAttr::Kind::kPath;
  out->second = find(db.attribute(*q).property);
  return out->property != ValueGraph::kNone && out->second != ValueGraph::kNone;
}

bool ToOracleMeasure(const Oracle& oracle, const spade::Spade& spade,
                     const spade::MeasureSpec& m, OracleMeasure* out) {
  using spade::sparql::AggFunc;
  if (m.is_count_star()) {
    out->func = OracleFunc::kCountStar;
    return true;
  }
  switch (m.func) {
    case AggFunc::kCount:
      out->func = OracleFunc::kCount;
      break;
    case AggFunc::kSum:
      out->func = OracleFunc::kSum;
      break;
    case AggFunc::kAvg:
      out->func = OracleFunc::kAvg;
      break;
    case AggFunc::kMin:
      out->func = OracleFunc::kMin;
      break;
    case AggFunc::kMax:
      out->func = OracleFunc::kMax;
      break;
  }
  return ToOracleAttr(oracle, spade, m.attr, &out->attr);
}

/// Members of a fact set: type-based sets are recomputed from the triples;
/// other sets (summary classes) take the program's member list, rendered.
bool Members(const Oracle& oracle, const spade::Spade& spade,
             const spade::CandidateFactSet& cfs, std::vector<uint32_t>* out,
             std::string* error) {
  const spade::Dictionary& dict = spade.store().graph().dict();
  std::vector<uint32_t> program;
  for (spade::TermId m : cfs.members) {
    program.push_back(
        oracle.graph().Find(spade::NTriplesWriter::FormatTerm(dict, m)));
  }
  std::sort(program.begin(), program.end());
  if (cfs.origin != spade::CandidateFactSet::Origin::kType) {
    *out = std::move(program);
    return true;
  }
  *out = oracle.MembersOfType(spade::NTriplesWriter::FormatTerm(dict, cfs.type));
  if (*out != program) {
    *error = "fact set " + cfs.name + " has " + std::to_string(program.size()) +
             " members, the triples give " + std::to_string(out->size());
    return false;
  }
  return true;
}

const spade::CandidateFactSet* FindCfs(const spade::Spade& spade,
                                       const std::string& name) {
  for (const auto& cfs : spade.fact_sets()) {
    if (cfs.name == name) return &cfs;
  }
  return nullptr;
}

bool ExactFunc(OracleFunc f) {
  return f == OracleFunc::kCountStar || f == OracleFunc::kCount ||
         f == OracleFunc::kMin || f == OracleFunc::kMax;
}

}  // namespace

CheckTally CheckInsights(const Oracle& oracle, const spade::Spade& spade,
                         const std::vector<spade::Insight>& insights,
                         int kind) {
  CheckTally tally;
  const spade::Dictionary& dict = spade.store().graph().dict();
  std::map<std::string, std::vector<uint32_t>> members_cache;
  for (const spade::Insight& in : insights) {
    const spade::AggregateKey& key = in.ranked.key;
    std::vector<OracleAttr> dims(key.dims.size());
    OracleMeasure measure;
    bool supported = ToOracleMeasure(oracle, spade, key.measure, &measure);
    for (size_t d = 0; d < key.dims.size() && supported; ++d) {
      supported = ToOracleAttr(oracle, spade, key.dims[d], &dims[d]);
    }
    if (!supported) {
      ++tally.unchecked;
      continue;
    }
    auto fail = [&](const std::string& why) {
      ++tally.failed;
      if (tally.errors.size() < 20) {
        tally.errors.push_back(in.cfs_name + " | " + in.description + ": " + why);
      }
    };
    const spade::CandidateFactSet* cfs = FindCfs(spade, in.cfs_name);
    if (cfs == nullptr) {
      fail("unknown fact set");
      continue;
    }
    auto cached = members_cache.find(cfs->name);
    if (cached == members_cache.end()) {
      std::vector<uint32_t> members;
      std::string error;
      if (!Members(oracle, spade, *cfs, &members, &error)) {
        fail(error);
        continue;
      }
      cached = members_cache.emplace(cfs->name, std::move(members)).first;
    }
    Oracle::NodeResult node = oracle.EvaluateNode(cached->second, dims, {measure});
    std::vector<double> values = node.Values(0);
    if (values.size() != in.ranked.num_groups) {
      fail("groups " + std::to_string(in.ranked.num_groups) + " vs oracle " +
           std::to_string(values.size()));
      continue;
    }
    bool ok = true;
    for (const spade::GroupResult& g : in.ranked.groups) {
      GroupKey gk(dims.size());
      for (size_t d = 0; d < dims.size(); ++d) {
        if (dims[d].kind == OracleAttr::Kind::kCount) {
          gk[d] = Oracle::KeyOfCount(static_cast<uint64_t>(
              std::strtoull(std::string(dict.LexicalOf(g.dim_values[d])).c_str(),
                            nullptr, 10)));
        } else {
          gk[d] = Oracle::KeyOfTerm(oracle.graph().Find(
              spade::NTriplesWriter::FormatTerm(dict, g.dim_values[d])));
        }
      }
      auto it = node.groups.find(gk);
      if (it == node.groups.end() || !it->second.has[0]) {
        fail("group missing from the oracle");
        ok = false;
        break;
      }
      const double want = it->second.value[0];
      const bool equal = ExactFunc(measure.func)
                             ? want == g.value
                             : Close(want, g.value, kRelTolerance);
      if (!equal) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "group value %.17g vs oracle %.17g",
                      g.value, want);
        fail(buf);
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    const double score = PickScore(ScoreValues(values), kind);
    if (!Close(score, in.ranked.score, kScoreTolerance) &&
        std::fabs(score - in.ranked.score) > 1e-9) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "score %.17g vs oracle %.17g",
                    in.ranked.score, score);
      fail(buf);
      continue;
    }
    ++tally.checked;
  }
  return tally;
}

CheckTally CheckTopKComplete(const Oracle& oracle, const spade::Spade& spade,
                             const std::string& cfs_name,
                             const std::vector<spade::LatticeSpec>& lattices,
                             const std::vector<spade::Insight>& insights,
                             int kind) {
  CheckTally tally;
  const spade::CandidateFactSet* cfs = FindCfs(spade, cfs_name);
  std::vector<uint32_t> members;
  std::string error;
  if (cfs == nullptr || !Members(oracle, spade, *cfs, &members, &error)) {
    tally.failed = 1;
    tally.errors.push_back(cfs == nullptr ? "unknown fact set " + cfs_name
                                          : error);
    return tally;
  }
  double kth = std::numeric_limits<double>::infinity();
  std::set<std::pair<std::vector<spade::AttrId>, spade::MeasureSpec>> returned;
  for (const spade::Insight& in : insights) {
    kth = std::min(kth, in.ranked.score);
    returned.insert({in.ranked.key.dims, in.ranked.key.measure});
  }
  // Every node of every lattice, each evaluated once for all its measures.
  std::map<std::vector<spade::AttrId>, std::set<spade::MeasureSpec>> nodes;
  for (const spade::LatticeSpec& l : lattices) {
    const size_t n = l.dims.size();
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      std::vector<spade::AttrId> dims;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) dims.push_back(l.dims[i]);
      }
      nodes[dims].insert(l.measures.begin(), l.measures.end());
    }
  }
  for (const auto& [dim_ids, specs] : nodes) {
    std::vector<OracleAttr> dims(dim_ids.size());
    bool supported = true;
    for (size_t d = 0; d < dims.size() && supported; ++d) {
      supported = ToOracleAttr(oracle, spade, dim_ids[d], &dims[d]);
    }
    std::vector<OracleMeasure> measures;
    std::vector<spade::MeasureSpec> kept;
    for (const spade::MeasureSpec& m : specs) {
      OracleMeasure om;
      if (supported && ToOracleMeasure(oracle, spade, m, &om)) {
        measures.push_back(om);
        kept.push_back(m);
      } else {
        ++tally.unchecked;
      }
    }
    if (!supported || measures.empty()) continue;
    Oracle::NodeResult node = oracle.EvaluateNode(members, dims, measures);
    for (size_t m = 0; m < measures.size(); ++m) {
      std::vector<double> values = node.Values(m);
      ++tally.checked;
      if (values.size() < 2 || returned.count({dim_ids, kept[m]})) continue;
      const double score = PickScore(ScoreValues(values), kind);
      if (score > kth && !Close(score, kth, kScoreTolerance)) {
        ++tally.failed;
        if (tally.errors.size() < 20) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "aggregate outside the top-k scores %.17g above the "
                        "k-th %.17g",
                        score, kth);
          tally.errors.push_back(buf);
        }
      }
    }
  }
  return tally;
}

// --- Self-check ---------------------------------------------------------------

std::vector<std::string> SelfCheck() {
  // Five facts of type T. Dimension a is multi-valued on n1 and missing on
  // n4; dimension b is missing on n3; measure m is missing on n5.
  //   n1: a={x,y} b=u m=10      n2: a=x b=u m=20     n3: a=y m=5
  //   n4: b=v m=7               n5: a=x b=v
  const std::string T = "<http://t/T>", type = kRdfTypeTerm;
  const std::string a = "<http://t/a>", b = "<http://t/b>", m = "<http://t/m>";
  const std::string x = "\"x\"", y = "\"y\"", u = "\"u\"", v = "\"v\"";
  auto num = [](int n) {
    return "\"" + std::to_string(n) +
           "\"^^<http://www.w3.org/2001/XMLSchema#integer>";
  };
  ValueGraph g;
  for (int i = 1; i <= 5; ++i) g.Add("<http://t/n" + std::to_string(i) + ">", type, T);
  g.Add("<http://t/n1>", a, x);
  g.Add("<http://t/n1>", a, y);
  g.Add("<http://t/n1>", b, u);
  g.Add("<http://t/n1>", m, num(10));
  g.Add("<http://t/n2>", a, x);
  g.Add("<http://t/n2>", b, u);
  g.Add("<http://t/n2>", m, num(20));
  g.Add("<http://t/n3>", a, y);
  g.Add("<http://t/n3>", m, num(5));
  g.Add("<http://t/n4>", b, v);
  g.Add("<http://t/n4>", m, num(7));
  g.Add("<http://t/n5>", a, x);
  g.Add("<http://t/n5>", b, v);
  // A path l/r: n1 -> {c1, c2}, n2 -> c1, n3 -> {c1, c3}; c1 and c3 both
  // carry r = 100, so n3 reaches the single value 100.
  const std::string l = "<http://t/l>", r = "<http://t/r>";
  g.Add("<http://t/n1>", l, "<http://t/c1>");
  g.Add("<http://t/n1>", l, "<http://t/c2>");
  g.Add("<http://t/n2>", l, "<http://t/c1>");
  g.Add("<http://t/n3>", l, "<http://t/c1>");
  g.Add("<http://t/n3>", l, "<http://t/c3>");
  g.Add("<http://t/c1>", r, num(100));
  g.Add("<http://t/c2>", r, num(50));
  g.Add("<http://t/c3>", r, num(100));
  g.Seal();
  Oracle oracle(g);
  std::vector<std::string> errors;
  auto expect = [&](const std::string& what, double got, double want) {
    if (got != want) {
      errors.push_back(what + ": got " + std::to_string(got) + ", want " +
                       std::to_string(want));
    }
  };
  const std::vector<uint32_t> members = oracle.MembersOfType(T);
  expect("members", static_cast<double>(members.size()), 5);
  const OracleAttr A{OracleAttr::Kind::kDirect, g.Find(a)};
  const OracleAttr B{OracleAttr::Kind::kDirect, g.Find(b)};
  const OracleAttr M{OracleAttr::Kind::kDirect, g.Find(m)};
  const OracleAttr countA{OracleAttr::Kind::kCount, g.Find(a)};
  const std::vector<OracleMeasure> ms = {
      {OracleFunc::kCountStar, {}}, {OracleFunc::kSum, M},
      {OracleFunc::kAvg, M},        {OracleFunc::kMin, M},
      {OracleFunc::kMax, M},        {OracleFunc::kCount, M}};
  auto cell = [&](const Oracle::NodeResult& r, std::vector<std::string> key,
                  size_t measure) -> double {
    GroupKey k;
    for (const std::string& t : key) k.push_back(Oracle::KeyOfTerm(g.Find(t)));
    auto it = r.groups.find(k);
    if (it == r.groups.end() || !it->second.has[measure]) return -1;
    return it->second.value[measure];
  };
  // Node (a): x <- n1 n2 n5, y <- n1 n3. n5 has no m.
  Oracle::NodeResult by_a = oracle.EvaluateNode(members, {A}, ms);
  expect("count(*) by a=x", cell(by_a, {x}, 0), 3);
  expect("count(*) by a=y", cell(by_a, {y}, 0), 2);
  expect("sum(m) by a=x", cell(by_a, {x}, 1), 30);
  expect("sum(m) by a=y", cell(by_a, {y}, 1), 15);
  expect("avg(m) by a=y", cell(by_a, {y}, 2), 7.5);
  expect("min(m) by a=x", cell(by_a, {x}, 3), 10);
  expect("max(m) by a=y", cell(by_a, {y}, 4), 10);
  expect("count(m) by a=x", cell(by_a, {x}, 5), 2);
  expect("groups by a", static_cast<double>(by_a.groups.size()), 2);
  // Variance of sum(m) by a over {30, 15}: 112.5 (unbiased).
  expect("variance sum(m) by a", ScoreValues(by_a.Values(1)).variance, 112.5);
  // Node (b): u <- n1 n2, v <- n4 n5 (n3 lacks b).
  Oracle::NodeResult by_b = oracle.EvaluateNode(members, {B}, ms);
  expect("count(*) by b=u", cell(by_b, {u}, 0), 2);
  expect("sum(m) by b=u", cell(by_b, {u}, 1), 30);
  expect("sum(m) by b=v", cell(by_b, {v}, 1), 7);
  expect("count(*) by b=v", cell(by_b, {v}, 0), 2);
  // Node (a, b): (x,u) <- n1 n2, (y,u) <- n1, (x,v) <- n5 only, no m.
  Oracle::NodeResult by_ab = oracle.EvaluateNode(members, {A, B}, ms);
  expect("groups by a,b", static_cast<double>(by_ab.groups.size()), 3);
  expect("sum(m) by a=x,b=u", cell(by_ab, {x, u}, 1), 30);
  expect("sum(m) by a=y,b=u", cell(by_ab, {y, u}, 1), 10);
  expect("count(*) by a=x,b=v", cell(by_ab, {x, v}, 0), 1);
  expect("sum(m) by a=x,b=v present", cell(by_ab, {x, v}, 1), -1);
  // Derived count(a) as a dimension: n1 has 2 values, n2 n3 n5 have 1.
  Oracle::NodeResult by_count = oracle.EvaluateNode(members, {countA}, ms);
  auto count_cell = [&](uint64_t n, size_t measure) -> double {
    auto it = by_count.groups.find(GroupKey{Oracle::KeyOfCount(n)});
    return it == by_count.groups.end() ? -1 : it->second.value[measure];
  };
  expect("count(*) by count(a)=1", count_cell(1, 0), 3);
  expect("sum(m) by count(a)=2", count_cell(2, 1), 10);
  // Path l/r as a measure: by a, x <- n1 {100, 50} and n2 {100} gives 250;
  // y <- n1 {100, 50} and n3 {100} gives 250 (n3's two links reach one
  // value, which counts once).
  const OracleAttr LR{OracleAttr::Kind::kPath, g.Find(l), g.Find(r)};
  Oracle::NodeResult path_by_a = oracle.EvaluateNode(
      members, {A}, {{OracleFunc::kSum, LR}, {OracleFunc::kCount, LR}});
  expect("sum(l/r) by a=x", cell(path_by_a, {x}, 0), 250);
  expect("sum(l/r) by a=y", cell(path_by_a, {y}, 0), 250);
  expect("count(l/r) by a=y", cell(path_by_a, {y}, 1), 3);
  // Lemma 1: rolling (a, b) up to (b) counts n1 once per a value, so the
  // classical cube gives sum(m) for b=u as 30 + 10 = 40; the right answer
  // is 30, and count(*) for b=u is 3 instead of 2.
  std::map<GroupKey, double> classical_sum =
      oracle.ClassicalRollUp(members, {A, B}, 1, ms[1]);
  std::map<GroupKey, double> classical_count =
      oracle.ClassicalRollUp(members, {A, B}, 1, ms[0]);
  const GroupKey ku{Oracle::KeyOfTerm(g.Find(u))};
  expect("classical sum(m) by b=u", classical_sum[ku], 40);
  expect("classical count(*) by b=u", classical_count[ku], 3);
  if (classical_sum[ku] == cell(by_b, {u}, 1)) {
    errors.push_back("oracle does not tell the classical cube apart");
  }
  return errors;
}

}  // namespace perfbench
