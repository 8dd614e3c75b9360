// Independent aggregate oracle.
//
// Works on a value-level triple list (every term in its N-Triples form),
// never on the program's store, and applies the paper's Section 2 semantics
// directly: a fact contributes once to every group in the cross product of
// its dimension values, facts missing a node dimension are left out, and
// for a measure aggregate facts without a value of the measure are left out
// too. count, min and max must match exactly; sum and avg within
// kRelTolerance; the interestingness score within kScoreTolerance.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace spade {
class Spade;
struct Insight;
struct LatticeSpec;
class Graph;
}  // namespace spade

namespace perfbench {

inline constexpr double kRelTolerance = 1e-9;
inline constexpr double kScoreTolerance = 1e-6;

/// Numeric value of a literal in N-Triples form: the lexical form between
/// the quotes, parsed whole (surrounding blanks allowed). False for IRIs,
/// blank nodes and non-numeric literals.
bool ParseLiteralNumber(const std::string& term, double* out);

/// A set of triples over interned N-Triples term strings.
class ValueGraph {
 public:
  using Triple = std::array<uint32_t, 3>;

  uint32_t Intern(const std::string& term);
  /// Id of `term`, or kNone when it never occurred.
  uint32_t Find(const std::string& term) const;
  const std::string& term(uint32_t id) const { return terms_[id]; }
  static constexpr uint32_t kNone = 0xffffffffu;

  /// The triples of `graph`, rendered value-level: all of them, or whole
  /// subjects in the graph's order until `max_triples` are taken.
  static ValueGraph FromGraph(const spade::Graph& graph,
                              size_t max_triples = SIZE_MAX);

  void Add(const std::string& s, const std::string& p, const std::string& o);
  /// Sort and deduplicate after Add() calls; required before reading.
  void Seal();
  /// Batch semantics of the program's delta path:
  /// final = (current \ retracts) ∪ adds.
  void ApplyBatch(const std::vector<Triple>& adds,
                  const std::vector<Triple>& retracts);

  const std::vector<Triple>& triples() const { return triples_; }
  /// The triples as an N-Triples document.
  std::string ToNTriples() const;
  std::string ToNTriples(const std::vector<Triple>& subset) const;

 private:
  std::vector<std::string> terms_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<Triple> triples_;
};

/// An attribute as the oracle understands it: a property's values, the
/// number of distinct values of a property (the count derivation), or the
/// values reached over two properties (the path derivation p/q).
struct OracleAttr {
  enum class Kind { kDirect, kCount, kPath };
  Kind kind = Kind::kDirect;
  uint32_t property = ValueGraph::kNone;
  uint32_t second = ValueGraph::kNone;  ///< q of a path p/q
};

enum class OracleFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct OracleMeasure {
  OracleFunc func = OracleFunc::kCountStar;
  OracleAttr attr;  ///< ignored for kCountStar
};

/// One group key: per dimension a term id (direct) or a count (kCount).
using GroupKey = std::vector<uint64_t>;

/// Scores of one aggregate's group values.
struct OracleScores {
  double variance = 0;
  double skewness = 0;  ///< |skewness|
  double kurtosis = 0;  ///< |excess kurtosis|
};
OracleScores ScoreValues(const std::vector<double>& values);

class Oracle {
 public:
  explicit Oracle(const ValueGraph& graph);

  /// Subjects having rdf:type `type_term` (sorted term ids).
  std::vector<uint32_t> MembersOfType(const std::string& type_term) const;

  /// Evaluate one lattice node for several measures in one pass. The result
  /// maps each group to its value per measure; a group absent for a measure
  /// has no contributing fact, flagged by has[m] == false.
  struct NodeResult {
    struct Cell {
      std::vector<double> value;
      std::vector<bool> has;
    };
    std::map<GroupKey, Cell> groups;
    /// Values of measure m over the groups that have it, in key order.
    std::vector<double> Values(size_t m) const;
  };
  NodeResult EvaluateNode(const std::vector<uint32_t>& members,
                          const std::vector<OracleAttr>& dims,
                          const std::vector<OracleMeasure>& measures) const;

  /// The "classical" relational cube of Lemma 1: the finest node is
  /// computed, then coarser nodes roll up from it by summing/counting
  /// groups. Only the self-check uses it, to show the oracle differs.
  std::map<GroupKey, double> ClassicalRollUp(
      const std::vector<uint32_t>& members, const std::vector<OracleAttr>& dims,
      size_t keep_dim, const OracleMeasure& measure) const;

  /// Group-key encoding of one term / count value.
  static uint64_t KeyOfTerm(uint32_t id) { return id; }
  static uint64_t KeyOfCount(uint64_t n) { return (1ull << 40) | n; }

  const ValueGraph& graph() const { return graph_; }

 private:
  /// Distinct values of `property` on `subject` (sorted term ids).
  const uint32_t* Values(uint32_t property, uint32_t subject,
                         size_t* n) const;
  /// Distinct values of a direct or path attribute on `subject`.
  void AttrValues(const OracleAttr& attr, uint32_t subject,
                  std::vector<uint32_t>* out) const;
  bool Numeric(uint32_t term, double* out) const;

  const ValueGraph& graph_;
  uint32_t rdf_type_ = ValueGraph::kNone;
  // Per property: subjects ascending, offsets, objects (a CSR of the
  // triples, built from the value list).
  struct Table {
    std::vector<uint32_t> subjects;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> objects;
  };
  std::unordered_map<uint32_t, Table> tables_;
  std::vector<double> numeric_;
  std::vector<char> is_numeric_;
};

/// Result of checking returned insights against the oracle.
struct CheckTally {
  uint64_t checked = 0;    ///< insights fully recomputed and equal
  uint64_t unchecked = 0;  ///< insights the oracle cannot recompute
  uint64_t failed = 0;     ///< insights that disagree
  std::vector<std::string> errors;
  void Add(const CheckTally& o);
};

/// Recompute every insight's stored groups, group count and score under
/// `kind` (0 variance, 1 skewness, 2 kurtosis).
CheckTally CheckInsights(const Oracle& oracle, const spade::Spade& spade,
                         const std::vector<spade::Insight>& insights,
                         int kind);

/// On the CFS named `cfs_name`, evaluate every aggregate of `lattices`
/// (the enumerated candidate space) and confirm that none outside
/// `insights` scores above the lowest returned score.
CheckTally CheckTopKComplete(const Oracle& oracle, const spade::Spade& spade,
                             const std::string& cfs_name,
                             const std::vector<spade::LatticeSpec>& lattices,
                             const std::vector<spade::Insight>& insights,
                             int kind);

/// Self-check on a small hand-built graph (multi-valued dimension, missing
/// values) against hand-computed answers, including a case where the
/// classical relational cube differs (Lemma 1). Returns the failures.
std::vector<std::string> SelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
