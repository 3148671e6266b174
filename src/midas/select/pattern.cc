#include "midas/select/pattern.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "midas/graph/compute_cache.h"
#include "midas/graph/ged.h"
#include "midas/graph/subgraph_iso.h"
#include "midas/index/pf_matrix.h"

namespace midas {

PatternId PatternSet::Add(CannedPattern p) {
  p.id = next_id_++;
  PatternId id = p.id;
  patterns_.emplace(id, std::move(p));
  return id;
}

PatternId PatternSet::AddWithId(PatternId id, CannedPattern p) {
  p.id = id;
  patterns_[id] = std::move(p);
  if (id >= next_id_) next_id_ = id + 1;
  return id;
}

bool PatternSet::Remove(PatternId id) { return patterns_.erase(id) > 0; }

const CannedPattern* PatternSet::Find(PatternId id) const {
  auto it = patterns_.find(id);
  return it == patterns_.end() ? nullptr : &it->second;
}

CannedPattern* PatternSet::FindMutable(PatternId id) {
  auto it = patterns_.find(id);
  return it == patterns_.end() ? nullptr : &it->second;
}

std::vector<double> PatternSet::SizeDistribution() const {
  std::vector<double> sizes;
  sizes.reserve(patterns_.size());
  for (const auto& [id, p] : patterns_) {
    sizes.push_back(static_cast<double>(p.graph.NumEdges()));
  }
  return sizes;
}

IdSet PatternSet::CoverageUnion() const {
  IdSet all;
  for (const auto& [id, p] : patterns_) all.UnionWith(p.coverage);
  return all;
}

size_t PatternSet::UniqueCoverage(PatternId id) const {
  const CannedPattern* p = Find(id);
  if (p == nullptr) return 0;
  IdSet others;
  for (const auto& [oid, op] : patterns_) {
    if (oid != id) others.UnionWith(op.coverage);
  }
  return p->coverage.DifferenceSize(others);
}

size_t PatternSet::MinUniqueCoverage() const {
  size_t best = std::numeric_limits<size_t>::max();
  for (const auto& [id, p] : patterns_) {
    best = std::min(best, UniqueCoverage(id));
  }
  return patterns_.empty() ? 0 : best;
}

double PatternSet::FScov(size_t universe_size) const {
  if (universe_size == 0) return 0.0;
  return static_cast<double>(CoverageUnion().size()) /
         static_cast<double>(universe_size);
}

double PatternSet::FLcov() const {
  // f_lcov is the union label coverage; each pattern caches its own lcov
  // against the full database, and the set-level value is the max (the union
  // is at least the best single pattern; exact unions are recomputed by the
  // maintenance engine which owns the edge-occurrence lists).
  double best = 0.0;
  for (const auto& [id, p] : patterns_) best = std::max(best, p.lcov);
  return best;
}

double PatternSet::FDiv() const {
  double best = std::numeric_limits<double>::max();
  for (const auto& [id, p] : patterns_) best = std::min(best, p.div);
  return patterns_.empty() ? 0.0 : best;
}

double PatternSet::FCog() const {
  double worst = 0.0;
  for (const auto& [id, p] : patterns_) worst = std::max(worst, p.cog);
  return worst;
}

double PatternSet::SetScore(size_t universe_size) const {
  double cog = FCog();
  if (cog <= 0.0) return 0.0;
  return FScov(universe_size) * FLcov() * FDiv() / cog;
}

CoverageEvaluator::CoverageEvaluator(const GraphDatabase& db,
                                     size_t sample_cap, Rng& rng,
                                     const FctIndex* fct_index,
                                     const IfeIndex* ife_index)
    : db_(&db),
      sample_cap_(sample_cap),
      fct_index_(fct_index),
      ife_index_(ife_index) {
  Resample(rng);
}

void CoverageEvaluator::InvalidateFeatureCounts() {
  std::lock_guard<std::mutex> lock(feature_memo_mu_);
  feature_counts_memo_.clear();
}

std::vector<std::pair<uint32_t, int32_t>> CoverageEvaluator::FctCountsFor(
    const Graph& pattern, const std::string& content_code) const {
  {
    std::lock_guard<std::mutex> lock(feature_memo_mu_);
    auto it = feature_counts_memo_.find(content_code);
    if (it != feature_counts_memo_.end()) return it->second;
  }
  // Computed outside the lock: counts are a pure function of the pattern
  // graph and the live feature rows, so concurrent writers agree.
  std::vector<std::pair<uint32_t, int32_t>> counts =
      fct_index_->FeatureCounts(pattern);
  std::lock_guard<std::mutex> lock(feature_memo_mu_);
  feature_counts_memo_.emplace(content_code, counts);
  return counts;
}

void CoverageEvaluator::Resample(Rng& rng) {
  std::vector<GraphId> ids = db_->Ids();
  if (sample_cap_ == 0 || ids.size() <= sample_cap_) {
    universe_ = IdSet(ids);
    return;
  }
  rng.Shuffle(ids);
  ids.resize(sample_cap_);
  universe_ = IdSet(ids);
}

IdSet CoverageEvaluator::CoverageOf(const Graph& pattern) const {
  return CoverageOver(pattern, universe_);
}

IdSet CoverageEvaluator::CoverageOver(const Graph& pattern,
                                      const IdSet& subset) const {
  const std::string pattern_code = GraphContentCode(pattern);
  IdSet candidates = subset;
  if (fct_index_ != nullptr) {
    candidates = fct_index_->CandidateGraphs(
        FctCountsFor(pattern, pattern_code), candidates);
  }
  if (ife_index_ != nullptr) {
    candidates = ife_index_->CandidateGraphs(ife_index_->EdgeCounts(pattern),
                                             candidates);
  }
  std::vector<GraphId> ids;
  ids.reserve(candidates.size());
  for (GraphId id : candidates) ids.push_back(id);

  // Containment memo: data graphs are immutable and ids are never reused
  // within a database instance, so exact verdicts keyed by the database
  // epoch survive across maintenance rounds (graph/compute_cache.h).
  ComputeCache& cache = ComputeCache::Global();
  const uint64_t epoch = db_->epoch();

  std::vector<uint8_t> verdict(ids.size(), 0);
  ParallelFor(pool_, ids.size(), [&](size_t i) {
    const Graph* g = db_->Find(ids[i]);
    if (g == nullptr) return;
    bool contains = false;
    if (!cache.LookupContainment(pattern_code, epoch, ids[i], &contains)) {
      contains = ContainsSubgraph(pattern, *g);  // exact — always cacheable
      cache.StoreContainment(pattern_code, epoch, ids[i], contains);
    }
    verdict[i] = contains ? 1 : 0;
  });

  IdSet covered;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (verdict[i] != 0) covered.Insert(ids[i]);
  }
  return covered;
}

size_t CoverageEvaluator::LabelCoverageCount(const Graph& pattern,
                                             const FctSet& fcts) const {
  IdSet covered;
  const auto& edge_occ = fcts.edge_occurrences();
  for (const EdgeLabelPair& lp : pattern.DistinctEdgeLabels()) {
    auto it = edge_occ.find(lp);
    if (it != edge_occ.end()) covered.UnionWith(it->second);
  }
  return covered.size();
}

double CoverageEvaluator::LabelCoverageOf(const Graph& pattern,
                                          const FctSet& fcts) const {
  if (db_->empty()) return 0.0;
  return static_cast<double>(LabelCoverageCount(pattern, fcts)) /
         static_cast<double>(db_->size());
}

void RefreshPatternMetrics(CannedPattern& p, const CoverageEvaluator& eval,
                           const FctSet& fcts) {
  p.coverage = eval.CoverageOf(p.graph);
  size_t universe = eval.universe().size();
  p.scov = universe == 0 ? 0.0
                         : static_cast<double>(p.coverage.size()) /
                               static_cast<double>(universe);
  p.lcov_count = eval.LabelCoverageCount(p.graph, fcts);
  p.lcov = eval.db().empty() ? 0.0
                             : static_cast<double>(p.lcov_count) /
                                   static_cast<double>(eval.db().size());
  p.cog = p.graph.CognitiveLoad();
}

std::vector<Graph> GedFeatureTrees(const FctSet& fcts) {
  std::vector<Graph> trees;
  for (const FctEntry* entry : fcts.FrequentClosedTrees()) {
    trees.push_back(entry->tree);
  }
  auto add_edge_tree = [&trees](const EdgeLabelPair& lp) {
    Graph t;
    VertexId a = t.AddVertex(lp.first);
    VertexId b = t.AddVertex(lp.second);
    t.AddEdge(a, b);
    trees.push_back(std::move(t));
  };
  for (const auto& [lp, occ] : fcts.FrequentEdges()) add_edge_tree(lp);
  for (const auto& [lp, occ] : fcts.InfrequentEdges()) add_edge_tree(lp);
  return trees;
}

GedEstimator LabelBoundGed() {
  return [](const Graph& a, const Graph& b) {
    return static_cast<double>(GedLowerBound(a, b));
  };
}

uint64_t GedFeatureDigest(const std::vector<Graph>& feature_trees) {
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const Graph& t : feature_trees) {
    for (unsigned char c : GraphContentCode(t)) {
      digest = (digest ^ c) * 0x100000001B3ULL;
    }
  }
  return digest;
}

namespace {

// Memo salt of HybridGed's exact values. A pair's two vertex counts decide
// whether it takes the exact path, so exact and tightened-bound entries
// never share a key, even should a feature digest equal this value.
constexpr uint64_t kExactGedSalt = 0;

}  // namespace

GedEstimator HybridGed(std::vector<Graph> feature_trees, ExecBudget* budget) {
  auto features = std::make_shared<std::vector<Graph>>(
      std::move(feature_trees));
  // Only the tightened-bound refinement reads the feature trees, so only its
  // memo entries carry their digest: entries from a different FCT
  // generation can never alias. Exact GED depends on the two graphs alone
  // and is keyed under kExactGedSalt, so it survives FCT changes.
  const uint64_t feature_digest = GedFeatureDigest(*features);
  return [features, budget, feature_digest](const Graph& a, const Graph& b) {
    int cheap = GedLowerBound(a, b);
    if (cheap > 1) return static_cast<double>(cheap);
    if (BudgetExhausted(budget)) {
      // Budget already spent: stay with the cheap bound rather than start
      // a refinement that would be cut off immediately.
      return static_cast<double>(cheap);
    }
    // Near-tie: refine with the tightened bound / exact GED (Section 6.1).
    // The refinement dominates diversity maintenance cost and pattern pairs
    // repeat verbatim across rounds, so memoize it by content-code pair.
    ComputeCache& cache = ComputeCache::Global();
    std::string code_a = GraphContentCode(a);
    std::string code_b = GraphContentCode(b);
    const bool exact = a.NumVertices() <= kGedExactMaxVertices &&
                       b.NumVertices() <= kGedExactMaxVertices;
    const uint64_t salt = exact ? kExactGedSalt : feature_digest;
    int refined = 0;
    if (!cache.LookupGed(salt, code_a, code_b, &refined)) {
      refined = EstimateGed(a, b, *features, kGedExactMaxVertices, budget);
      // A budget that tripped mid-search leaves `refined` truncated — only
      // exact outcomes may enter the cache.
      if (!BudgetExhausted(budget)) {
        cache.StoreGed(salt, code_a, code_b, refined);
      }
    }
    return static_cast<double>(std::max(cheap, refined));
  };
}

void RefreshDiversityAndScores(PatternSet& set, const GedEstimator& ged,
                               TaskPool* pool) {
  auto& patterns = set.patterns();
  std::vector<CannedPattern*> rows;
  rows.reserve(patterns.size());
  for (auto& [id, p] : patterns) rows.push_back(&p);
  // One O(n) min-GED row per pattern; rows are independent and each writes
  // only its own pattern, so the parallel schedule cannot change results.
  ParallelFor(pool, rows.size(), [&](size_t i) {
    CannedPattern& p = *rows[i];
    double min_ged = std::numeric_limits<double>::max();
    for (const auto& [oid, other] : patterns) {
      if (oid == p.id) continue;
      min_ged = std::min(min_ged, ged(p.graph, other.graph));
    }
    p.div = patterns.size() <= 1
                ? static_cast<double>(p.graph.NumEdges())  // lone pattern
                : min_ged;
    p.score = p.cog > 0.0 ? p.scov * p.lcov * p.div / p.cog : 0.0;
  });
}

void RefreshDiversityAndScores(PatternSet& set,
                               const std::vector<Graph>& feature_trees,
                               TaskPool* pool) {
  RefreshDiversityAndScores(set, HybridGed(feature_trees), pool);
}

}  // namespace midas
