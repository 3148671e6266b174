#ifndef MIDAS_INDEX_PF_MATRIX_H_
#define MIDAS_INDEX_PF_MATRIX_H_

#include <vector>

#include "midas/common/budget.h"
#include "midas/graph/graph.h"

namespace midas {

/// Pattern-feature (PF) matrix machinery for the tightened GED lower bound
/// (Section 6.1, Lemma 6.1).
///
/// Rows are the edges of a graph; columns are individual embeddings of
/// subtree features (FCTs, frequent and infrequent edges). An entry is 1
/// when the edge participates in the embedding. If graph A's embedding
/// multiset does not fit inside graph B's, edges of A must be "relaxed"
/// (excluded from matching) until it does; the number of such relaxations n
/// tightens GED_l to GED'_l = GED_l + n.

/// PF-matrix of one graph against a feature list.
struct PfMatrix {
  /// rows[e][c] = 1 iff edge e of the graph participates in embedding c.
  std::vector<std::vector<uint8_t>> rows;
  /// feature_of_column[c] = index into the feature list.
  std::vector<size_t> feature_of_column;
};

/// Builds the PF-matrix of g. At most `max_embeddings` embeddings are
/// materialized per feature.
PfMatrix BuildPfMatrix(const Graph& g, const std::vector<Graph>& features,
                       size_t max_embeddings = 32);

/// Number of edges of the smaller graph (fewer edges; ties pick a) that must
/// be relaxed before its per-feature embedding counts fit within the other
/// graph's. Greedy maximal-coverage deletion over the PF-matrix.
int ComputeRelaxedEdges(const Graph& a, const Graph& b,
                        const std::vector<Graph>& features,
                        size_t max_embeddings = 32);

/// GED'_l with relabel correction: relaxations explainable by vertex-label
/// mismatches (already charged in GED_l's vertex part) are not double
/// counted. Used to rank pattern diversity (Section 6.1).
///
/// NOTE: like the paper's Lemma 6.1, this is a *ranking heuristic*. Vertex
/// relabels can invalidate feature embeddings without any edge edit, so the
/// tightened value can overshoot the true GED by a small amount in
/// relabel-heavy corner cases. It always dominates GedLowerBound and is 0
/// for isomorphic graphs; anywhere a sound bound is required (the swap
/// criteria sw3), the plain GedLowerBound is used instead.
int GedTightLowerBoundWithFeatures(const Graph& a, const Graph& b,
                                   const std::vector<Graph>& features);

/// Largest vertex count at which the diversity estimate is exact GED: pairs
/// with both graphs at or below it take the branch & bound, larger pairs
/// the tightened lower bound (EstimateGed's default, and the path HybridGed
/// keys its memo by).
inline constexpr size_t kGedExactMaxVertices = 8;

/// Diversity-oriented GED estimate: exact branch & bound when both graphs
/// have at most `exact_max_vertices` vertices, otherwise the tightened
/// lower bound. When `budget` is non-null the exact branch is budgeted
/// (see GedExactBudgeted): on exhaustion it degrades to the anytime upper
/// bound, which preserves the estimator's ranking use — patterns merely
/// look at most as diverse as they are.
int EstimateGed(const Graph& a, const Graph& b,
                const std::vector<Graph>& features,
                size_t exact_max_vertices = kGedExactMaxVertices,
                ExecBudget* budget = nullptr);

}  // namespace midas

#endif  // MIDAS_INDEX_PF_MATRIX_H_
