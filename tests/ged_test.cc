#include "midas/graph/ged.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "midas/common/budget.h"
#include "midas/graph/subgraph_iso.h"
#include "midas/obs/metrics.h"
#include "test_util.h"

namespace midas {
namespace {

using testing_util::Cycle;
using testing_util::MakeGraph;
using testing_util::Path;
using testing_util::RandomGraph;
using testing_util::RandomPermutation;

TEST(GedExactTest, ZeroForIdenticalGraphs) {
  LabelDictionary d;
  Graph g = Path(d, {"C", "O", "C"});
  EXPECT_EQ(GedExact(g, g), 0);
}

TEST(GedExactTest, ZeroForIsomorphicCopies) {
  LabelDictionary d;
  Rng rng(3);
  Graph g = RandomGraph(d, rng, 6, 2);
  Graph p = g.Permuted(RandomPermutation(6, rng));
  EXPECT_EQ(GedExact(g, p), 0);
}

TEST(GedExactTest, SingleRelabel) {
  LabelDictionary d;
  Graph a = Path(d, {"C", "O"});
  Graph b = Path(d, {"C", "N"});
  EXPECT_EQ(GedExact(a, b), 1);
}

TEST(GedExactTest, SingleEdgeDeletion) {
  LabelDictionary d;
  Graph triangle = MakeGraph(d, {"C", "C", "C"}, {{0, 1}, {1, 2}, {0, 2}});
  Graph path = Path(d, {"C", "C", "C"});
  EXPECT_EQ(GedExact(triangle, path), 1);
  EXPECT_EQ(GedExact(path, triangle), 1);  // symmetric
}

TEST(GedExactTest, VertexInsertion) {
  LabelDictionary d;
  Graph p2 = Path(d, {"C", "C"});
  Graph p3 = Path(d, {"C", "C", "C"});
  // One vertex + one edge.
  EXPECT_EQ(GedExact(p2, p3), 2);
}

TEST(GedExactTest, PathVsStar) {
  LabelDictionary d;
  Graph path = Path(d, {"C", "C", "C", "C"});
  Graph star = testing_util::Star(d, "C", {"C", "C", "C"});
  // Delete one edge, insert one edge.
  EXPECT_EQ(GedExact(path, star), 2);
}

TEST(GedExactTest, EmptyGraphs) {
  LabelDictionary d;
  Graph g = Path(d, {"C", "O", "C"});
  EXPECT_EQ(GedExact(g, Graph()), 5);  // delete 3 vertices + 2 edges
  EXPECT_EQ(GedExact(Graph(), g), 5);  // insert them
  EXPECT_EQ(GedExact(Graph(), Graph()), 0);
}

TEST(GedExactTest, RespectsCostLimit) {
  LabelDictionary d;
  Graph a = Path(d, {"C", "C"});
  Graph b = Cycle(d, 6, "O");
  EXPECT_EQ(GedExact(a, b, 3), 3);  // true distance is much larger
}

TEST(GedLowerBoundTest, KnownCases) {
  LabelDictionary d;
  Graph a = Path(d, {"C", "O"});
  Graph b = Path(d, {"C", "N"});
  EXPECT_EQ(GedLowerBound(a, b), 1);  // one relabel

  Graph triangle = MakeGraph(d, {"C", "C", "C"}, {{0, 1}, {1, 2}, {0, 2}});
  Graph path = Path(d, {"C", "C", "C"});
  EXPECT_EQ(GedLowerBound(triangle, path), 1);  // edge count difference
}

TEST(GedTightLowerBoundTest, AddsRelaxedEdges) {
  LabelDictionary d;
  Graph a = Path(d, {"C", "O"});
  Graph b = Path(d, {"C", "O"});
  EXPECT_EQ(GedTightLowerBound(a, b, 2), 2);
  EXPECT_EQ(GedTightLowerBound(a, b, -5), 0);  // negative n clamped
}

TEST(GedUpperBoundTest, ExactForSimpleCases) {
  LabelDictionary d;
  Graph a = Path(d, {"C", "O", "C"});
  EXPECT_EQ(GedUpperBound(a, a), 0);  // identity alignment found greedily
  Graph b = Path(d, {"C", "N", "C"});
  EXPECT_LE(GedExact(a, b), GedUpperBound(a, b));
}

TEST(GedUpperBoundTest, EmptyGraphCosts) {
  LabelDictionary d;
  Graph g = Path(d, {"C", "O", "C"});
  EXPECT_EQ(GedUpperBound(g, Graph()), 5);  // 3 vertices + 2 edges
  EXPECT_EQ(GedUpperBound(Graph(), g), 5);
}

// Property: GED is symmetric and sandwiched between its bounds.
class GedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GedPropertyTest, SymmetricAndBounded) {
  LabelDictionary d;
  Rng rng(700 + GetParam());
  Graph a = RandomGraph(d, rng, 3 + GetParam() % 4, GetParam() % 3, 2);
  Graph b = RandomGraph(d, rng, 3 + (GetParam() / 2) % 4, GetParam() % 2, 2);
  int ab = GedExact(a, b);
  int ba = GedExact(b, a);
  EXPECT_EQ(ab, ba);
  EXPECT_LE(GedLowerBound(a, b), ab);
  EXPECT_GE(GedUpperBound(a, b), ab);
  EXPECT_GE(ab, 0);
  // Zero distance iff isomorphic.
  EXPECT_EQ(ab == 0, AreIsomorphic(a, b));
}

INSTANTIATE_TEST_SUITE_P(Random, GedPropertyTest, ::testing::Range(0, 40));

// Property: triangle inequality on small random triples.
class GedTriangleTest : public ::testing::TestWithParam<int> {};

TEST_P(GedTriangleTest, TriangleInequality) {
  LabelDictionary d;
  Rng rng(1500 + GetParam());
  Graph a = RandomGraph(d, rng, 4, 1, 2);
  Graph b = RandomGraph(d, rng, 4, 1, 2);
  Graph c = RandomGraph(d, rng, 4, 1, 2);
  EXPECT_LE(GedExact(a, c), GedExact(a, b) + GedExact(b, c));
}

INSTANTIATE_TEST_SUITE_P(Random, GedTriangleTest, ::testing::Range(0, 20));

// Brute-force GED: the minimum, over every injective partial map of A's
// vertices into B's, of the unit-cost edit script the map induces (relabel
// or delete each A-vertex, insert each unmapped B-vertex, delete each A-edge
// and insert each B-edge that the map does not preserve).
class BruteForceGed {
 public:
  BruteForceGed(const Graph& a, const Graph& b)
      : a_(a), b_(b), map_(a.NumVertices(), -1),
        used_(b.NumVertices(), false) {}

  int Run() {
    Assign(0);
    return best_;
  }

 private:
  void Assign(VertexId u) {
    if (u == a_.NumVertices()) {
      best_ = std::min(best_, Price());
      return;
    }
    map_[u] = -1;  // delete u
    Assign(u + 1);
    for (VertexId v = 0; v < b_.NumVertices(); ++v) {
      if (used_[v]) continue;
      used_[v] = true;
      map_[u] = static_cast<int>(v);
      Assign(u + 1);
      used_[v] = false;
    }
    map_[u] = -1;
  }

  int Price() const {
    int cost = 0;
    int mapped = 0;
    for (VertexId u = 0; u < a_.NumVertices(); ++u) {
      if (map_[u] < 0) {
        ++cost;
      } else {
        ++mapped;
        if (a_.label(u) != b_.label(static_cast<VertexId>(map_[u]))) ++cost;
      }
    }
    cost += static_cast<int>(b_.NumVertices()) - mapped;
    int preserved = 0;
    for (const auto& [u, w] : a_.Edges()) {
      if (map_[u] >= 0 && map_[w] >= 0 &&
          b_.HasEdge(static_cast<VertexId>(map_[u]),
                     static_cast<VertexId>(map_[w]))) {
        ++preserved;
      }
    }
    return cost + static_cast<int>(a_.NumEdges() + b_.NumEdges()) -
           2 * preserved;
  }

  const Graph& a_;
  const Graph& b_;
  std::vector<int> map_;
  std::vector<bool> used_;
  int best_ = std::numeric_limits<int>::max();
};

// 1-6 vertices over 3 labels; every other graph loses a random subset of
// its tree edges, so disconnected graphs (and isolated vertices) occur.
Graph OracleGraph(LabelDictionary& d, Rng& rng, bool thin) {
  int n = static_cast<int>(rng.UniformInt(1, 6));
  Graph g = RandomGraph(d, rng, n, static_cast<int>(rng.UniformInt(0, 3)));
  if (thin) {
    for (const auto& [u, v] : g.Edges()) {
      if (rng.UniformInt(0, 2) == 0) g.RemoveEdge(u, v);
    }
  }
  return g;
}

uint64_t NodesExpanded(obs::MetricsRegistry& reg) {
  return reg.GetCounter("midas_graph_ged_nodes_expanded_total")->Value();
}

TEST(GedOracleTest, ExactMatchesBruteForceAndBudgetsStayAnytime) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  LabelDictionary d;
  Rng rng(2024);
  constexpr int kPairs = 600;
  int disconnected = 0;
  int unequal = 0;
  for (int i = 0; i < kPairs; ++i) {
    SCOPED_TRACE(i);
    Graph a = OracleGraph(d, rng, i % 2 == 0);
    Graph b = OracleGraph(d, rng, i % 4 < 2);
    if (!a.IsConnected() || !b.IsConnected()) ++disconnected;
    if (a.NumVertices() != b.NumVertices()) ++unequal;

    const uint64_t before = NodesExpanded(reg);
    const int exact = GedExact(a, b);
    const uint64_t nodes = NodesExpanded(reg) - before;
    ASSERT_EQ(exact, BruteForceGed(a, b).Run());
    EXPECT_EQ(GedExact(b, a), exact);
    const int ub = GedUpperBound(a, b);
    EXPECT_LE(GedLowerBound(a, b), exact);
    EXPECT_LE(exact, ub);

    // Anytime contract: a search cut after any number of nodes short of the
    // full count returns an achievable distance; the full count is exact.
    ASSERT_GE(nodes, 1u);
    for (uint64_t steps = 1; steps <= nodes; ++steps) {
      ExecBudget budget = ExecBudget::StepLimit(steps);
      GedOutcome out = GedExactBudgeted(a, b, std::numeric_limits<int>::max(),
                                        &budget);
      if (steps < nodes) {
        ASSERT_TRUE(out.truncated) << "steps " << steps;
        ASSERT_GE(out.distance, exact) << "steps " << steps;
        ASSERT_LE(out.distance, ub) << "steps " << steps;
      } else {
        EXPECT_FALSE(out.truncated);
        EXPECT_EQ(out.distance, exact);
      }
    }
  }
  // The generator must actually cover both shapes.
  EXPECT_GT(disconnected, kPairs / 4);
  EXPECT_GT(unequal, kPairs / 2);
}

// Adjacency is per-search bitsets with one word per 64 vertices: a pair
// past one word must still search correctly. The distinct labels keep the
// search on one path, so a small cost limit is reached quickly.
TEST(GedOracleTest, SeventyVertexPathsBeyondOneWord) {
  Graph a;
  Graph b;
  constexpr VertexId kN = 70;
  for (VertexId v = 0; v < kN; ++v) {
    a.AddVertex(v);
    b.AddVertex(v == 66 ? 1000 : v);  // one relabel, in the second word
  }
  for (VertexId v = 1; v < kN; ++v) {
    a.AddEdge(v - 1, v);
    b.AddEdge(v - 1, v);
  }
  EXPECT_EQ(GedExact(a, b, 3), 1);
  EXPECT_EQ(GedExact(b, a, 3), 1);
  EXPECT_EQ(GedExact(a, b, 1), 1);  // distance >= limit: the limit
  b.RemoveEdge(68, 69);             // plus one edge deletion
  EXPECT_EQ(GedExact(a, b, 4), 2);
  EXPECT_EQ(GedExact(a, b, 2), 2);
}

}  // namespace
}  // namespace midas
