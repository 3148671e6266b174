#include "midas/graph/ged.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <numeric>
#include <vector>

#include "midas/obs/metrics.h"

namespace midas {
namespace {

constexpr int kDeleted = -1;
constexpr int kUnset = -2;

// Cached counter handles for GedExact, revalidated by registry id (see
// IsoMetrics in subgraph_iso.cc for the rationale).
struct GedMetrics {
  uint64_t registry_id = 0;
  obs::Counter* calls = nullptr;
  obs::Counter* nodes_expanded = nullptr;
  obs::Counter* bound_prunes = nullptr;
  obs::Counter* truncated = nullptr;
};

GedMetrics* GetGedMetrics(obs::MetricsRegistry& reg) {
  static thread_local GedMetrics metrics;
  if (metrics.registry_id != reg.id()) {
    metrics.registry_id = reg.id();
    metrics.calls = reg.GetCounter("midas_graph_ged_exact_calls_total");
    metrics.nodes_expanded =
        reg.GetCounter("midas_graph_ged_nodes_expanded_total");
    metrics.bound_prunes =
        reg.GetCounter("midas_graph_ged_bound_prunes_total");
    metrics.truncated = reg.GetCounter("midas_graph_ged_truncated_total");
  }
  return &metrics;
}

// DFS branch & bound over assignments of A-vertices (highest degree first)
// to B-vertices or deletion. Edge costs are charged as soon as both
// endpoints are decided. A child is entered only while
//
//   cost + max(r_A, r_B) - |L(R_A) ∩ L(R_B)| + |e_A - e_B|  <  best
//
// where R_A is the set of undecided A-vertices, R_B the set of unused
// B-vertices (r_A, r_B their sizes; the label intersection is a multiset),
// e_A the A-edges with an undecided endpoint and e_B the B-edges with an
// unused endpoint. The remainder is admissible: each vertex of R_A costs 0
// only when matched to a same-label vertex of R_B and every unmatched
// R_B vertex is an insertion, so the vertex edits left are at least
// max(r_A, r_B) minus the label intersection; each edge preserved from here
// on pairs one of the e_A edges with one of the e_B edges and every other
// one is deleted or inserted, so the edge edits left are at least
// |e_A - e_B|. At a leaf the remainder is exactly the insertions still owed
// (r_B + e_B). The label counts, e_A and e_B are kept incrementally, and
// B-adjacency is tested against per-search bitset rows (one word per 64
// vertices), so a node costs O(|V_B| * words + deg).
class GedSearch {
 public:
  GedSearch(const Graph& a, const Graph& b, int limit,
            ExecBudget* budget = nullptr)
      : a_(a), b_(b), best_(limit), budget_(budget) {}

  /// True when Run() unwound early on budget exhaustion; best_ then holds
  /// the incumbent (an upper bound), not a proven optimum.
  bool truncated() const { return truncated_; }

  int Run() {
    const size_t na = a_.NumVertices();
    const size_t nb = b_.NumVertices();
    order_.resize(na);
    std::iota(order_.begin(), order_.end(), 0);
    // High-degree vertices first: decides expensive edges early.
    std::sort(order_.begin(), order_.end(), [&](VertexId x, VertexId y) {
      return a_.Degree(x) > a_.Degree(y);
    });
    assign_.assign(na, kUnset);

    words_ = (nb + 63) / 64;
    b_rows_.assign(nb * words_, 0);
    for (VertexId v = 0; v < nb; ++v) {
      uint64_t* row = b_rows_.data() + v * words_;
      for (VertexId y : b_.Neighbors(v)) SetBit(row, y);
    }
    used_.assign(words_, 0);
    images_.assign((na + 1) * words_, 0);

    // Dense label ids over both graphs, and per-label counts of R_A / R_B.
    std::vector<Label> labels;
    for (VertexId u = 0; u < na; ++u) labels.push_back(a_.label(u));
    for (VertexId v = 0; v < nb; ++v) labels.push_back(b_.label(v));
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    auto dense = [&labels](Label l) {
      return static_cast<uint32_t>(
          std::lower_bound(labels.begin(), labels.end(), l) - labels.begin());
    };
    count_a_.assign(labels.size(), 0);
    count_b_.assign(labels.size(), 0);
    label_a_.resize(na);
    label_b_.resize(nb);
    for (VertexId u = 0; u < na; ++u) {
      label_a_[u] = dense(a_.label(u));
      ++count_a_[label_a_[u]];
    }
    for (VertexId v = 0; v < nb; ++v) {
      label_b_[v] = dense(b_.label(v));
      ++count_b_[label_b_[v]];
    }
    common_ = 0;
    for (size_t l = 0; l < labels.size(); ++l) {
      common_ += std::min(count_a_[l], count_b_[l]);
    }
    rem_a_ = static_cast<int>(na);
    rem_b_ = static_cast<int>(nb);
    open_a_ = static_cast<int>(a_.NumEdges());
    open_b_ = static_cast<int>(b_.NumEdges());

    if (Remainder() < best_) {
      Extend(0, 0);
    } else {
      ++bound_prunes_;
    }
    return best_;
  }

 private:
  static void SetBit(uint64_t* bits, size_t i) {
    bits[i / 64] |= uint64_t{1} << (i % 64);
  }
  static void ClearBit(uint64_t* bits, size_t i) {
    bits[i / 64] &= ~(uint64_t{1} << (i % 64));
  }
  static bool TestBit(const uint64_t* bits, size_t i) {
    return (bits[i / 64] >> (i % 64)) & 1;
  }

  // Admissible cost of completing the current partial assignment.
  int Remainder() const {
    return std::max(rem_a_, rem_b_) - common_ + std::abs(open_a_ - open_b_);
  }

  // Moves one vertex of label l out of R_A (R_B), keeping the multiset
  // intersection current; Return* undoes it.
  void TakeA(uint32_t l) {
    if (count_a_[l] <= count_b_[l]) --common_;
    --count_a_[l];
  }
  void ReturnA(uint32_t l) {
    ++count_a_[l];
    if (count_a_[l] <= count_b_[l]) ++common_;
  }
  void TakeB(uint32_t l) {
    if (count_b_[l] <= count_a_[l]) --common_;
    --count_b_[l];
  }
  void ReturnB(uint32_t l) {
    ++count_b_[l];
    if (count_b_[l] <= count_a_[l]) ++common_;
  }

  // Enters a node whose cost + Remainder() the caller proved below best_.
  void Extend(size_t depth, int cost) {
    // One budget step per node expanded — the same unit VF2 charges per
    // candidate assignment, so a shared round budget is kernel-comparable.
    if (!BudgetCharge(budget_)) {
      truncated_ = true;
      return;
    }
    ++nodes_expanded_;
    if (depth == order_.size()) {
      best_ = std::min(best_, cost + Remainder());
      return;
    }
    const VertexId u = order_[depth];
    // Images of u's matched decided neighbours; a neighbour decided as a
    // deletion costs one edge deletion whatever u becomes.
    uint64_t* image = images_.data() + depth * words_;
    std::fill(image, image + words_, 0);
    int decided_nbrs = 0;
    int deleted_nbrs = 0;
    for (VertexId w : a_.Neighbors(u)) {
      const int x = assign_[w];
      if (x == kUnset) continue;
      ++decided_nbrs;
      if (x == kDeleted) {
        ++deleted_nbrs;
      } else {
        SetBit(image, static_cast<size_t>(x));
      }
    }
    const uint32_t lu = label_a_[u];
    TakeA(lu);
    --rem_a_;
    open_a_ -= decided_nbrs;

    for (VertexId v = 0; v < b_.NumVertices(); ++v) {
      if (TestBit(used_.data(), v)) continue;
      // B-edges from v to used vertices close now; each one not mirrored by
      // an A-edge to its preimage is an insertion, and each A-edge to a
      // matched neighbour not mirrored in B is a deletion.
      const uint64_t* row = b_rows_.data() + v * words_;
      int closed_b = 0;
      int mismatched = 0;
      for (size_t k = 0; k < words_; ++k) {
        const uint64_t closing = row[k] & used_[k];
        closed_b += std::popcount(closing);
        mismatched += std::popcount(closing ^ image[k]);
      }
      const uint32_t lv = label_b_[v];
      const int step = (lu != lv ? 1 : 0) + deleted_nbrs + mismatched;
      const int common_after =
          common_ - (count_b_[lv] <= count_a_[lv] ? 1 : 0);
      const int remainder = std::max(rem_a_, rem_b_ - 1) - common_after +
                            std::abs(open_a_ - (open_b_ - closed_b));
      if (cost + step + remainder >= best_) {
        ++bound_prunes_;
        continue;
      }
      assign_[u] = static_cast<int>(v);
      SetBit(used_.data(), v);
      TakeB(lv);
      --rem_b_;
      open_b_ -= closed_b;
      Extend(depth + 1, cost + step);
      open_b_ += closed_b;
      ++rem_b_;
      ReturnB(lv);
      ClearBit(used_.data(), v);
      assign_[u] = kUnset;
      if (truncated_) break;
    }
    // Delete u: every edge to a decided neighbour goes with it.
    if (!truncated_) {
      const int step = 1 + decided_nbrs;
      if (cost + step + Remainder() >= best_) {
        ++bound_prunes_;
      } else {
        assign_[u] = kDeleted;
        Extend(depth + 1, cost + step);
        assign_[u] = kUnset;
      }
    }
    open_a_ += decided_nbrs;
    ++rem_a_;
    ReturnA(lu);
  }

  const Graph& a_;
  const Graph& b_;
  std::vector<VertexId> order_;
  std::vector<int> assign_;
  size_t words_ = 0;               ///< 64-bit words per B-vertex bitset
  std::vector<uint64_t> b_rows_;   ///< B adjacency, one bitset per vertex
  std::vector<uint64_t> used_;     ///< B-vertices matched so far
  std::vector<uint64_t> images_;   ///< per-depth scratch bitsets
  std::vector<uint32_t> label_a_;  ///< dense label id per A-vertex
  std::vector<uint32_t> label_b_;  ///< dense label id per B-vertex
  std::vector<int> count_a_;       ///< per-label |R_A|
  std::vector<int> count_b_;       ///< per-label |R_B|
  int common_ = 0;                 ///< |L(R_A) ∩ L(R_B)|
  int rem_a_ = 0;                  ///< r_A
  int rem_b_ = 0;                  ///< r_B
  int open_a_ = 0;                 ///< e_A
  int open_b_ = 0;                 ///< e_B
  int best_;
  ExecBudget* budget_ = nullptr;  ///< non-owning; nullptr = unlimited
  bool truncated_ = false;

 public:
  uint64_t nodes_expanded_ = 0;  ///< search-tree nodes entered
  uint64_t bound_prunes_ = 0;    ///< subtrees cut by the admissible bound
};

}  // namespace

int GedExact(const Graph& a, const Graph& b, int cost_limit) {
  return GedExactBudgeted(a, b, cost_limit, nullptr).distance;
}

GedOutcome GedExactBudgeted(const Graph& a, const Graph& b, int cost_limit,
                            ExecBudget* budget) {
  // Seed the branch & bound with the greedy upper bound: the search only
  // has to find strictly better solutions (or confirm none exist). The
  // seed also makes the search anytime — whenever the budget runs out, the
  // incumbent (at worst the greedy bound) is still an achievable distance.
  int ub = GedUpperBound(a, b);
  int limit = std::min(cost_limit, ub + 1);
  GedSearch search(a, b, limit, budget);
  int d = std::min(search.Run(), ub);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    GedMetrics* m = GetGedMetrics(reg);
    m->calls->Increment();
    m->nodes_expanded->Increment(search.nodes_expanded_);
    m->bound_prunes->Increment(search.bound_prunes_);
    if (search.truncated()) m->truncated->Increment();
  }
  GedOutcome outcome;
  outcome.distance = std::min(d, cost_limit);
  outcome.truncated = search.truncated();
  return outcome;
}

int GedLowerBound(const Graph& a, const Graph& b) {
  std::map<Label, int> la;
  std::map<Label, int> lb;
  for (VertexId v = 0; v < a.NumVertices(); ++v) ++la[a.label(v)];
  for (VertexId v = 0; v < b.NumVertices(); ++v) ++lb[b.label(v)];
  // |L(V_A) ∩ L(V_B)| as multiset intersection (tighter than set
  // intersection and still a valid lower bound on preservable vertices).
  int common = 0;
  for (const auto& [label, ca] : la) {
    auto it = lb.find(label);
    if (it != lb.end()) common += std::min(ca, it->second);
  }
  int va = static_cast<int>(a.NumVertices());
  int vb = static_cast<int>(b.NumVertices());
  int v_part = std::abs(va - vb) + (std::min(va, vb) - common);
  int e_part =
      std::abs(static_cast<int>(a.NumEdges()) - static_cast<int>(b.NumEdges()));
  return v_part + e_part;
}

int GedTightLowerBound(const Graph& a, const Graph& b, int relaxed_edges) {
  return GedLowerBound(a, b) + std::max(0, relaxed_edges);
}

int GedUpperBound(const Graph& a, const Graph& b) {
  // Greedy label-first alignment (mirrors closure_graph's GreedyAlign but
  // also permits relabel matches when no same-label vertex is free).
  size_t na = a.NumVertices();
  size_t nb = b.NumVertices();
  std::vector<int> map_a(na, -1);
  std::vector<bool> used_b(nb, false);

  std::vector<VertexId> order(na);
  for (size_t i = 0; i < na; ++i) order[i] = static_cast<VertexId>(i);
  std::sort(order.begin(), order.end(), [&](VertexId x, VertexId y) {
    return a.Degree(x) > a.Degree(y);
  });

  for (VertexId v : order) {
    int best = -1;
    int best_score = -1;
    for (VertexId t = 0; t < nb; ++t) {
      if (used_b[t]) continue;
      int score = a.label(v) == b.label(t) ? 2 : 0;
      for (VertexId w : a.Neighbors(v)) {
        if (map_a[w] >= 0 && b.HasEdge(t, static_cast<VertexId>(map_a[w]))) {
          score += 2;
        }
      }
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(t);
      }
    }
    if (best >= 0) {
      map_a[v] = best;
      used_b[static_cast<size_t>(best)] = true;
    }
  }

  // Price the edit script induced by the alignment.
  int cost = 0;
  size_t mapped = 0;
  for (VertexId v = 0; v < na; ++v) {
    if (map_a[v] < 0) {
      ++cost;  // delete vertex
    } else {
      ++mapped;
      if (a.label(v) != b.label(static_cast<VertexId>(map_a[v]))) {
        ++cost;  // relabel
      }
    }
  }
  cost += static_cast<int>(nb - mapped);  // insert unmatched b vertices
  // Edges of a: preserved iff both endpoints mapped onto a b-edge.
  size_t preserved = 0;
  for (const auto& [u, v] : a.Edges()) {
    if (map_a[u] >= 0 && map_a[v] >= 0 &&
        b.HasEdge(static_cast<VertexId>(map_a[u]),
                  static_cast<VertexId>(map_a[v]))) {
      ++preserved;
    }
  }
  cost += static_cast<int>(a.NumEdges() - preserved);  // deletions
  cost += static_cast<int>(b.NumEdges() - preserved);  // insertions
  return cost;
}

}  // namespace midas
