#include "midas/mining/tree_miner.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "midas/graph/canonical.h"
#include "midas/graph/subgraph_iso.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"

namespace midas {

GraphView MakeView(const GraphDatabase& db) {
  GraphView view;
  view.reserve(db.size());
  for (const auto& [id, g] : db.graphs()) view.emplace_back(id, &g);
  return view;
}

GraphView MakeView(const GraphDatabase& db, const std::vector<GraphId>& ids) {
  GraphView view;
  view.reserve(ids.size());
  for (GraphId id : ids) {
    const Graph* g = db.Find(id);
    if (g != nullptr) view.emplace_back(id, g);
  }
  return view;
}

std::map<EdgeLabelPair, IdSet> EdgeOccurrences(const GraphView& view) {
  std::map<EdgeLabelPair, IdSet> occ;
  for (const auto& [id, g] : view) {
    for (const EdgeLabelPair& lp : g->DistinctEdgeLabels()) {
      occ[lp].Insert(id);
    }
  }
  return occ;
}

namespace {

// Minimum absolute occurrence count for a support fraction.
size_t MinCount(double min_support, size_t view_size) {
  return static_cast<size_t>(
      std::ceil(min_support * static_cast<double>(view_size) - 1e-9));
}

// Builds the 1-edge tree for an edge label pair.
Graph EdgeTree(const EdgeLabelPair& lp) {
  Graph t;
  VertexId a = t.AddVertex(lp.first);
  VertexId b = t.AddVertex(lp.second);
  t.AddEdge(a, b);
  return t;
}

}  // namespace

IdSet CountOccurrences(const IdSet& candidates, size_t min_count,
                       const std::function<bool(GraphId)>& contains,
                       ExecBudget* budget, TaskPool* pool) {
  IdSet occ;
  if (pool == nullptr || pool->serial() || TaskPool::OnWorkerThread()) {
    // Serial reference path, with the cannot-reach-threshold early abort.
    size_t remaining = candidates.size();
    for (GraphId id : candidates) {
      if (occ.size() + remaining < min_count) break;
      if (BudgetExhausted(budget)) break;
      --remaining;
      if (contains(id)) occ.Insert(id);
    }
    return occ;
  }
  // Parallel path: probe every candidate, merge in ascending-id order.
  std::vector<GraphId> ids(candidates.begin(), candidates.end());
  std::vector<uint8_t> verdict(ids.size(), 0);
  ParallelFor(
      pool, ids.size(),
      [&](size_t i) {
        if (contains(ids[i])) verdict[i] = 1;
      },
      budget);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (verdict[i] != 0) occ.Insert(ids[i]);
  }
  return occ;
}

std::vector<MinedTree> MineFrequentTrees(const GraphView& view,
                                         const TreeMinerConfig& config) {
  obs::TraceSpan mine_span("midas_mining_mine_ms");
  uint64_t extensions_tried = 0;
  uint64_t support_pruned = 0;
  std::vector<MinedTree> result;
  if (view.empty()) return result;
  size_t min_count = std::max<size_t>(1, MinCount(config.min_support,
                                                  view.size()));

  std::unordered_map<GraphId, const Graph*> by_id;
  by_id.reserve(view.size());
  for (const auto& [id, g] : view) by_id.emplace(id, g);

  // Level 1: frequent single edges.
  std::map<EdgeLabelPair, IdSet> edge_occ = EdgeOccurrences(view);
  std::vector<MinedTree> level;
  // Frequent labels each vertex label can extend to, derived from frequent
  // edges: label -> set of partner labels.
  std::unordered_map<Label, std::vector<Label>> partners;
  for (const auto& [lp, occ] : edge_occ) {
    if (occ.size() < min_count) continue;
    MinedTree mt;
    mt.tree = EdgeTree(lp);
    mt.canon = CanonicalTreeString(mt.tree);
    mt.occurrences = occ;
    level.push_back(std::move(mt));
    partners[lp.first].push_back(lp.second);
    if (lp.second != lp.first) partners[lp.second].push_back(lp.first);
  }

  std::unordered_set<std::string> seen;
  for (const MinedTree& mt : level) seen.insert(mt.canon);
  for (MinedTree& mt : level) result.push_back(std::move(mt));

  // Levels 2..max_edges: leaf extensions with frequent edge labels.
  ExecBudget* budget = config.budget;
  std::vector<MinedTree>* frontier = &result;
  size_t frontier_begin = 0;
  size_t frontier_end = result.size();
  for (size_t size = 2;
       size <= config.max_edges && result.size() < config.max_trees &&
       !BudgetExhausted(budget);
       ++size) {
    size_t next_begin = result.size();
    for (size_t i = frontier_begin; i < frontier_end; ++i) {
      // NOTE: result may reallocate as we push; take copies of what we need.
      Graph parent_tree = (*frontier)[i].tree;
      IdSet parent_occ = (*frontier)[i].occurrences;
      for (VertexId v = 0; v < parent_tree.NumVertices(); ++v) {
        auto pit = partners.find(parent_tree.label(v));
        if (pit == partners.end()) continue;
        for (Label leaf_label : pit->second) {
          // One step per extension tried, on top of the VF2 charges inside
          // CountOccurrences. On exhaustion the level loop unwinds and the
          // trees mined so far are returned (anytime).
          if (!BudgetCharge(budget)) break;
          ++extensions_tried;
          Graph ext = parent_tree;
          VertexId leaf = ext.AddVertex(leaf_label);
          ext.AddEdge(v, leaf);
          std::string canon = CanonicalTreeString(ext);
          if (!seen.insert(canon).second) continue;
          EdgeLabelPair lp(parent_tree.label(v), leaf_label);
          IdSet candidates =
              IdSet::Intersection(parent_occ, edge_occ[lp]);
          if (candidates.size() < min_count) {
            ++support_pruned;
            continue;
          }
          auto contains = [&](GraphId id) {
            auto it = by_id.find(id);
            return it != by_id.end() &&
                   ContainsSubgraphBudgeted(ext, *it->second, budget).found;
          };
          IdSet occ = CountOccurrences(candidates, min_count, contains,
                                       budget, config.pool);
          if (occ.size() < min_count) {
            ++support_pruned;
            continue;
          }
          MinedTree mt;
          mt.tree = std::move(ext);
          mt.canon = std::move(canon);
          mt.occurrences = std::move(occ);
          result.push_back(std::move(mt));
          if (result.size() >= config.max_trees) break;
        }
        if (result.size() >= config.max_trees || BudgetExhausted(budget)) {
          break;
        }
      }
      if (result.size() >= config.max_trees || BudgetExhausted(budget)) break;
    }
    frontier_begin = next_begin;
    frontier_end = result.size();
    if (frontier_begin == frontier_end) break;  // no growth
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    reg.GetCounter("midas_mining_runs_total")->Increment();
    reg.GetCounter("midas_mining_trees_emitted_total")
        ->Increment(result.size());
    reg.GetCounter("midas_mining_extensions_tried_total")
        ->Increment(extensions_tried);
    reg.GetCounter("midas_mining_support_pruned_total")
        ->Increment(support_pruned);
    if (BudgetExhausted(budget)) {
      reg.GetCounter("midas_mining_truncated_total")->Increment();
    }
  }
  return result;
}

std::vector<MinedTree> FilterClosedTrees(const std::vector<MinedTree>& trees,
                                         size_t max_edges) {
  // Group indices by edge count for supertree lookups.
  std::unordered_map<size_t, std::vector<size_t>> by_size;
  for (size_t i = 0; i < trees.size(); ++i) {
    by_size[trees[i].tree.NumEdges()].push_back(i);
  }

  std::vector<MinedTree> closed;
  for (const MinedTree& t : trees) {
    size_t sz = t.tree.NumEdges();
    bool is_closed = true;
    if (sz < max_edges) {
      auto it = by_size.find(sz + 1);
      if (it != by_size.end()) {
        for (size_t j : it->second) {
          const MinedTree& super = trees[j];
          // Equal support + subtree relation => equal occurrence sets for
          // trees, so compare occurrence sets first (cheap) and confirm
          // with a containment check.
          if (super.occurrences == t.occurrences &&
              ContainsSubgraph(t.tree, super.tree)) {
            is_closed = false;
            break;
          }
        }
      }
    }
    if (is_closed) closed.push_back(t);
  }
  return closed;
}

}  // namespace midas
