#include "midas/mining/fct_set.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "midas/graph/canonical.h"
#include "midas/graph/compute_cache.h"
#include "midas/graph/subgraph_iso.h"

namespace midas {

size_t FctSet::MinCount(double fraction) const {
  return std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(fraction * static_cast<double>(db_size_) - 1e-9)));
}

FctSet FctSet::Mine(const GraphDatabase& db, const Config& config,
                    TaskPool* pool) {
  FctSet set;
  set.config_ = config;
  set.db_size_ = db.size();
  GraphView view = MakeView(db);
  set.edge_occ_ = EdgeOccurrences(view);

  TreeMinerConfig miner;
  miner.min_support = config.sup_min / 2.0;  // relaxed pool threshold
  miner.max_edges = config.max_edges;
  miner.max_trees = config.max_trees;
  miner.pool = pool;
  for (MinedTree& mt : MineFrequentTrees(view, miner)) {
    FctEntry entry;
    entry.tree = std::move(mt.tree);
    entry.canon = mt.canon;
    entry.occurrences = std::move(mt.occurrences);
    set.pool_.emplace(std::move(mt.canon), std::move(entry));
  }
  set.RecomputeFlags();
  return set;
}

void FctSet::MaintainAdd(const GraphDatabase& db_after,
                         const std::vector<GraphId>& added_ids,
                         ExecBudget* budget, TaskPool* pool) {
  // 1. Exact edge-occurrence maintenance.
  for (GraphId id : added_ids) {
    const Graph* g = db_after.Find(id);
    if (g == nullptr) continue;
    for (const EdgeLabelPair& lp : g->DistinctEdgeLabels()) {
      edge_occ_[lp].Insert(id);
    }
  }

  // 2. Probe existing pool trees against the new graphs only
  //    (Proposition 4.1: adding a graph containing a CT does not change the
  //    CT universe — just its support). Graphs missing any of the tree's
  //    edge labels are skipped without an isomorphism test.
  {
    // Entries are independent (each only touches its own occurrence set and
    // reads edge_occ_), so the per-entry probes fan out over the pool.
    std::vector<FctEntry*> entries;
    entries.reserve(pool_.size());
    for (auto& [canon, entry] : pool_) entries.push_back(&entry);
    ParallelFor(
        pool, entries.size(),
        [&](size_t e) {
          FctEntry& entry = *entries[e];
          IdSet candidates(
              std::vector<uint32_t>(added_ids.begin(), added_ids.end()));
          for (const EdgeLabelPair& lp : entry.tree.DistinctEdgeLabels()) {
            auto it = edge_occ_.find(lp);
            if (it == edge_occ_.end()) {
              candidates.clear();
              break;
            }
            candidates = IdSet::Intersection(candidates, it->second);
            if (candidates.empty()) break;
          }
          for (GraphId id : candidates) {
            const Graph* g = db_after.Find(id);
            if (g == nullptr) continue;
            if (ContainsSubgraphBudgeted(entry.tree, *g, budget).found) {
              entry.occurrences.Insert(id);
            }
          }
        },
        budget);
  }

  // 3. Mine the delta at the relaxed threshold (Lemma 4.5): a tree that is
  //    newly frequent in D ⊕ Δ but was below the pool threshold in D must
  //    reach sup_min/2 within Δ⁺ itself.
  GraphView delta = MakeView(db_after, added_ids);
  TreeMinerConfig miner;
  miner.min_support = config_.sup_min / 2.0;
  miner.max_edges = config_.max_edges;
  miner.max_trees = config_.max_trees;
  miner.budget = budget;
  miner.pool = pool;
  std::vector<MinedTree> delta_trees = MineFrequentTrees(delta, miner);

  // Corollary 4.3 case (2): a delta tree unknown to the pool joins it iff
  // its support over D ⊕ Δ reaches the pool threshold t, so it is counted
  // only until that is decided. Support is antitone: the tree's occurrences
  // lie inside each of its edge labels' lists and inside the occurrence set
  // of each (k-1)-edge subtree left by deleting a leaf. Those subtrees are
  // delta trees one level down (the delta lattice is downward closed and the
  // miner emits it level by level), so each was settled before the tree: it
  // is in pool_ with its D ⊕ Δ occurrence set (an old entry after step 2, or
  // admitted earlier in this loop) or in `below`. Unbudgeted, those sets are
  // exact, the candidates cover the true occurrences, every probe gives the
  // verdict a full scan would, and a tree is dropped only when its support
  // is provably below t — exactly when RecomputeFlags would prune it.
  db_size_ = db_after.size();
  const size_t t = MinCount(config_.sup_min / 2.0);
  const uint64_t epoch = db_after.epoch();
  ComputeCache& cache = ComputeCache::Global();
  std::unordered_set<std::string> below;  // delta trees proven below t
  for (MinedTree& mt : delta_trees) {
    if (pool_.count(mt.canon) > 0) continue;
    IdSet candidates;
    bool first = true;
    for (const EdgeLabelPair& lp : mt.tree.DistinctEdgeLabels()) {
      auto it = edge_occ_.find(lp);
      IdSet empty;
      const IdSet& occ = it == edge_occ_.end() ? empty : it->second;
      if (first) {
        candidates = occ;
        first = false;
      } else {
        candidates = IdSet::Intersection(candidates, occ);
      }
    }
    const bool one_edge = mt.tree.NumEdges() == 1;
    bool subtree_below = false;
    for (VertexId leaf = 0; !one_edge && leaf < mt.tree.NumVertices();
         ++leaf) {
      if (mt.tree.Degree(leaf) != 1) continue;
      std::vector<VertexId> keep;
      for (VertexId v = 0; v < mt.tree.NumVertices(); ++v) {
        if (v != leaf) keep.push_back(v);
      }
      std::string sub = CanonicalTreeString(mt.tree.InducedSubgraph(keep));
      if (below.count(sub) > 0) {
        subtree_below = true;
        break;
      }
      auto it = pool_.find(sub);
      if (it != pool_.end()) {
        candidates = IdSet::Intersection(candidates, it->second.occurrences);
      }
    }
    if (subtree_below || candidates.size() < t) {
      below.insert(std::move(mt.canon));
      continue;
    }
    FctEntry entry;
    if (one_edge) {
      // Every graph holding the edge label contains the one-edge tree.
      entry.occurrences = std::move(candidates);
    } else {
      const std::string tree_code = GraphContentCode(mt.tree);
      auto contains = [&](GraphId id) {
        const Graph* g = db_after.Find(id);
        if (g == nullptr) return false;
        bool found = false;
        if (cache.LookupContainment(tree_code, epoch, id, &found)) {
          return found;
        }
        IsoOutcome out = ContainsSubgraphBudgeted(mt.tree, *g, budget);
        // Budget-truncated "not found" means "not proven within budget",
        // never "absent" — only exact verdicts are cacheable.
        if (!out.truncated) {
          cache.StoreContainment(tree_code, epoch, id, out.found);
        }
        return out.found;
      };
      entry.occurrences =
          CountOccurrences(candidates, t, contains, budget, pool);
      // Exhaustion latches and every probe it cut short returned "not
      // found", so a count below t proves nothing once the budget is out:
      // the tree keeps what it found (under-count only) and RecomputeFlags
      // decides.
      if (entry.occurrences.size() < t && !BudgetExhausted(budget)) {
        below.insert(std::move(mt.canon));
        continue;
      }
    }
    entry.tree = std::move(mt.tree);
    entry.canon = mt.canon;
    pool_.emplace(std::move(mt.canon), std::move(entry));
  }

  RecomputeFlags();
}

void FctSet::MaintainDelete(const std::vector<GraphId>& removed_ids,
                            size_t db_size_after) {
  for (auto it = edge_occ_.begin(); it != edge_occ_.end();) {
    for (GraphId id : removed_ids) it->second.Erase(id);
    if (it->second.empty()) {
      it = edge_occ_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [canon, entry] : pool_) {
    for (GraphId id : removed_ids) entry.occurrences.Erase(id);
  }
  db_size_ = db_size_after;
  RecomputeFlags();
}

void FctSet::RecomputeFlags() {
  size_t freq_count = MinCount(config_.sup_min);
  size_t pool_count = MinCount(config_.sup_min / 2.0);

  // Prune trees that fell below the relaxed pool threshold.
  for (auto it = pool_.begin(); it != pool_.end();) {
    if (it->second.occurrences.size() < pool_count) {
      it = pool_.erase(it);
    } else {
      ++it;
    }
  }

  // Frequent flags + supertree index by size.
  std::unordered_map<size_t, std::vector<FctEntry*>> by_size;
  for (auto& [canon, entry] : pool_) {
    entry.frequent = entry.occurrences.size() >= freq_count;
    entry.closed = true;
    by_size[entry.tree.NumEdges()].push_back(&entry);
  }

  // Closedness: an equal-support supertree of a pool tree has support at
  // least the pool threshold, so it is itself in the pool (one-edge-larger
  // supertrees of trees are leaf extensions; see tree_miner.h). Equal
  // support + supertree relation implies equal occurrence sets.
  for (auto& [canon, entry] : pool_) {
    size_t sz = entry.tree.NumEdges();
    if (sz >= config_.max_edges) continue;  // cap convention: closed
    auto it = by_size.find(sz + 1);
    if (it == by_size.end()) continue;
    for (FctEntry* super : it->second) {
      if (super->occurrences == entry.occurrences &&
          ContainsSubgraph(entry.tree, super->tree)) {
        entry.closed = false;
        break;
      }
    }
  }
}

std::vector<const FctEntry*> FctSet::FrequentClosedTrees() const {
  std::vector<const FctEntry*> out;
  for (const auto& [canon, entry] : pool_) {
    if (entry.frequent && entry.closed) out.push_back(&entry);
  }
  return out;
}

std::vector<const FctEntry*> FctSet::PoolEntries() const {
  std::vector<const FctEntry*> out;
  out.reserve(pool_.size());
  for (const auto& [canon, entry] : pool_) out.push_back(&entry);
  return out;
}

std::vector<std::pair<EdgeLabelPair, const IdSet*>> FctSet::FrequentEdges()
    const {
  size_t freq_count = MinCount(config_.sup_min);
  std::vector<std::pair<EdgeLabelPair, const IdSet*>> out;
  for (const auto& [lp, occ] : edge_occ_) {
    if (occ.size() >= freq_count) out.emplace_back(lp, &occ);
  }
  return out;
}

std::vector<std::pair<EdgeLabelPair, const IdSet*>> FctSet::InfrequentEdges()
    const {
  size_t freq_count = MinCount(config_.sup_min);
  std::vector<std::pair<EdgeLabelPair, const IdSet*>> out;
  for (const auto& [lp, occ] : edge_occ_) {
    if (!occ.empty() && occ.size() < freq_count) out.emplace_back(lp, &occ);
  }
  return out;
}

size_t FctSet::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [canon, entry] : pool_) {
    bytes += canon.size() + entry.canon.size();
    bytes += entry.occurrences.size() * sizeof(uint32_t);
    bytes += entry.tree.NumVertices() * (sizeof(Label) + sizeof(void*)) +
             entry.tree.NumEdges() * 2 * sizeof(VertexId);
  }
  for (const auto& [lp, occ] : edge_occ_) {
    bytes += sizeof(lp) + occ.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace midas
