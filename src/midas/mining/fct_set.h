#ifndef MIDAS_MINING_FCT_SET_H_
#define MIDAS_MINING_FCT_SET_H_

#include <map>
#include <string>
#include <vector>

#include "midas/common/id_set.h"
#include "midas/common/parallel.h"
#include "midas/graph/graph_database.h"
#include "midas/mining/tree_miner.h"

namespace midas {

/// One tree in the maintained FCT pool.
struct FctEntry {
  Graph tree;
  std::string canon;
  IdSet occurrences;      ///< current data-graph ids containing the tree
  bool frequent = false;  ///< support >= sup_min
  bool closed = false;    ///< no equal-support frequent supertree in pool
};

/// Maintained set of frequent closed trees with occurrence lists
/// (Sections 4.1-4.2).
///
/// Pool contract. Every pool tree has support at least t = sup_min/2 — the
/// paper's relaxed threshold (Lemma 4.5) — so that trees hovering below
/// sup_min are not lost between batch updates, and carries its exact
/// occurrence id-set. Mine fills the pool with every tree (within
/// max_edges / max_trees) whose support reaches t, and MaintainAdd keeps
/// such a complete pool complete. MaintainDelete is pure bookkeeping (Δ⁻
/// clears bits; no isomorphism tests): it drops trees that fall below t
/// and admits none, so a tree whose support reaches t only because
/// deletions shrank |D| is absent, though Mine on the same database holds
/// it, until an insertion batch holds it at sup_min/2 within the delta
/// (MaintainAdd then counts it over D ⊕ Δ) or the pool is re-mined.
/// The FCT set F differs from Mine's only if such a tree also reaches
/// sup_min = 2t, which deletions alone do only by removing about half of
/// the database. Occurrence id-sets restrict Δ⁺ work to (a) probing pool
/// trees against the new graphs only and (b) counting trees newly frequent
/// *within the delta* over D ⊕ Δ only until their pool membership is
/// decided. For (b), a one-edge tree's occurrences are its edge label's
/// list; a k-edge tree is probed only in graphs holding all its edge labels
/// and every (k-1)-edge subtree left by deleting a leaf, and is dropped
/// without a probe once one of those subtrees is below t or fewer than t
/// candidates remain. Support is antitone, so the candidates cover the true
/// occurrences and only trees below t are dropped: the pool is exactly what
/// a full-database scan of every delta tree would leave. This realizes the
/// closure property speedup of Lemma 3.4: trees already known closed never
/// trigger a database rescan, and new trees rescan only what can still
/// reach the pool.
///
/// Exact edge-label occurrence lists are maintained alongside, providing the
/// frequent / infrequent edge universe used by the FCT-/IFE-indices and the
/// CSG edge weights.
class FctSet {
 public:
  struct Config {
    double sup_min = 0.5;
    size_t max_edges = 4;
    size_t max_trees = 20000;
  };

  FctSet() = default;

  /// Mines the pool from scratch. `pool` parallelizes the VF2 support
  /// counts (see TreeMinerConfig::pool).
  static FctSet Mine(const GraphDatabase& db, const Config& config,
                     TaskPool* pool = nullptr);

  /// Incorporates a batch of insertions. `db_after` must already contain the
  /// added graphs. `budget` (non-owning; nullptr = unlimited) bounds the
  /// VF2 probes and the delta mining: on exhaustion the occurrence lists
  /// may *under-count* (a containment not proven within budget is treated
  /// as absent), so supports only ever err low — the pool never keeps a
  /// tree on invented evidence. The missed counts are healed by the next
  /// unbudgeted round or RunFromScratch. `pool` parallelizes the per-entry
  /// probes and the candidate scans of newly frequent delta trees.
  void MaintainAdd(const GraphDatabase& db_after,
                   const std::vector<GraphId>& added_ids,
                   ExecBudget* budget = nullptr, TaskPool* pool = nullptr);

  /// Incorporates a batch of deletions (ids already removed from the db).
  /// Pure occurrence-list bookkeeping — no search, hence no budget — that
  /// drops trees below t and admits none (see the pool contract above).
  void MaintainDelete(const std::vector<GraphId>& removed_ids,
                      size_t db_size_after);

  /// Current frequent closed trees (the FCT set F).
  std::vector<const FctEntry*> FrequentClosedTrees() const;

  /// All pool entries (including sub-threshold shadow trees).
  std::vector<const FctEntry*> PoolEntries() const;

  /// Edge labels with support >= sup_min, with their occurrence sets.
  std::vector<std::pair<EdgeLabelPair, const IdSet*>> FrequentEdges() const;
  /// Edge labels present in the database but with support < sup_min.
  std::vector<std::pair<EdgeLabelPair, const IdSet*>> InfrequentEdges() const;

  const std::map<EdgeLabelPair, IdSet>& edge_occurrences() const {
    return edge_occ_;
  }

  size_t database_size() const { return db_size_; }
  const Config& config() const { return config_; }

  /// Approximate heap footprint (Exp-2 memory report).
  size_t MemoryBytes() const;

 private:
  size_t MinCount(double fraction) const;
  void RecomputeFlags();

  Config config_;
  size_t db_size_ = 0;
  std::map<std::string, FctEntry> pool_;  // keyed by canonical string
  std::map<EdgeLabelPair, IdSet> edge_occ_;
};

}  // namespace midas

#endif  // MIDAS_MINING_FCT_SET_H_
