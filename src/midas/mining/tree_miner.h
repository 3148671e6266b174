#ifndef MIDAS_MINING_TREE_MINER_H_
#define MIDAS_MINING_TREE_MINER_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "midas/common/budget.h"
#include "midas/common/id_set.h"
#include "midas/common/parallel.h"
#include "midas/graph/graph_database.h"

namespace midas {

/// Frequent (closed) tree mining over a graph database, in the spirit of
/// TreeNat [9] (Sections 3.3, 4.2).
///
/// Trees are enumerated level-wise by leaf extension: every (k+1)-edge
/// supertree of a k-edge tree is a leaf extension (attaching an internal edge
/// to a tree would create a cycle), so leaf extensions with frequent edge
/// labels enumerate the complete frequent-tree lattice. Duplicates across
/// parents are merged via canonical strings. Support is counted with VF2
/// against the occurrence list of the parent (support is antitone).

/// A read-only view of (id, graph) pairs — the whole database or a delta.
using GraphView = std::vector<std::pair<GraphId, const Graph*>>;

/// View over all graphs of db, ascending id.
GraphView MakeView(const GraphDatabase& db);
/// View over a subset of ids (missing ids are skipped).
GraphView MakeView(const GraphDatabase& db, const std::vector<GraphId>& ids);

/// A mined tree with its occurrence list.
struct MinedTree {
  Graph tree;
  std::string canon;  ///< canonical tree string (unique per iso class)
  IdSet occurrences;  ///< ids of view graphs containing the tree

  double Support(size_t database_size) const {
    return database_size == 0
               ? 0.0
               : static_cast<double>(occurrences.size()) /
                     static_cast<double>(database_size);
  }
};

struct TreeMinerConfig {
  /// Minimum support as a fraction of the view size (sup_min).
  double min_support = 0.5;
  /// Maximum tree size in edges. The paper observes FCTs stay small; this
  /// caps the lattice exploration.
  size_t max_edges = 4;
  /// Safety valve on the total number of frequent trees mined.
  size_t max_trees = 20000;
  /// Optional execution budget (non-owning; nullptr = unlimited). Charged
  /// per leaf extension tried and inside the VF2 support counts. On
  /// exhaustion mining stops where it stands and returns the trees found so
  /// far — an anytime result: every returned tree met the support threshold
  /// on the occurrences actually counted, but the lattice (and individual
  /// occurrence lists) may be incomplete.
  ExecBudget* budget = nullptr;
  /// Optional task pool (non-owning; nullptr = serial). The lattice walk
  /// stays sequential; the VF2 support count of each extension fans out
  /// over its candidate graphs. The parallel path scans all candidates
  /// (no cannot-reach-threshold early abort), which only changes the
  /// discarded counts of rejected trees — accepted trees and their
  /// occurrence lists are identical at any thread count.
  TaskPool* pool = nullptr;
};

/// All frequent trees of the view (sizes 1..max_edges, in edges). Trees come
/// in level order: every k-edge tree precedes every (k+1)-edge tree.
std::vector<MinedTree> MineFrequentTrees(const GraphView& view,
                                         const TreeMinerConfig& config);

/// The VF2 support count shared by the miner and FCT maintenance: the
/// candidates for which `contains` proves containment (a probe cut short by
/// `budget` returns false). The serial path stops once the found plus the
/// remaining candidates cannot reach `min_count`. The parallel path (a
/// non-serial `pool`, called off its workers) probes every candidate and
/// merges verdicts in ascending-id order; the early abort only ever fires
/// for counts that end below `min_count`, so counts that reach it are
/// identical at any thread count. Budget exhaustion stops the count where it
/// stands: only proven containments are collected, so a budget-cut count
/// under-counts — it never inflates support, and below `min_count` it
/// proves nothing.
IdSet CountOccurrences(const IdSet& candidates, size_t min_count,
                       const std::function<bool(GraphId)>& contains,
                       ExecBudget* budget, TaskPool* pool);

/// Filters mined trees to *closed* trees: a frequent tree is closed iff no
/// one-edge-larger frequent supertree has the same support (Section 3.3).
/// Trees at the max_edges cap are treated as closed (their extensions are
/// outside the mined universe); this convention is applied consistently by
/// both from-scratch mining and incremental maintenance.
std::vector<MinedTree> FilterClosedTrees(const std::vector<MinedTree>& trees,
                                         size_t max_edges);

/// Occurrence lists of every distinct edge label pair in the view.
std::map<EdgeLabelPair, IdSet> EdgeOccurrences(const GraphView& view);

}  // namespace midas

#endif  // MIDAS_MINING_TREE_MINER_H_
