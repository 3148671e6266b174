#ifndef MIDAS_GRAPH_COMPUTE_CACHE_H_
#define MIDAS_GRAPH_COMPUTE_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "midas/graph/graph.h"
#include "midas/graph/graph_database.h"

namespace midas {

/// Exact content code of a labeled graph: vertex labels in index order plus
/// the sorted edge list, serialized to a compact binary string. Code
/// equality means *identical representation* (labels and adjacency),
/// strictly stronger than isomorphism — two isomorphic graphs with
/// different vertex orders get different codes, so a memo keyed by content
/// codes can miss but can never conflate distinct graphs. (WL signatures,
/// by contrast, are necessary-but-not-sufficient and would be unsound
/// here.) Cost is O(V + E), negligible next to a VF2 or GED call.
std::string GraphContentCode(const Graph& g);

/// Sharded, bounded LRU memo cache for the two expensive exact kernels the
/// maintenance loops recompute across rounds:
///  - GED: (content code, content code) -> distance. Pattern sets change by
///    at most one pattern per swap scan, so most pairwise distances in
///    RefreshDiversityAndScores and the swap distance matrix repeat
///    verbatim round after round.
///  - Containment: (pattern code, db epoch, graph id) -> verdict. Data
///    graphs are immutable and ids are never reused within a database
///    instance, so a verdict stays valid for that instance's lifetime; the
///    epoch (GraphDatabase::epoch()) changes exactly when the invariant
///    could break (copy, restore, id resurrection), which is the cache's
///    generation-based invalidation.
///
/// Only *exact* results may be stored: callers must skip Store* for
/// budget-truncated searches (a truncated "not found" means "not found
/// within budget", not "absent"). Lookups are therefore sound in budgeted
/// contexts too — an exact cached answer is strictly better information.
///
/// Concurrency: 16 shards, each a mutex + hash map + intrusive LRU list;
/// TaskPool workers probing different keys rarely collide on a shard.
/// Hits/misses/evictions go to `midas_cache_{hit,miss,evict}_total` on the
/// current MetricsRegistry (and to internal counters for tests).
class ComputeCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// `capacity` bounds the total entry count across all shards (split
  /// evenly); each of the two key spaces lives in the same shard set.
  explicit ComputeCache(size_t capacity = 1 << 16);
  ~ComputeCache();  // out of line: Shard is incomplete here

  ComputeCache(const ComputeCache&) = delete;
  ComputeCache& operator=(const ComputeCache&) = delete;

  /// GED memo. Symmetric: the two codes are ordered internally. `salt`
  /// captures every input the stored value depends on beyond the two graphs,
  /// so values computed under different auxiliary state never alias:
  /// HybridGed salts a tightened bound with the digest of the feature trees
  /// that tighten it, and an exact distance, which depends on the two graphs
  /// alone, with one fixed salt that outlives FCT changes.
  bool LookupGed(uint64_t salt, const std::string& code_a,
                 const std::string& code_b, int* out);
  void StoreGed(uint64_t salt, const std::string& code_a,
                const std::string& code_b, int value);

  /// Containment memo for pattern-vs-data-graph checks.
  bool LookupContainment(const std::string& pattern_code, uint64_t db_epoch,
                         GraphId graph_id, bool* out);
  void StoreContainment(const std::string& pattern_code, uint64_t db_epoch,
                        GraphId graph_id, bool contains);

  /// Drops every entry (stats are kept).
  void Clear();

  /// Evicts LRU entries until at most `max_entries` remain across all
  /// shards (split evenly). The degradation ladder's trim-cache rung; the
  /// evicted entries count toward `midas_cache_evict_total`. Does not
  /// change the cache's capacity — it refills normally afterwards.
  void TrimTo(size_t max_entries);

  /// Approximate resident bytes across all shards (keys + LRU/index node
  /// overhead) — the memory watchdog's "cache" component.
  size_t ApproxBytes() const;

  Stats stats() const;
  size_t size() const;

  /// The process-wide cache the engine hot loops use. Shared across engines
  /// on purpose: values are exact, so cross-engine hits are always correct,
  /// and the containment epoch keeps instances apart.
  static ComputeCache& Global();

 private:
  struct Shard;

  bool Lookup(const std::string& key, int64_t* out);
  void Store(const std::string& key, int64_t value);
  Shard& ShardFor(const std::string& key);

  static constexpr size_t kShards = 16;
  std::array<std::unique_ptr<Shard>, kShards> shards_;
  size_t per_shard_capacity_;
};

}  // namespace midas

#endif  // MIDAS_GRAPH_COMPUTE_CACHE_H_
