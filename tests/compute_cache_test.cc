#include "midas/graph/compute_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "midas/graph/ged.h"
#include "midas/graph/graph_database.h"
#include "midas/index/pf_matrix.h"
#include "midas/obs/metrics.h"
#include "midas/select/pattern.h"
#include "test_util.h"

namespace midas {
namespace {

using testing_util::MakeGraph;
using testing_util::Path;

TEST(GraphContentCodeTest, EqualRepresentationsShareOneCode) {
  LabelDictionary d;
  Graph a = Path(d, {"C", "O", "C"});
  Graph b = Path(d, {"C", "O", "C"});
  EXPECT_EQ(GraphContentCode(a), GraphContentCode(b));
}

TEST(GraphContentCodeTest, LabelAndEdgeDifferencesChangeTheCode) {
  LabelDictionary d;
  Graph base = Path(d, {"C", "O", "C"});
  Graph other_label = Path(d, {"C", "O", "N"});
  Graph other_edges = MakeGraph(d, {"C", "O", "C"}, {{0, 1}, {0, 2}});
  EXPECT_NE(GraphContentCode(base), GraphContentCode(other_label));
  EXPECT_NE(GraphContentCode(base), GraphContentCode(other_edges));
}

TEST(GraphContentCodeTest, CodeIsRepresentationNotIsomorphismClass) {
  LabelDictionary d;
  // Same path C-O-N written in two vertex orders: isomorphic, but distinct
  // codes. The memo may miss across the two; it must never conflate.
  Graph a = MakeGraph(d, {"C", "O", "N"}, {{0, 1}, {1, 2}});
  Graph b = MakeGraph(d, {"N", "O", "C"}, {{0, 1}, {1, 2}});
  EXPECT_NE(GraphContentCode(a), GraphContentCode(b));
}

TEST(ComputeCacheTest, GedRoundTripIsSymmetric) {
  ComputeCache cache(64);
  LabelDictionary d;
  std::string ca = GraphContentCode(Path(d, {"C", "O"}));
  std::string cb = GraphContentCode(Path(d, {"C", "O", "C"}));
  int out = -1;
  EXPECT_FALSE(cache.LookupGed(1, ca, cb, &out));
  cache.StoreGed(1, ca, cb, 3);
  ASSERT_TRUE(cache.LookupGed(1, ca, cb, &out));
  EXPECT_EQ(out, 3);
  // Symmetric: the argument order must not matter.
  out = -1;
  ASSERT_TRUE(cache.LookupGed(1, cb, ca, &out));
  EXPECT_EQ(out, 3);
}

TEST(ComputeCacheTest, GedSaltSeparatesEstimatorGenerations) {
  ComputeCache cache(64);
  LabelDictionary d;
  std::string ca = GraphContentCode(Path(d, {"C", "O"}));
  std::string cb = GraphContentCode(Path(d, {"C", "S"}));
  cache.StoreGed(7, ca, cb, 2);
  int out = -1;
  // Same pair under a different feature-tree digest: distinct entry.
  EXPECT_FALSE(cache.LookupGed(8, ca, cb, &out));
  cache.StoreGed(8, ca, cb, 5);
  ASSERT_TRUE(cache.LookupGed(7, ca, cb, &out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(cache.LookupGed(8, ca, cb, &out));
  EXPECT_EQ(out, 5);
}

// HybridGed keys exact distances without the feature digest: a new FCT
// generation reuses them, while its tightened bounds are recomputed.
TEST(ComputeCacheTest, ExactGedEntriesSurviveFeatureDigestChanges) {
  LabelDictionary d;
  std::vector<Graph> old_features = {Path(d, {"C", "O"})};
  std::vector<Graph> new_features = {Path(d, {"C", "O"}), Path(d, {"C", "C"})};
  ASSERT_NE(GedFeatureDigest(old_features), GedFeatureDigest(new_features));
  GedEstimator first = HybridGed(old_features);
  GedEstimator second = HybridGed(new_features);

  // Near-ties (GED_l <= 1) at and just above the exact-vertex threshold.
  std::vector<std::string> labels(kGedExactMaxVertices, "C");
  Graph small_a = Path(d, labels);
  labels.back() = "O";
  Graph small_b = Path(d, labels);
  labels.assign(kGedExactMaxVertices + 1, "C");
  Graph big_a = Path(d, labels);
  labels.back() = "O";
  Graph big_b = Path(d, labels);
  ASSERT_LE(GedLowerBound(small_a, small_b), 1);
  ASSERT_LE(GedLowerBound(big_a, big_b), 1);

  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  auto exact_calls = [&reg] {
    return reg.GetCounter("midas_graph_ged_exact_calls_total")->Value();
  };
  ComputeCache& cache = ComputeCache::Global();
  cache.Clear();

  const double small_ged = first(small_a, small_b);
  first(big_a, big_b);
  EXPECT_EQ(exact_calls(), 1u);  // only the small pair is solved exactly

  const ComputeCache::Stats before = cache.stats();
  EXPECT_EQ(second(small_a, small_b), small_ged);
  const ComputeCache::Stats after_small = cache.stats();
  EXPECT_EQ(after_small.hits, before.hits + 1);
  EXPECT_EQ(after_small.misses, before.misses);
  EXPECT_EQ(exact_calls(), 1u);  // served from the first estimator's entry

  second(big_a, big_b);
  const ComputeCache::Stats after_big = cache.stats();
  EXPECT_EQ(after_big.misses, after_small.misses + 1);  // new digest: recompute
  EXPECT_EQ(after_big.hits, after_small.hits);
  EXPECT_EQ(exact_calls(), 1u);
}

TEST(ComputeCacheTest, ContainmentKeyedByEpochAndId) {
  ComputeCache cache(64);
  LabelDictionary d;
  std::string pc = GraphContentCode(Path(d, {"C", "O"}));
  cache.StoreContainment(pc, /*db_epoch=*/1, /*graph_id=*/7, true);
  bool out = false;
  ASSERT_TRUE(cache.LookupContainment(pc, 1, 7, &out));
  EXPECT_TRUE(out);
  // Other epoch or other graph id: miss.
  EXPECT_FALSE(cache.LookupContainment(pc, 2, 7, &out));
  EXPECT_FALSE(cache.LookupContainment(pc, 1, 8, &out));
  // Negative verdicts round-trip too.
  cache.StoreContainment(pc, 1, 8, false);
  out = true;
  ASSERT_TRUE(cache.LookupContainment(pc, 1, 8, &out));
  EXPECT_FALSE(out);
}

TEST(ComputeCacheTest, EvictsLeastRecentlyUsedAndCountsStats) {
  // Tiny cache (capacity clamps to 8 entries per shard = 128 total);
  // storing far more distinct keys than that must evict.
  ComputeCache cache(16);
  LabelDictionary d;
  std::string pc = GraphContentCode(Path(d, {"C"}));
  constexpr uint32_t kKeys = 2048;
  for (uint32_t id = 0; id < kKeys; ++id) {
    cache.StoreContainment(pc, 1, id, true);
  }
  EXPECT_LE(cache.size(), 128u);
  ComputeCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);

  bool out = false;
  uint64_t misses_before = stats.misses;
  EXPECT_FALSE(cache.LookupContainment(pc, 1, kKeys + 1, &out));  // never in
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  // The most recent key in its shard is LRU-protected.
  ASSERT_TRUE(cache.LookupContainment(pc, 1, kKeys - 1, &out));
  EXPECT_EQ(cache.stats().hits, stats.hits + 1);
}

TEST(ComputeCacheTest, ClearDropsEntriesKeepsStats) {
  ComputeCache cache(64);
  LabelDictionary d;
  std::string pc = GraphContentCode(Path(d, {"C", "O"}));
  cache.StoreContainment(pc, 1, 1, true);
  bool out = false;
  ASSERT_TRUE(cache.LookupContainment(pc, 1, 1, &out));
  uint64_t hits = cache.stats().hits;
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.LookupContainment(pc, 1, 1, &out));
  EXPECT_EQ(cache.stats().hits, hits);
}

TEST(GraphDatabaseEpochTest, CopyGetsFreshEpochMoveKeepsIt) {
  GraphDatabase db;
  LabelDictionary& d = db.labels();
  db.Insert(Path(d, {"C", "O"}));
  uint64_t original = db.epoch();

  GraphDatabase copy = db;
  EXPECT_NE(copy.epoch(), original);  // diverging history → new generation

  GraphDatabase moved = std::move(copy);
  uint64_t copy_epoch = moved.epoch();
  EXPECT_NE(copy_epoch, original);
  GraphDatabase moved_again = std::move(moved);
  EXPECT_EQ(moved_again.epoch(), copy_epoch);  // same database continuing
}

TEST(GraphDatabaseEpochTest, PlainMutationsKeepEpochResurrectionBumpsIt) {
  GraphDatabase db;
  LabelDictionary& d = db.labels();
  GraphId id = db.Insert(Path(d, {"C", "O"}));
  uint64_t before = db.epoch();

  db.Insert(Path(d, {"C", "S"}));
  ASSERT_TRUE(db.Remove(id));
  EXPECT_EQ(db.epoch(), before);  // ids were never reused so far

  // Re-inserting a previously used id breaks the id-stability invariant the
  // containment cache relies on; the epoch must move.
  ASSERT_TRUE(db.InsertWithId(id, Path(d, {"N", "O"})));
  EXPECT_NE(db.epoch(), before);
}

}  // namespace
}  // namespace midas
