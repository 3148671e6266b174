#include "midas/mining/fct_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "midas/common/parallel.h"
#include "midas/common/rng.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/graph/subgraph_iso.h"
#include "test_util.h"

namespace midas {
namespace {

using testing_util::MakeToyDatabase;

FctSet::Config Config(double sup, size_t max_edges) {
  FctSet::Config c;
  c.sup_min = sup;
  c.max_edges = max_edges;
  return c;
}

// Canonical-string -> occurrence-size snapshot of the frequent closed trees.
std::map<std::string, size_t> Snapshot(const FctSet& set) {
  std::map<std::string, size_t> snap;
  for (const FctEntry* e : set.FrequentClosedTrees()) {
    snap[e->canon] = e->occurrences.size();
  }
  return snap;
}

TEST(FctSetTest, MineBasics) {
  GraphDatabase db = MakeToyDatabase();
  FctSet set = FctSet::Mine(db, Config(0.5, 3));
  EXPECT_EQ(set.database_size(), db.size());
  EXPECT_FALSE(set.FrequentClosedTrees().empty());
  // Pool holds the relaxed-threshold shadow entries too.
  EXPECT_GE(set.PoolEntries().size(), set.FrequentClosedTrees().size());
}

TEST(FctSetTest, FrequentClosedTreesSatisfyDefinition) {
  GraphDatabase db = MakeToyDatabase();
  FctSet set = FctSet::Mine(db, Config(0.25, 3));
  auto fcts = set.FrequentClosedTrees();
  auto pool = set.PoolEntries();
  for (const FctEntry* f : fcts) {
    EXPECT_GE(f->occurrences.size(), 2u);  // 0.25 * 8
    if (f->tree.NumEdges() >= 3) continue;  // cap convention
    for (const FctEntry* super : pool) {
      if (super->tree.NumEdges() != f->tree.NumEdges() + 1) continue;
      bool equal_occ = super->occurrences == f->occurrences;
      bool is_super = ContainsSubgraph(f->tree, super->tree);
      EXPECT_FALSE(equal_occ && is_super)
          << f->canon << " has equal-support supertree " << super->canon;
    }
  }
}

TEST(FctSetTest, EdgeUniversesPartitionByFrequency) {
  GraphDatabase db = MakeToyDatabase();
  FctSet set = FctSet::Mine(db, Config(0.5, 3));
  std::set<uint64_t> freq;
  for (const auto& [lp, occ] : set.FrequentEdges()) {
    EXPECT_GE(occ->size(), 4u);  // 0.5 * 8
    freq.insert(lp.Packed());
  }
  for (const auto& [lp, occ] : set.InfrequentEdges()) {
    EXPECT_LT(occ->size(), 4u);
    EXPECT_EQ(freq.count(lp.Packed()), 0u);
  }
  EXPECT_EQ(set.FrequentEdges().size() + set.InfrequentEdges().size(),
            set.edge_occurrences().size());
}

TEST(FctSetTest, MaintainAddMatchesScratch) {
  GraphDatabase db = MakeToyDatabase();
  FctSet maintained = FctSet::Mine(db, Config(0.5, 3));

  // Add three more C-O-C heavy graphs.
  LabelDictionary& d = db.labels();
  BatchUpdate delta;
  delta.insertions.push_back(testing_util::Path(d, {"C", "O", "C", "S"}));
  delta.insertions.push_back(testing_util::Path(d, {"C", "O", "C"}));
  delta.insertions.push_back(
      testing_util::Star(d, "C", {"O", "O", "S"}));
  std::vector<GraphId> added = db.ApplyBatch(delta);
  maintained.MaintainAdd(db, added);

  FctSet scratch = FctSet::Mine(db, Config(0.5, 3));
  EXPECT_EQ(Snapshot(maintained), Snapshot(scratch));
  EXPECT_EQ(maintained.database_size(), scratch.database_size());
}

TEST(FctSetTest, MaintainDeleteMatchesScratch) {
  GraphDatabase db = MakeToyDatabase();
  FctSet maintained = FctSet::Mine(db, Config(0.5, 3));

  std::vector<GraphId> removed = {1, 6};
  for (GraphId id : removed) db.Remove(id);
  maintained.MaintainDelete(removed, db.size());

  FctSet scratch = FctSet::Mine(db, Config(0.5, 3));
  EXPECT_EQ(Snapshot(maintained), Snapshot(scratch));
}

// Pool contract: MaintainDelete erases occurrences and admits no tree. A
// tree whose support reaches t = sup_min/2 only because deletions shrank
// |D| is missing from the maintained pool though a fresh Mine holds it; the
// FCT set is unaffected.
TEST(FctSetTest, DeletionsThatLowerThePoolThresholdAdmitNoTree) {
  GraphDatabase db;
  LabelDictionary& d = db.labels();
  std::vector<GraphId> backbone;
  for (int i = 0; i < 16; ++i) {
    backbone.push_back(db.Insert(testing_util::Path(d, {"C", "O", "C"})));
  }
  for (int i = 0; i < 4; ++i) db.Insert(testing_util::Path(d, {"N", "S"}));
  const Graph rare = testing_util::Path(d, {"N", "S"});
  auto holds_rare = [&rare](const FctSet& set) {
    for (const FctEntry* e : set.PoolEntries()) {
      if (AreIsomorphic(e->tree, rare)) return true;
    }
    return false;
  };

  // |D| = 20: t = 5, so the N-S tree (support 4) is outside the pool.
  FctSet maintained = FctSet::Mine(db, Config(0.5, 3));
  EXPECT_FALSE(holds_rare(maintained));

  // Delete 5 graphs without it: |D| = 15, t = 4, and its support is 4.
  std::vector<GraphId> removed(backbone.begin(), backbone.begin() + 5);
  for (GraphId id : removed) db.Remove(id);
  maintained.MaintainDelete(removed, db.size());
  FctSet scratch = FctSet::Mine(db, Config(0.5, 3));

  EXPECT_FALSE(holds_rare(maintained));
  EXPECT_TRUE(holds_rare(scratch));
  EXPECT_LT(maintained.PoolEntries().size(), scratch.PoolEntries().size());
  EXPECT_FALSE(Snapshot(maintained).empty());
  EXPECT_EQ(Snapshot(maintained), Snapshot(scratch));
}

TEST(FctSetTest, MaintainEdgeOccurrences) {
  GraphDatabase db = MakeToyDatabase();
  FctSet set = FctSet::Mine(db, Config(0.5, 3));
  size_t edges_before = set.edge_occurrences().size();

  LabelDictionary& d = db.labels();
  BatchUpdate delta;
  delta.insertions.push_back(testing_util::Path(d, {"P", "P"}));  // new label
  std::vector<GraphId> added = db.ApplyBatch(delta);
  set.MaintainAdd(db, added);
  EXPECT_EQ(set.edge_occurrences().size(), edges_before + 1);

  db.Remove(added[0]);
  set.MaintainDelete(added, db.size());
  EXPECT_EQ(set.edge_occurrences().size(), edges_before);
}

// Lemma 3.4 flavored property: one maintenance round (mixed adds + deletes)
// on a synthetic molecule database reproduces from-scratch mining exactly.
class FctMaintenanceEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FctMaintenanceEquivalenceTest, OneRoundEquivalence) {
  MoleculeGenerator gen(10'000 + GetParam());
  MoleculeGenConfig cfg = MoleculeGenerator::EmolLike(40);
  GraphDatabase db = gen.Generate(cfg);

  FctSet maintained = FctSet::Mine(db, Config(0.4, 3));

  // Mixed batch: delete 5, add 10 (half from a new family).
  BatchUpdate deletions = gen.GenerateDeletions(db, 5);
  for (GraphId id : deletions.deletions) db.Remove(id);
  maintained.MaintainDelete(deletions.deletions, db.size());

  BatchUpdate additions =
      gen.GenerateAdditions(db, cfg, 10, GetParam() % 2 == 0);
  std::vector<GraphId> added = db.ApplyBatch(additions);
  maintained.MaintainAdd(db, added);

  FctSet scratch = FctSet::Mine(db, Config(0.4, 3));
  EXPECT_EQ(Snapshot(maintained), Snapshot(scratch)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Random, FctMaintenanceEquivalenceTest,
                         ::testing::Range(0, 6));

// Multi-round oracle for MaintainAdd's threshold-pruned delta count: a seeded
// stream of insert/delete rounds, each checked against brute-force VF2 over
// the whole database.
struct PoolState {
  IdSet occurrences;
  bool frequent = false;
  bool closed = false;
  bool operator==(const PoolState&) const = default;
};
using PoolMap = std::map<std::string, PoolState>;

PoolMap PoolOf(const FctSet& set) {
  PoolMap pool;
  for (const FctEntry* e : set.PoolEntries()) {
    pool[e->canon] = {e->occurrences, e->frequent, e->closed};
  }
  return pool;
}

IdSet GraphsContaining(const Graph& tree, const GraphDatabase& db) {
  IdSet occ;
  for (const auto& [id, g] : db.graphs()) {
    if (ContainsSubgraph(tree, g)) occ.Insert(id);
  }
  return occ;
}

size_t CountAt(double fraction, size_t db_size) {
  return std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(fraction * static_cast<double>(db_size) - 1e-9)));
}

// True iff some one-edge leaf extension of `tree` is contained in every graph
// of `occ` (its occurrence set can only shrink, so that means "equal").
bool HasEqualSupportExtension(const Graph& tree, const IdSet& occ,
                              const FctSet& set, const GraphDatabase& db) {
  for (VertexId v = 0; v < tree.NumVertices(); ++v) {
    const Label a = tree.label(v);
    for (const auto& [lp, lp_occ] : set.edge_occurrences()) {
      if (lp.first != a && lp.second != a) continue;
      Graph ext = tree;
      ext.AddEdge(v, ext.AddVertex(lp.first == a ? lp.second : lp.first));
      bool everywhere = true;
      for (GraphId id : occ) {
        if (!ContainsSubgraph(ext, *db.Find(id))) {
          everywhere = false;
          break;
        }
      }
      if (everywhere) return true;
    }
  }
  return false;
}

// Runs the stream with a `threads`-wide task pool and returns the pool after
// every round; with `check` set, verifies every round against the oracle.
std::vector<PoolMap> RunOracleStream(int threads, bool check) {
  constexpr double kSup = 0.4;
  constexpr size_t kMaxEdges = 3;
  constexpr int kRounds = 32;
  MoleculeGenerator gen(20'260);
  MoleculeGenConfig cfg = MoleculeGenerator::EmolLike(40);
  GraphDatabase db = gen.Generate(cfg);
  TaskPool pool(threads);
  FctSet set = FctSet::Mine(db, Config(kSup, kMaxEdges), &pool);
  Rng rng(7);
  std::vector<PoolMap> history;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::map<std::string, Graph> reachable;  // previous pool + delta trees
    for (const FctEntry* e : set.PoolEntries()) {
      reachable.emplace(e->canon, e->tree);
    }

    BatchUpdate deletions =
        gen.GenerateDeletions(db, static_cast<size_t>(rng.UniformInt(0, 4)));
    for (GraphId id : deletions.deletions) db.Remove(id);
    set.MaintainDelete(deletions.deletions, db.size());
    BatchUpdate additions = gen.GenerateAdditions(
        db, cfg, static_cast<size_t>(rng.UniformInt(1, 8)),
        /*new_family=*/rng.Bernoulli(0.4));
    std::vector<GraphId> added = db.ApplyBatch(additions);
    set.MaintainAdd(db, added, nullptr, &pool);
    history.push_back(PoolOf(set));
    if (!check) continue;

    TreeMinerConfig miner;
    miner.min_support = kSup / 2.0;
    miner.max_edges = kMaxEdges;
    for (MinedTree& mt : MineFrequentTrees(MakeView(db, added), miner)) {
      reachable.emplace(mt.canon, std::move(mt.tree));
    }
    const size_t pool_count = CountAt(kSup / 2.0, db.size());
    const size_t freq_count = CountAt(kSup, db.size());
    std::set<std::string> present;
    for (const FctEntry* e : set.PoolEntries()) {
      present.insert(e->canon);
      EXPECT_EQ(e->occurrences, GraphsContaining(e->tree, db)) << e->canon;
      EXPECT_GE(e->occurrences.size(), pool_count) << e->canon;
      EXPECT_EQ(reachable.count(e->canon), 1u)
          << e->canon << " is neither an old pool tree nor a delta tree";
      EXPECT_EQ(e->frequent, e->occurrences.size() >= freq_count) << e->canon;
      bool closed = e->tree.NumEdges() >= kMaxEdges ||
                    !HasEqualSupportExtension(e->tree, e->occurrences, set, db);
      EXPECT_EQ(e->closed, closed) << e->canon;
    }
    for (const auto& [canon, tree] : reachable) {
      if (GraphsContaining(tree, db).size() >= pool_count) {
        EXPECT_EQ(present.count(canon), 1u) << canon << " is missing";
      }
    }
    // The FCT set matches a from-scratch mine every round. The shadow pool
    // need not: deletions that shrink the database can lift a tree outside
    // the pool to t, and MaintainDelete admits nothing.
    EXPECT_EQ(Snapshot(set),
              Snapshot(FctSet::Mine(db, Config(kSup, kMaxEdges))));
  }
  return history;
}

TEST(FctMaintenanceOracleTest, SerialStreamMatchesOracle) {
  RunOracleStream(1, /*check=*/true);
}

TEST(FctMaintenanceOracleTest, FourThreadStreamMatchesOracleAndSerial) {
  std::vector<PoolMap> parallel = RunOracleStream(4, /*check=*/true);
  std::vector<PoolMap> serial = RunOracleStream(1, /*check=*/false);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_TRUE(parallel[r] == serial[r]) << "pools differ after round " << r;
  }
}

TEST(FctSetTest, MemoryReportingIsPositive) {
  GraphDatabase db = MakeToyDatabase();
  FctSet set = FctSet::Mine(db, Config(0.5, 3));
  EXPECT_GT(set.MemoryBytes(), sizeof(FctSet));
}

}  // namespace
}  // namespace midas
