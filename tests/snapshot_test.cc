#include "midas/maintain/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "midas/common/failpoint.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/graph/graph_io.h"
#include "midas/graph/subgraph_iso.h"
#include "midas/maintain/journal.h"
#include "midas/maintain/verify.h"
#include "midas/obs/metrics.h"
#include "midas/select/pattern_io.h"

namespace midas {
namespace {

MidasConfig SnapConfig() {
  MidasConfig cfg;
  cfg.fct.sup_min = 0.45;
  cfg.fct.max_edges = 3;
  cfg.cluster.num_coarse = 3;
  cfg.cluster.max_cluster_size = 22;
  cfg.budget = {3, 7, 9};
  cfg.walk = {35, 11};
  cfg.epsilon = 0.0075;
  cfg.kappa = 0.15;
  cfg.lambda = 0.2;
  cfg.sample_cap = 0;
  cfg.seed = 1234;
  return cfg;
}

TEST(ConfigIoTest, RoundTripPreservesEveryField) {
  // Every persisted field off its default, doubles with more significant
  // digits than an ostream prints by default, compared exactly.
  MidasConfig cfg;
  cfg.fct = {0.1234567, 5, 100};
  cfg.cluster = {3, 22, 5, 7};
  cfg.budget = {4, 9, 11};
  cfg.walk = {35, 11};
  cfg.epsilon = 1.0 / 3.0;
  cfg.distance_measure = DistributionDistance::kHellinger;
  cfg.kappa = 0.15000000000000002;
  cfg.lambda = 0.2;
  cfg.swap.ks_alpha = 0.01;
  cfg.swap.max_scans = 5;
  cfg.swap.use_swap_alpha_schedule = false;
  cfg.swap.sigma0 = 0.3;
  cfg.swap.log_boost = 6.0;
  cfg.sample_cap = 123;
  cfg.pcp_starts = 4;
  cfg.max_candidates = 77;
  cfg.seed = 1234;
  cfg.small_panel = {2, 3};
  cfg.history_capacity = 99;
  cfg.round_deadline_ms = 37.5e-3;
  cfg.round_step_limit = 123456;

  std::ostringstream out;
  WriteConfig(cfg, out);
  MidasConfig restored;
  std::istringstream in(out.str());
  ASSERT_TRUE(ReadConfig(in, &restored));

  EXPECT_EQ(restored.fct.sup_min, cfg.fct.sup_min);
  EXPECT_EQ(restored.fct.max_edges, cfg.fct.max_edges);
  EXPECT_EQ(restored.fct.max_trees, cfg.fct.max_trees);
  EXPECT_EQ(restored.cluster.num_coarse, cfg.cluster.num_coarse);
  EXPECT_EQ(restored.cluster.max_cluster_size,
            cfg.cluster.max_cluster_size);
  EXPECT_EQ(restored.cluster.kmeans_iterations,
            cfg.cluster.kmeans_iterations);
  EXPECT_EQ(restored.cluster.mccs_restarts, cfg.cluster.mccs_restarts);
  EXPECT_EQ(restored.budget.eta_min, cfg.budget.eta_min);
  EXPECT_EQ(restored.budget.eta_max, cfg.budget.eta_max);
  EXPECT_EQ(restored.budget.gamma, cfg.budget.gamma);
  EXPECT_EQ(restored.walk.num_walks, cfg.walk.num_walks);
  EXPECT_EQ(restored.walk.walk_length, cfg.walk.walk_length);
  EXPECT_EQ(restored.epsilon, cfg.epsilon);
  EXPECT_EQ(restored.distance_measure, cfg.distance_measure);
  EXPECT_EQ(restored.kappa, cfg.kappa);
  EXPECT_EQ(restored.lambda, cfg.lambda);
  EXPECT_EQ(restored.swap.ks_alpha, cfg.swap.ks_alpha);
  EXPECT_EQ(restored.swap.max_scans, cfg.swap.max_scans);
  EXPECT_EQ(restored.swap.use_swap_alpha_schedule,
            cfg.swap.use_swap_alpha_schedule);
  EXPECT_EQ(restored.swap.sigma0, cfg.swap.sigma0);
  EXPECT_EQ(restored.swap.log_boost, cfg.swap.log_boost);
  EXPECT_EQ(restored.sample_cap, cfg.sample_cap);
  EXPECT_EQ(restored.pcp_starts, cfg.pcp_starts);
  EXPECT_EQ(restored.max_candidates, cfg.max_candidates);
  EXPECT_EQ(restored.seed, cfg.seed);
  EXPECT_EQ(restored.small_panel.max_edges_patterns,
            cfg.small_panel.max_edges_patterns);
  EXPECT_EQ(restored.small_panel.max_wedge_patterns,
            cfg.small_panel.max_wedge_patterns);
  EXPECT_EQ(restored.history_capacity, cfg.history_capacity);
  EXPECT_EQ(restored.round_deadline_ms, cfg.round_deadline_ms);
  EXPECT_EQ(restored.round_step_limit, cfg.round_step_limit);
}

TEST(ConfigIoTest, UnknownKeysIgnoredMalformedRejected) {
  MidasConfig cfg;
  std::istringstream ok("future_knob=17\nseed=9\n# comment\n\n");
  EXPECT_TRUE(ReadConfig(ok, &cfg));
  EXPECT_EQ(cfg.seed, 9u);

  std::istringstream bad("this line has no equals sign\n");
  EXPECT_FALSE(ReadConfig(bad, &cfg));
  std::istringstream bad2("seed=not_a_number\n");
  EXPECT_FALSE(ReadConfig(bad2, &cfg));
}

TEST(SnapshotTest, SaveRestoreRoundTrip) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "midas_snapshot_test")
          .string();
  std::filesystem::remove_all(dir);

  MoleculeGenerator gen(777);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(30);
  MidasEngine engine(gen.Generate(data), SnapConfig());
  engine.Initialize();
  GraphDatabase copy = engine.db();
  BatchUpdate delta = gen.GenerateAdditions(copy, data, 10, true);
  engine.ApplyUpdate(delta);

  ASSERT_TRUE(SaveSnapshot(engine, dir));
  std::unique_ptr<MidasEngine> restored = RestoreEngine(dir);
  ASSERT_NE(restored, nullptr);

  // Same database size and same panel (up to isomorphism, in order).
  EXPECT_EQ(restored->db().size(), engine.db().size());
  ASSERT_EQ(restored->patterns().size(), engine.patterns().size());
  // The restored engine's dictionary is interned in file order, so numeric
  // labels differ; compare after remapping by name.
  auto it1 = engine.patterns().patterns().begin();
  auto it2 = restored->patterns().patterns().begin();
  for (; it1 != engine.patterns().patterns().end(); ++it1, ++it2) {
    Graph original_in_restored_labels = RemapLabels(
        it1->second.graph, engine.db().labels(), restored->labels());
    EXPECT_TRUE(
        AreIsomorphic(original_in_restored_labels, it2->second.graph));
  }
  EXPECT_DOUBLE_EQ(restored->config().epsilon, engine.config().epsilon);

  // The restored engine keeps working.
  GraphDatabase copy2 = restored->db();
  BatchUpdate delta2 = gen.GenerateAdditions(copy2, data, 8, false);
  restored->ApplyUpdate(delta2);
  EXPECT_EQ(restored->db().size(), engine.db().size() + 8);

  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, RestoreFromMissingDirectoryFails) {
  EXPECT_EQ(RestoreEngine("/nonexistent/midas/snapshot"), nullptr);
  std::string error;
  EXPECT_EQ(RestoreEngine("/nonexistent/midas/snapshot", &error), nullptr);
  EXPECT_NE(error.find("no snapshot found"), std::string::npos) << error;
}

// Scratch fixture: one saved snapshot in a temp dir.
struct SavedSnapshot {
  explicit SavedSnapshot(const char* name, size_t graphs = 25)
      : dir((std::filesystem::temp_directory_path() / name).string()),
        gen(777),
        data(MoleculeGenerator::EmolLike(graphs)),
        engine(gen.Generate(data), SnapConfig()) {
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + ".tmp");
    std::filesystem::remove_all(dir + ".old");
    engine.Initialize();
  }
  ~SavedSnapshot() {
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + ".tmp");
    std::filesystem::remove_all(dir + ".old");
  }

  std::string dir;
  MoleculeGenerator gen;
  MoleculeGenConfig data;
  MidasEngine engine;
};

TEST(SnapshotTest, SaveReportsErrorOnUnwritableTarget) {
  SavedSnapshot fx("midas_snap_unwritable");
  // Block the path with a regular file: create_directories must fail.
  std::string blocker = fx.dir + "_blocker";
  { std::ofstream(blocker) << "not a directory"; }
  std::string error;
  EXPECT_FALSE(SaveSnapshot(fx.engine, blocker + "/snap", &error));
  EXPECT_NE(error.find("create"), std::string::npos) << error;
  std::filesystem::remove(blocker);
}

TEST(SnapshotTest, ChecksumMismatchRefusedWithDiagnostic) {
  SavedSnapshot fx("midas_snap_crc");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  // Corrupt one byte of the database file (bit rot / partial overwrite).
  std::ofstream(fx.dir + "/database.gspan", std::ios::app) << "x";
  EXPECT_EQ(RestoreEngine(fx.dir, &error), nullptr);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST(SnapshotTest, MissingFileRefusedWithDiagnostic) {
  SavedSnapshot fx("midas_snap_missing");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  std::filesystem::remove(fx.dir + "/patterns.gspan");
  EXPECT_EQ(RestoreEngine(fx.dir, &error), nullptr);
  EXPECT_NE(error.find("patterns.gspan"), std::string::npos) << error;
}

TEST(SnapshotTest, InvalidRestoredConfigRefused) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "midas_snap_badcfg")
          .string();
  std::filesystem::remove_all(dir);
  MidasConfig bad = SnapConfig();
  bad.budget.eta_min = 2;  // violates Definition 3.1 — a hard error
  MoleculeGenerator gen(778);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(5);
  MidasEngine engine(gen.Generate(data), bad);  // never Initialize()d
  std::string error;
  ASSERT_TRUE(SaveSnapshot(engine, dir, &error)) << error;
  EXPECT_EQ(RestoreEngine(dir, &error), nullptr);
  EXPECT_NE(error.find("eta_min"), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, RestoreFallsBackToTmpAndOld) {
  SavedSnapshot fx("midas_snap_fallback");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  size_t expected = fx.engine.db().size();

  // Crash right before the rename: only <dir>.tmp exists.
  std::filesystem::rename(fx.dir, fx.dir + ".tmp");
  std::unique_ptr<MidasEngine> from_tmp = RestoreEngine(fx.dir, &error);
  ASSERT_NE(from_tmp, nullptr) << error;
  EXPECT_EQ(from_tmp->db().size(), expected);

  // Crash mid-swap: only <dir>.old exists.
  std::filesystem::rename(fx.dir + ".tmp", fx.dir + ".old");
  std::unique_ptr<MidasEngine> from_old = RestoreEngine(fx.dir, &error);
  ASSERT_NE(from_old, nullptr) << error;
  EXPECT_EQ(from_old->db().size(), expected);
}

TEST(SnapshotTest, SnapshotCarriesRoundSeqAndIdAllocator) {
  SavedSnapshot fx("midas_snap_seq");
  BatchUpdate delta = [&] {
    GraphDatabase copy = fx.engine.db();
    return fx.gen.GenerateAdditions(copy, fx.data, 6, true);
  }();
  fx.engine.ApplyUpdate(delta);
  // Punch a hole above the largest live id so next_id() != max_id + 1.
  std::vector<GraphId> ids = fx.engine.db().Ids();
  BatchUpdate del;
  del.deletions = {ids.back()};
  fx.engine.ApplyUpdate(del);

  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  std::unique_ptr<MidasEngine> restored = RestoreEngine(fx.dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->round_seq(), fx.engine.round_seq());
  EXPECT_EQ(restored->db().next_id(), fx.engine.db().next_id());
}

TEST(SnapshotTest, SnapshotWithoutLedgerRestoresPanelAsRestoredBirths) {
  SavedSnapshot fx("midas_snap_no_ledger");
  BatchUpdate delta = [&] {
    GraphDatabase copy = fx.engine.db();
    return fx.gen.GenerateAdditions(copy, fx.data, 6, true);
  }();
  fx.engine.ApplyUpdate(delta);
  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;

  // A snapshot from before the ledger existed: no lineage.ledger, and no
  // MANIFEST entry for it.
  std::filesystem::remove(fx.dir + "/lineage.ledger");
  std::string manifest;
  {
    std::ifstream in(fx.dir + "/MANIFEST");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("file=lineage.ledger=", 0) != 0) manifest += line + "\n";
    }
  }
  std::ofstream(fx.dir + "/MANIFEST", std::ios::trunc) << manifest;

  std::unique_ptr<MidasEngine> restored = RestoreEngine(fx.dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  ASSERT_EQ(restored->patterns().size(), fx.engine.patterns().size());
  EXPECT_EQ(restored->lineage().live_count(), restored->patterns().size());
  for (const auto& [pid, p] : restored->patterns().patterns()) {
    const obs::PatternLineage* lineage = restored->lineage().Find(pid);
    ASSERT_NE(lineage, nullptr) << pid;
    EXPECT_EQ(lineage->birth_kind, obs::LineageEventKind::kRestored);
    EXPECT_EQ(lineage->birth_seq, fx.engine.round_seq());
  }
}

TEST(SnapshotTest, PartialWriteFailpointLeavesOldSnapshotIntact) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  SavedSnapshot fx("midas_snap_partial");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  size_t old_size = fx.engine.db().size();

  // Grow the engine, then fail the re-save mid-write.
  BatchUpdate delta = [&] {
    GraphDatabase copy = fx.engine.db();
    return fx.gen.GenerateAdditions(copy, fx.data, 5, false);
  }();
  fx.engine.ApplyUpdate(delta);
  fail::Arm("snapshot.save.partial_write");
  EXPECT_FALSE(SaveSnapshot(fx.engine, fx.dir, &error));
  fail::DisarmAll();
  EXPECT_NE(error.find("partial write"), std::string::npos) << error;

  // The torn write stayed in the tmp dir; the live snapshot still restores
  // to the pre-update state.
  std::unique_ptr<MidasEngine> restored = RestoreEngine(fx.dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->db().size(), old_size);
}

TEST(SnapshotTest, AbortBeforeRenameKeepsPreviousSnapshot) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  SavedSnapshot fx("midas_snap_rename");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  size_t old_size = fx.engine.db().size();

  BatchUpdate delta = [&] {
    GraphDatabase copy = fx.engine.db();
    return fx.gen.GenerateAdditions(copy, fx.data, 5, false);
  }();
  fx.engine.ApplyUpdate(delta);
  fail::Arm("snapshot.save.before_rename");
  EXPECT_THROW(SaveSnapshot(fx.engine, fx.dir, &error),
               fail::FailpointAbort);
  fail::DisarmAll();

  // The live directory was never touched; it restores the previous state.
  std::unique_ptr<MidasEngine> restored = RestoreEngine(fx.dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->db().size(), old_size);

  // And the interrupted save completes cleanly on retry.
  ASSERT_TRUE(SaveSnapshot(fx.engine, fx.dir, &error)) << error;
  restored = RestoreEngine(fx.dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->db().size(), old_size + 5);
}

// --- Restore oracle ----------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The oracle: the same snapshot files brought back the way restore used to,
// by a full Initialize() (CATAPULT++ selection included) whose panel
// LoadPatterns then replaces, with lineage replay on so the throwaway
// selection never reaches the ledger's reconcile.
std::unique_ptr<MidasEngine> SelectThenLoad(const std::string& dir) {
  SnapshotManifest manifest;
  EXPECT_TRUE(ParseSnapshotManifest(ReadWholeFile(dir + "/MANIFEST"),
                                    &manifest, nullptr));
  MidasConfig config;
  std::istringstream cfg_in(ReadWholeFile(dir + "/config.ini"));
  EXPECT_TRUE(ReadConfig(cfg_in, &config));
  GraphDatabase db;
  std::istringstream db_in(ReadWholeFile(dir + "/database.gspan"));
  GspanReadOptions options;
  options.preserve_ids = true;
  EXPECT_TRUE(ReadDatabase(db_in, &db, options, nullptr));
  db.RestoreNextId(manifest.next_graph_id);

  auto engine = std::make_unique<MidasEngine>(std::move(db), config);
  engine->SetLineageReplay(true);
  engine->Initialize();
  PatternSet panel;
  std::istringstream pat_in(ReadWholeFile(dir + "/patterns.gspan"));
  EXPECT_TRUE(ReadPatternSet(pat_in, engine->labels(), &panel,
                             /*preserve_ids=*/true));
  engine->LoadPatterns(std::move(panel));
  engine->RestoreRoundSeq(manifest.snapshot_seq);
  engine->RestorePatternIds(manifest.next_pattern_id);
  engine->SetLineageReplay(false);
  return engine;
}

std::string PanelBytes(const MidasEngine& engine) {
  std::ostringstream out;
  WritePatternSet(engine.patterns(), engine.db().labels(), out);
  return out.str();
}

void ExpectSameRestoredState(const MidasEngine& a, const MidasEngine& b) {
  EXPECT_EQ(PanelBytes(a), PanelBytes(b));
  EXPECT_EQ(a.patterns().next_id(), b.patterns().next_id());
  EXPECT_EQ(a.round_seq(), b.round_seq());
  EXPECT_TRUE(a.evaluator().universe() == b.evaluator().universe());

  std::vector<const FctEntry*> pool_a = a.fcts().PoolEntries();
  std::vector<const FctEntry*> pool_b = b.fcts().PoolEntries();
  ASSERT_EQ(pool_a.size(), pool_b.size());
  for (size_t i = 0; i < pool_a.size(); ++i) {
    EXPECT_EQ(pool_a[i]->canon, pool_b[i]->canon);
    EXPECT_TRUE(pool_a[i]->occurrences == pool_b[i]->occurrences)
        << pool_a[i]->canon;
    EXPECT_EQ(pool_a[i]->frequent, pool_b[i]->frequent);
    EXPECT_EQ(pool_a[i]->closed, pool_b[i]->closed);
  }

  const auto& clusters_a = a.clusters().clusters();
  const auto& clusters_b = b.clusters().clusters();
  ASSERT_EQ(clusters_a.size(), clusters_b.size());
  for (auto ia = clusters_a.begin(), ib = clusters_b.begin();
       ia != clusters_a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_TRUE(ia->second.members == ib->second.members) << ia->first;
  }
  ASSERT_EQ(a.csgs().size(), b.csgs().size());
  for (auto ia = a.csgs().begin(), ib = b.csgs().begin();
       ia != a.csgs().end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_TRUE(ia->second.members() == ib->second.members()) << ia->first;
  }

  ASSERT_EQ(a.patterns().size(), b.patterns().size());
  for (auto ia = a.patterns().patterns().begin(),
            ib = b.patterns().patterns().begin();
       ia != a.patterns().patterns().end(); ++ia, ++ib) {
    EXPECT_TRUE(ia->second.coverage == ib->second.coverage) << ia->first;
    EXPECT_EQ(ia->second.scov, ib->second.scov);
    EXPECT_EQ(ia->second.lcov, ib->second.lcov);
    EXPECT_EQ(ia->second.div, ib->second.div);
    EXPECT_EQ(ia->second.score, ib->second.score);
  }
  PatternQuality qa = a.CurrentQuality();
  PatternQuality qb = b.CurrentQuality();
  EXPECT_EQ(qa.scov, qb.scov);
  EXPECT_EQ(qa.lcov, qb.lcov);
  EXPECT_EQ(qa.div, qb.div);
  EXPECT_EQ(qa.cog_avg, qb.cog_avg);
  EXPECT_EQ(qa.cog_max, qb.cog_max);
}

void ExpectDeepClean(const MidasEngine& engine) {
  IntegrityReport report;
  VerifyEngineDeep(engine, VerifyOptions{}, &report);
  EXPECT_TRUE(report.clean()) << report.Describe();
  EXPECT_GT(report.checks, 0u);
}

// Parameter: the initial |D|. With sample_cap 50 the checkpointed database
// (|D| + 12 graphs in, 2 out) stays below the cap for 30 — the coverage
// universe is every id, no RNG draw — and lies above it for 70, where the
// evaluator samples its universe with the engine's RNG.
class RestoreOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RestoreOracleTest, RestoreRederivesAndInstallsWithoutSelecting) {
  constexpr size_t kSampleCap = 50;
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("midas_restore_oracle_" +
                            std::to_string(GetParam())))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  MidasConfig cfg = SnapConfig();
  cfg.sample_cap = kSampleCap;
  MoleculeGenerator gen(2024);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(GetParam());
  MidasEngine engine(gen.Generate(data), cfg);
  engine.Initialize();
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(dir + "/journal.log"));
  engine.SetJournal(&journal);
  auto round = [&](size_t adds, bool novel, size_t deletes) {
    GraphDatabase copy = engine.db();
    BatchUpdate delta = gen.GenerateAdditions(copy, data, adds, novel);
    for (const auto& [id, g] : engine.db().graphs()) {
      if (delta.deletions.size() == deletes) break;
      delta.deletions.push_back(id);
    }
    engine.ApplyUpdate(delta);
  };
  round(4, false, 0);
  round(4, true, 0);
  round(4, false, 2);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(engine, dir, &error)) << error;
  const std::string ledger_at_checkpoint = engine.lineage().Serialize();
  const size_t checkpointed_size = engine.db().size();
  // Two journaled rounds past the checkpoint for RecoverEngine to replay.
  round(3, true, 0);
  round(3, false, 1);
  journal.Close();

  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  obs::Counter* selections = reg.GetCounter("midas_select_runs_total");
  std::unique_ptr<MidasEngine> restored =
      RestoreEngine(dir + "/snapshot", &error);
  ASSERT_NE(restored, nullptr) << error;
  RecoverInfo info;
  std::unique_ptr<MidasEngine> recovered = RecoverEngine(dir, &info);
  ASSERT_NE(recovered, nullptr) << info.error;
  EXPECT_EQ(info.replayed, 2u);
  EXPECT_EQ(selections->Value(), 0u) << "restore or recovery selected";

  EXPECT_EQ(restored->evaluator().universe().size(),
            std::min(checkpointed_size, kSampleCap));
  EXPECT_EQ(restored->lineage().Serialize(), ledger_at_checkpoint);
  std::unique_ptr<MidasEngine> oracle = SelectThenLoad(dir + "/snapshot");
  EXPECT_EQ(selections->Value(), 1u);
  ExpectSameRestoredState(*restored, *oracle);
  EXPECT_EQ(PanelBytes(*recovered), PanelBytes(engine));
  ExpectDeepClean(*restored);
  ExpectDeepClean(*recovered);

  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(BelowAndAboveSampleCap, RestoreOracleTest,
                         ::testing::Values(size_t{30}, size_t{70}));

}  // namespace
}  // namespace midas
