#include "midas/maintain/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "midas/common/failpoint.h"
#include "midas/common/io.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/graph/graph_io.h"
#include "midas/graph/subgraph_iso.h"
#include "midas/maintain/snapshot.h"
#include "midas/maintain/verify.h"
#include "midas/obs/metrics.h"

namespace midas {
namespace {

namespace fs = std::filesystem;

// Unique scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

MidasConfig TestConfig() {
  MidasConfig cfg;
  cfg.budget = {3, 7, 9};
  cfg.fct.sup_min = 0.45;
  cfg.fct.max_edges = 3;
  cfg.cluster.num_coarse = 3;
  cfg.epsilon = 0.0;  // classify every round major: all phases execute
  cfg.sample_cap = 0;
  cfg.seed = 1234;
  return cfg;
}

// Deterministic engine + batches: same seeds, same everything.
std::unique_ptr<MidasEngine> MakeEngine(MoleculeGenerator& gen,
                                        MoleculeGenConfig& data) {
  auto engine = std::make_unique<MidasEngine>(gen.Generate(data),
                                              TestConfig());
  engine->Initialize();
  return engine;
}

BatchUpdate MakeBatch(MoleculeGenerator& gen, MoleculeGenConfig& data,
                      const MidasEngine& engine, size_t adds, bool novel) {
  GraphDatabase copy = engine.db();
  return gen.GenerateAdditions(copy, data, adds, novel);
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// Panels match pattern-by-pattern (in id order) up to label renaming.
void ExpectSamePanel(const PatternSet& expected,
                     const LabelDictionary& expected_labels,
                     const PatternSet& actual, LabelDictionary& actual_labels) {
  ASSERT_EQ(actual.size(), expected.size());
  auto it1 = expected.patterns().begin();
  auto it2 = actual.patterns().begin();
  for (; it1 != expected.patterns().end(); ++it1, ++it2) {
    Graph remapped =
        RemapLabels(it1->second.graph, expected_labels, actual_labels);
    EXPECT_TRUE(AreIsomorphic(remapped, it2->second.graph));
  }
}

// --- Journal round trips ----------------------------------------------------

TEST(JournalTest, BatchAndCommitRoundTrip) {
  TempDir dir("midas_journal_rt");
  MoleculeGenerator gen(777);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(dir.path + "/j.log"));
  BatchUpdate batch = MakeBatch(gen, data, *engine, 6, true);
  batch.deletions = {3, 5};
  ASSERT_TRUE(journal.AppendBatch(1, batch, engine->db().labels()));
  ASSERT_TRUE(journal.AppendCommit(1, engine->patterns(),
                                   engine->db().labels()));

  LabelDictionary dict;
  JournalReadResult r = ReadJournal(dir.path + "/j.log", dict);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.tail_truncated);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].seq, 1u);
  EXPECT_TRUE(r.rounds[0].committed);
  EXPECT_EQ(r.rounds[0].batch.insertions.size(), batch.insertions.size());
  EXPECT_EQ(r.rounds[0].batch.deletions, batch.deletions);
  EXPECT_EQ(r.rounds[0].panel.size(), engine->patterns().size());
}

TEST(JournalTest, MissingFileIsEmptyJournal) {
  LabelDictionary dict;
  JournalReadResult r = ReadJournal("/nonexistent/midas/journal.log", dict);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.rounds.empty());
  EXPECT_FALSE(r.tail_truncated);
}

TEST(JournalTest, TornTailIsDroppedPrefixTrusted) {
  TempDir dir("midas_journal_torn");
  MoleculeGenerator gen(778);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  const std::string path = dir.path + "/j.log";

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path));
  BatchUpdate b1 = MakeBatch(gen, data, *engine, 4, false);
  ASSERT_TRUE(journal.AppendBatch(1, b1, engine->db().labels()));
  ASSERT_TRUE(journal.AppendCommit(1, engine->patterns(),
                                   engine->db().labels()));
  BatchUpdate b2 = MakeBatch(gen, data, *engine, 4, true);
  ASSERT_TRUE(journal.AppendBatch(2, b2, engine->db().labels()));
  journal.Close();

  // Crash mid-append: chop 10 bytes off the second batch record.
  std::string text = ReadFileText(path);
  WriteFileText(path, text.substr(0, text.size() - 10));

  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  LabelDictionary dict;
  JournalReadResult r = ReadJournal(path, dict);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.tail_truncated);
  ASSERT_EQ(r.rounds.size(), 1u);  // the torn round is gone, round 1 intact
  EXPECT_TRUE(r.rounds[0].committed);
  EXPECT_EQ(reg.GetCounter("midas_journal_torn_tail_total")->Value(), 1u);
}

TEST(JournalTest, CorruptedChecksumStopsScan) {
  TempDir dir("midas_journal_crc");
  MoleculeGenerator gen(779);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  const std::string path = dir.path + "/j.log";

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path));
  BatchUpdate b1 = MakeBatch(gen, data, *engine, 4, false);
  ASSERT_TRUE(journal.AppendBatch(1, b1, engine->db().labels()));
  journal.Close();

  // Flip one payload byte; the CRC no longer matches.
  std::string text = ReadFileText(path);
  text[text.size() / 2] ^= 0x01;
  WriteFileText(path, text);

  LabelDictionary dict;
  JournalReadResult r = ReadJournal(path, dict);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.tail_truncated);
  EXPECT_TRUE(r.rounds.empty());
  EXPECT_NE(r.error.find("checksum"), std::string::npos) << r.error;
}

TEST(JournalTest, SeqRegressionAfterCommittedRoundStopsScan) {
  TempDir dir("midas_journal_seq_regress");
  MoleculeGenerator gen(781);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  const std::string path = dir.path + "/j.log";

  // A @B/@C pair whose payload CRCs are perfectly valid but whose seq goes
  // backwards: every byte checks out, yet the record cannot belong to this
  // history (an overwritten or mis-spliced journal). The scan must treat it
  // exactly like corruption — trust the prefix, drop the tail.
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path));
  BatchUpdate b5 = MakeBatch(gen, data, *engine, 3, false);
  ASSERT_TRUE(journal.AppendBatch(5, b5, engine->db().labels()));
  ASSERT_TRUE(journal.AppendCommit(5, engine->patterns(),
                                   engine->db().labels()));
  BatchUpdate b3 = MakeBatch(gen, data, *engine, 2, false);
  ASSERT_TRUE(journal.AppendBatch(3, b3, engine->db().labels()));
  ASSERT_TRUE(journal.AppendCommit(3, engine->patterns(),
                                   engine->db().labels()));
  journal.Close();

  LabelDictionary dict;
  JournalReadResult r = ReadJournal(path, dict);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.tail_truncated);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].seq, 5u);
  EXPECT_TRUE(r.rounds[0].committed);
  EXPECT_NE(r.error.find("seq regression"), std::string::npos) << r.error;

  // A duplicate of a *committed* seq is also a regression: replaying it
  // would apply the round twice.
  WriteFileText(path, "");
  ASSERT_TRUE(journal.Open(path));
  ASSERT_TRUE(journal.AppendBatch(2, b5, engine->db().labels()));
  ASSERT_TRUE(journal.AppendCommit(2, engine->patterns(),
                                   engine->db().labels()));
  ASSERT_TRUE(journal.AppendBatch(2, b3, engine->db().labels()));
  journal.Close();
  r = ReadJournal(path, dict);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.tail_truncated);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].seq, 2u);
}

TEST(JournalTest, RetryOfUncommittedSeqIsLegal) {
  TempDir dir("midas_journal_seq_retry");
  MoleculeGenerator gen(782);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);
  const std::string path = dir.path + "/j.log";

  // A crash between @B and @C followed by a retry legitimately writes the
  // same seq twice: @B 1 (torn), @B 1, @C 1. The scan must accept it.
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path));
  BatchUpdate batch = MakeBatch(gen, data, *engine, 3, false);
  ASSERT_TRUE(journal.AppendBatch(1, batch, engine->db().labels()));
  ASSERT_TRUE(journal.AppendBatch(1, batch, engine->db().labels()));
  ASSERT_TRUE(journal.AppendCommit(1, engine->patterns(),
                                   engine->db().labels()));
  journal.Close();

  LabelDictionary dict;
  JournalReadResult r = ReadJournal(path, dict);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.tail_truncated) << r.error;
  ASSERT_EQ(r.rounds.size(), 2u);
  EXPECT_FALSE(r.rounds[0].committed);  // the torn first attempt
  EXPECT_EQ(r.rounds[1].seq, 1u);
  EXPECT_TRUE(r.rounds[1].committed);   // the successful retry
}

// --- Engine + journal integration -------------------------------------------

TEST(JournalTest, BatchAppendFailureRefusesRound) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  TempDir dir("midas_journal_refuse");
  MoleculeGenerator gen(780);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(dir.path + "/j.log"));
  engine->SetJournal(&journal);

  size_t db_before = engine->db().size();
  uint64_t seq_before = engine->round_seq();
  BatchUpdate batch = MakeBatch(gen, data, *engine, 5, false);

  fail::Arm("journal.append.io_error");
  EXPECT_THROW(engine->ApplyUpdate(batch), std::runtime_error);
  fail::DisarmAll();

  // The engine is untouched: the WAL write happens before any mutation.
  EXPECT_EQ(engine->db().size(), db_before);
  EXPECT_EQ(engine->round_seq(), seq_before);

  // The same batch goes through once the journal works again.
  engine->ApplyUpdate(batch);
  EXPECT_EQ(engine->db().size(), db_before + 5);
  EXPECT_EQ(engine->round_seq(), seq_before + 1);
}

TEST(JournalTest, CommitAppendFailureIsCountedNotFatal) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  TempDir dir("midas_journal_commitfail");
  MoleculeGenerator gen(781);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(dir.path + "/j.log"));
  engine->SetJournal(&journal);

  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(reg);
  fail::Arm("journal.commit.io_error");
  BatchUpdate batch = MakeBatch(gen, data, *engine, 5, false);
  engine->ApplyUpdate(batch);  // must not throw: in-memory round is valid
  fail::DisarmAll();

  EXPECT_EQ(engine->round_seq(), 1u);
  EXPECT_EQ(reg.GetCounter("midas_journal_commit_failures_total")->Value(),
            1u);
}

// A committed round makes two fsyncs: @B's, and @C's, which also makes the
// @L record before it durable.
TEST(JournalTest, CommittedRoundSyncsBatchAndCommitOnly) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  TempDir dir("midas_journal_syncs");
  io::FaultyFileSystem ffs;
  MoleculeGenerator gen(782);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(20);
  auto engine = MakeEngine(gen, data);

  const std::string path = dir.path + "/j.log";
  UpdateJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(path, &error, &ffs)) << error;
  engine->SetJournal(&journal);

  // Armed with zero fires the site never fails; it only counts the syncs.
  fail::Arm("io.sync.error", 0, 0);
  engine->ApplyUpdate(MakeBatch(gen, data, *engine, 5, false));
  EXPECT_EQ(fail::HitCount("io.sync.error"), 2);
  fail::DisarmAll();
  journal.Close();

  // Durable as a unit: after a power cut the round reads back committed
  // with its lineage delta.
  ffs.SimulateCrash();
  LabelDictionary dict;
  JournalReadResult read = ReadJournal(path, dict, &ffs);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_FALSE(read.tail_truncated);
  ASSERT_EQ(read.rounds.size(), 1u);
  EXPECT_TRUE(read.rounds[0].committed);
  EXPECT_FALSE(read.rounds[0].lineage_delta.empty());
}

// --- Crash-recovery matrix ---------------------------------------------------

// Kill the engine at every phase boundary of ApplyUpdate; recovery must
// come back to exactly the last committed round each time.
TEST(CrashRecoveryTest, AbortAtEveryPhaseRecoversLastCommittedRound) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  const char* kSites[] = {
      "midas.apply_update.after_apply",    "midas.apply_update.after_fct",
      "midas.apply_update.after_cluster",  "midas.apply_update.after_csg",
      "midas.apply_update.after_index",    "midas.apply_update.after_refresh",
      "midas.apply_update.after_candidates", "midas.apply_update.after_swap",
  };

  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    TempDir edir("midas_crash_matrix");
    MoleculeGenerator gen(900);
    MoleculeGenConfig data = MoleculeGenerator::EmolLike(25);
    auto engine = MakeEngine(gen, data);

    UpdateJournal journal;
    ASSERT_TRUE(journal.Open(edir.path + "/journal.log"));
    engine->SetJournal(&journal);

    std::string error;
    ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error)) << error;

    // Round 1 commits normally; it is the state recovery must reproduce.
    BatchUpdate d1 = MakeBatch(gen, data, *engine, 8, true);
    engine->ApplyUpdate(d1);
    size_t committed_db_size = engine->db().size();
    PatternSet committed_panel = engine->patterns();

    // Round 2 is killed at `site`. It must be a *major* round (novel
    // additions): the candidate/swap failpoints sit in the major-only
    // branch of Algorithm 1.
    BatchUpdate d2 = MakeBatch(gen, data, *engine, 10, true);
    fail::Arm(site);
    EXPECT_THROW(engine->ApplyUpdate(d2), fail::FailpointAbort);
    fail::DisarmAll();
    journal.Close();

    obs::MetricsRegistry reg;
    obs::ScopedMetricsRegistry scope(reg);
    RecoverInfo info;
    std::unique_ptr<MidasEngine> recovered =
        RecoverEngine(edir.path, &info);
    ASSERT_NE(recovered, nullptr) << info.error;
    EXPECT_EQ(info.replayed, 1u);         // round 1
    EXPECT_EQ(info.dropped_inflight, 1u); // round 2's batch record
    EXPECT_EQ(recovered->round_seq(), 1u);
    EXPECT_EQ(recovered->db().size(), committed_db_size);
    ExpectSamePanel(committed_panel, engine->labels(), recovered->patterns(),
                    recovered->labels());
    EXPECT_EQ(reg.GetCounter("midas_recovery_replayed_batches")->Value(),
              1u);
    EXPECT_EQ(
        reg.GetCounter("midas_recovery_dropped_inflight_total")->Value(),
        1u);

    // The recovered engine keeps working.
    BatchUpdate d3 = MakeBatch(gen, data, *recovered, 3, false);
    recovered->ApplyUpdate(d3);
    EXPECT_EQ(recovered->db().size(), committed_db_size + 3);
  }
}

// A power cut after the @L append and before @C's fsync loses the unsynced
// @L with the round: recovery returns to the previous committed round, as
// after a crash before @L was written, and the state passes deep fsck.
TEST(CrashRecoveryTest, CrashBetweenLineageAndCommitDropsTheRound) {
  if (!fail::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  TempDir edir("midas_crash_lineage_commit");
  io::FaultyFileSystem ffs;
  MoleculeGenerator gen(904);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(25);
  auto engine = MakeEngine(gen, data);

  const std::string path = edir.path + "/journal.log";
  UpdateJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(path, &error, &ffs)) << error;
  engine->SetJournal(&journal);
  ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error, &ffs)) << error;

  engine->ApplyUpdate(MakeBatch(gen, data, *engine, 8, true));
  const size_t committed_db_size = engine->db().size();
  PatternSet committed_panel = engine->patterns();

  // Round 2 appends @B (synced) and @L; the commit append then fails
  // before writing a byte, and the crash finds @L past the last fsync.
  fail::Arm("journal.commit.io_error");
  engine->ApplyUpdate(MakeBatch(gen, data, *engine, 10, true));
  fail::DisarmAll();
  journal.Close();
  ffs.SimulateCrash();

  std::string text;
  ASSERT_EQ(ffs.Read(path, &text, &error), io::ReadStatus::kOk) << error;
  EXPECT_NE(text.find("@B 2 "), std::string::npos);
  EXPECT_EQ(text.find("@L 2 "), std::string::npos);

  RecoverInfo info;
  std::unique_ptr<MidasEngine> recovered =
      RecoverEngine(edir.path, &info, &ffs);
  ASSERT_NE(recovered, nullptr) << info.error;
  EXPECT_EQ(info.replayed, 1u);
  EXPECT_EQ(info.dropped_inflight, 1u);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(recovered->round_seq(), 1u);
  EXPECT_EQ(recovered->db().size(), committed_db_size);
  ExpectSamePanel(committed_panel, engine->labels(), recovered->patterns(),
                  recovered->labels());

  VerifyOptions deep;
  deep.level = IntegrityTier::kDeep;
  IntegrityReport report;
  VerifyEngineDeep(*recovered, deep, &report);
  EXPECT_TRUE(report.clean()) << report.Describe();
}

TEST(CrashRecoveryTest, RecoveryWithoutCrashIsIdempotent) {
  TempDir edir("midas_recover_clean");
  MoleculeGenerator gen(901);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(25);
  auto engine = MakeEngine(gen, data);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(edir.path + "/journal.log"));
  engine->SetJournal(&journal);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error)) << error;

  BatchUpdate d1 = MakeBatch(gen, data, *engine, 8, true);
  engine->ApplyUpdate(d1);
  BatchUpdate d2 = MakeBatch(gen, data, *engine, 4, false);
  engine->ApplyUpdate(d2);
  journal.Close();

  RecoverInfo info;
  auto recovered = RecoverEngine(edir.path, &info);
  ASSERT_NE(recovered, nullptr) << info.error;
  EXPECT_EQ(info.replayed, 2u);
  EXPECT_EQ(info.dropped_inflight, 0u);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(recovered->round_seq(), 2u);
  EXPECT_EQ(recovered->db().size(), engine->db().size());
  ExpectSamePanel(engine->patterns(), engine->labels(),
                  recovered->patterns(), recovered->labels());
}

TEST(CrashRecoveryTest, CheckpointResetsJournal) {
  TempDir edir("midas_checkpoint_reset");
  MoleculeGenerator gen(902);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(25);
  auto engine = MakeEngine(gen, data);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(edir.path + "/journal.log"));
  engine->SetJournal(&journal);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error)) << error;

  BatchUpdate d1 = MakeBatch(gen, data, *engine, 8, true);
  engine->ApplyUpdate(d1);
  EXPECT_GT(fs::file_size(edir.path + "/journal.log"), 0u);

  // Checkpoint: snapshot absorbs the journaled round, journal truncates.
  ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error)) << error;
  EXPECT_EQ(fs::file_size(edir.path + "/journal.log"), 0u);
  journal.Close();

  RecoverInfo info;
  auto recovered = RecoverEngine(edir.path, &info);
  ASSERT_NE(recovered, nullptr) << info.error;
  EXPECT_EQ(info.replayed, 0u);  // nothing left to replay
  EXPECT_EQ(recovered->round_seq(), 1u);
  EXPECT_EQ(recovered->db().size(), engine->db().size());
}

TEST(CrashRecoveryTest, TornJournalTailSurfacesInRecoverInfo) {
  TempDir edir("midas_recover_torn");
  MoleculeGenerator gen(903);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(25);
  auto engine = MakeEngine(gen, data);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(edir.path + "/journal.log"));
  engine->SetJournal(&journal);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error)) << error;
  BatchUpdate d1 = MakeBatch(gen, data, *engine, 8, true);
  engine->ApplyUpdate(d1);
  journal.Close();

  // Tear the tail (the commit record of round 1): the round degrades to
  // in-flight and is dropped.
  const std::string jpath = edir.path + "/journal.log";
  std::string text = ReadFileText(jpath);
  WriteFileText(jpath, text.substr(0, text.size() - 6));

  RecoverInfo info;
  auto recovered = RecoverEngine(edir.path, &info);
  ASSERT_NE(recovered, nullptr) << info.error;
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_EQ(info.replayed, 0u);
  EXPECT_EQ(info.dropped_inflight, 1u);
  EXPECT_EQ(recovered->round_seq(), 0u);  // back to the checkpoint
}

TEST(CrashRecoveryTest, MissingSnapshotFileFailsWithDiagnostic) {
  TempDir edir("midas_recover_missing");
  MoleculeGenerator gen(904);
  MoleculeGenConfig data = MoleculeGenerator::EmolLike(25);
  auto engine = MakeEngine(gen, data);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(*engine, edir.path, &error)) << error;

  fs::remove(edir.path + "/snapshot/patterns.gspan");

  RecoverInfo info;
  EXPECT_EQ(RecoverEngine(edir.path, &info), nullptr);
  EXPECT_NE(info.error.find("patterns.gspan"), std::string::npos)
      << info.error;
}

}  // namespace
}  // namespace midas
