#include "midas/maintain/snapshot.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "midas/common/checksum.h"
#include "midas/common/failpoint.h"
#include "midas/common/io.h"
#include "midas/graph/graph_io.h"
#include "midas/maintain/journal.h"
#include "midas/obs/metrics.h"
#include "midas/select/pattern_io.h"

namespace midas {

namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

// SaveSnapshot's per-file write, with the legacy partial-write failpoint
// kept for existing crash-safety tests (FaultyFileSystem's
// io.write_file.enospc is the richer replacement).
bool WriteSnapshotFile(io::FileSystem& fs, const std::string& path,
                       const std::string& content, std::string* error) {
  if (MIDAS_FAILPOINT("snapshot.save.partial_write")) {
    // Simulate a disk filling up / kill mid-write: half the bytes land.
    // The torn file stays in the tmp directory only — SaveSnapshot reports
    // failure and never renames it into place.
    std::ofstream torn(path, std::ios::binary);
    torn.write(content.data(),
               static_cast<std::streamsize>(content.size() / 2));
    SetError(error,
             "injected partial write (failpoint snapshot.save.partial_write): " +
                 path);
    return false;
  }
  return fs.WriteFileDurable(path, content, error);
}

bool ReadFileVia(io::FileSystem& fs, const std::string& path,
                 std::string* content, std::string* error) {
  std::string read_error;
  if (fs.Read(path, content, &read_error) != io::ReadStatus::kOk) {
    SetError(error, read_error);
    return false;
  }
  return true;
}

}  // namespace

bool ParseSnapshotManifest(const std::string& text, SnapshotManifest* manifest,
                           std::string* error) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      SetError(error, "malformed MANIFEST line: " + line);
      return false;
    }
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    if (key == "snapshot_seq") {
      std::istringstream v(value);
      if (!(v >> manifest->snapshot_seq)) {
        SetError(error, "malformed snapshot_seq: " + value);
        return false;
      }
    } else if (key == "next_graph_id") {
      std::istringstream v(value);
      if (!(v >> manifest->next_graph_id)) {
        SetError(error, "malformed next_graph_id: " + value);
        return false;
      }
    } else if (key == "next_pattern_id") {
      std::istringstream v(value);
      if (!(v >> manifest->next_pattern_id)) {
        SetError(error, "malformed next_pattern_id: " + value);
        return false;
      }
    } else if (key == "file") {
      size_t eq2 = value.find('=');
      if (eq2 == std::string::npos) {
        SetError(error, "malformed file entry: " + value);
        return false;
      }
      manifest->file_crc[value.substr(0, eq2)] = value.substr(eq2 + 1);
    }
    // Unknown keys are skipped (forward compatibility).
  }
  return true;
}

namespace {

// Loads `name` from a manifest-validated snapshot directory and checks its
// CRC32 against the manifest entry.
bool ReadChecked(io::FileSystem& fs, const std::string& dir,
                 const SnapshotManifest& manifest, const std::string& name,
                 std::string* content, std::string* error) {
  auto it = manifest.file_crc.find(name);
  if (it == manifest.file_crc.end()) {
    SetError(error, dir + "/MANIFEST has no checksum for " + name);
    return false;
  }
  if (!ReadFileVia(fs, dir + "/" + name, content, error)) return false;
  std::string actual = Crc32Hex(Crc32(*content));
  if (actual != it->second) {
    SetError(error, dir + "/" + name + ": checksum mismatch (manifest " +
                        it->second + ", actual " + actual + ")");
    return false;
  }
  return true;
}

// One full restore attempt from a concrete directory.
std::unique_ptr<MidasEngine> RestoreFromDir(io::FileSystem& fs,
                                            const std::string& dir,
                                            std::string* error) {
  std::string manifest_text;
  if (!ReadFileVia(fs, dir + "/MANIFEST", &manifest_text, error)) {
    return nullptr;
  }
  SnapshotManifest manifest;
  if (!ParseSnapshotManifest(manifest_text, &manifest, error)) return nullptr;

  std::string cfg_text, db_text, pat_text;
  if (!ReadChecked(fs, dir, manifest, "config.ini", &cfg_text, error) ||
      !ReadChecked(fs, dir, manifest, "database.gspan", &db_text, error) ||
      !ReadChecked(fs, dir, manifest, "patterns.gspan", &pat_text, error)) {
    return nullptr;
  }

  MidasConfig config;
  {
    std::istringstream in(cfg_text);
    if (!ReadConfig(in, &config)) {
      SetError(error, dir + "/config.ini: malformed config");
      return nullptr;
    }
  }
  // A snapshot carrying an invalid configuration must not come back to
  // life: warnings pass, errors refuse the restore.
  for (const std::string& problem : ValidateConfig(config)) {
    if (problem.rfind("warning:", 0) != 0) {
      SetError(error, dir + "/config.ini: " + problem);
      return nullptr;
    }
  }

  GraphDatabase db;
  {
    std::istringstream in(db_text);
    GspanReadOptions options;
    options.preserve_ids = true;  // journaled deletion ids must stay valid
    std::string parse_error;
    if (!ReadDatabase(in, &db, options, &parse_error)) {
      SetError(error, dir + "/database.gspan: " + parse_error);
      return nullptr;
    }
  }
  db.RestoreNextId(manifest.next_graph_id);

  auto engine = std::make_unique<MidasEngine>(std::move(db), config);
  PatternSet panel;
  {
    std::istringstream in(pat_text);
    // Preserve the saved pattern ids — they key the provenance ledger.
    if (!ReadPatternSet(in, engine->labels(), &panel, /*preserve_ids=*/true)) {
      SetError(error, dir + "/patterns.gspan: malformed pattern set");
      return nullptr;
    }
  }
  // The round counter and the saved ledger land before the panel, so that
  // installing it reconciles against its own history: a no-op when the
  // ledger covers the panel, kRestored births for a legacy snapshot.
  engine->RestoreRoundSeq(manifest.snapshot_seq);
  // lineage.ledger is absent from pre-lineage snapshots; its manifest entry
  // gates the read (ReadChecked refuses files without a checksum).
  if (manifest.file_crc.count("lineage.ledger") != 0) {
    std::string lineage_text;
    if (!ReadChecked(fs, dir, manifest, "lineage.ledger", &lineage_text,
                     error)) {
      return nullptr;
    }
    std::string lineage_error;
    if (!engine->lineage_mutable()->Deserialize(lineage_text,
                                                &lineage_error)) {
      SetError(error, dir + "/lineage.ledger: " + lineage_error);
      return nullptr;
    }
  }
  // Derived state is re-derived from the database and config; the saved
  // panel is installed as it is, never reselected.
  engine->Initialize(std::move(panel));
  engine->RestorePatternIds(manifest.next_pattern_id);
  return engine;
}

// The one list of persisted MidasConfig fields: WriteConfig and ReadConfig
// both walk it, so no field is written without being read back. Not
// persisted: the runtime knobs a host sets per process (shed mode,
// num_threads, incremental_views) and the non-owning pointers.
template <typename Config, typename Visit>
void VisitConfigFields(Config& c, Visit&& visit) {
  visit("fct.sup_min", c.fct.sup_min);
  visit("fct.max_edges", c.fct.max_edges);
  visit("fct.max_trees", c.fct.max_trees);
  visit("cluster.num_coarse", c.cluster.num_coarse);
  visit("cluster.max_cluster_size", c.cluster.max_cluster_size);
  visit("cluster.kmeans_iterations", c.cluster.kmeans_iterations);
  visit("cluster.mccs_restarts", c.cluster.mccs_restarts);
  visit("budget.eta_min", c.budget.eta_min);
  visit("budget.eta_max", c.budget.eta_max);
  visit("budget.gamma", c.budget.gamma);
  visit("walk.num_walks", c.walk.num_walks);
  visit("walk.walk_length", c.walk.walk_length);
  visit("epsilon", c.epsilon);
  visit("distance_measure", c.distance_measure);
  visit("kappa", c.kappa);
  visit("lambda", c.lambda);
  visit("swap.ks_alpha", c.swap.ks_alpha);
  visit("swap.max_scans", c.swap.max_scans);
  visit("swap.use_swap_alpha_schedule", c.swap.use_swap_alpha_schedule);
  visit("swap.sigma0", c.swap.sigma0);
  visit("swap.log_boost", c.swap.log_boost);
  visit("sample_cap", c.sample_cap);
  visit("pcp_starts", c.pcp_starts);
  visit("max_candidates", c.max_candidates);
  visit("seed", c.seed);
  visit("small_panel.max_edges_patterns", c.small_panel.max_edges_patterns);
  visit("small_panel.max_wedge_patterns", c.small_panel.max_wedge_patterns);
  visit("round_deadline_ms", c.round_deadline_ms);
  visit("round_step_limit", c.round_step_limit);
  visit("history_capacity", c.history_capacity);
}

// Bools and enums are written as integers. Numbers use to_chars' shortest
// form, which reads back as the same value (ostream's default 6
// significant digits would round doubles).
template <typename T>
std::string ConfigText(T value) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return std::to_string(static_cast<int>(value));
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }
}

template <typename T>
bool ParseConfigValue(const std::string& text, T* value) {
  std::istringstream in(text);
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    int v = 0;
    if (!(in >> v)) return false;
    *value = static_cast<T>(v);
    return true;
  } else {
    return static_cast<bool>(in >> *value);
  }
}

}  // namespace

void WriteConfig(const MidasConfig& config, std::ostream& out) {
  VisitConfigFields(config, [&out](const char* key, const auto& value) {
    out << key << '=' << ConfigText(value) << '\n';
  });
}

bool ReadConfig(std::istream& in, MidasConfig* config) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    // Unknown keys match no field and are skipped (forward compatibility).
    bool ok = true;
    VisitConfigFields(*config, [&](const char* name, auto& field) {
      if (key == name) ok = ParseConfigValue(value, &field);
    });
    if (!ok) return false;
  }
  return true;
}

bool SaveSnapshot(const MidasEngine& engine, const std::string& dir,
                  std::string* error, io::FileSystem* fs_param) {
  io::FileSystem& fs = io::Resolve(fs_param);
  const std::string tmp = dir + ".tmp";
  const std::string old = dir + ".old";

  // A stale tmp is always a leftover from an interrupted save; discard it.
  if (!fs.RemoveAll(tmp, error)) return false;
  if (!fs.CreateDirs(tmp, error)) return false;

  std::ostringstream db_out;
  WriteDatabase(engine.db(), db_out);
  std::ostringstream pat_out;
  WritePatternSet(engine.patterns(), engine.db().labels(), pat_out);
  std::ostringstream cfg_out;
  WriteConfig(engine.config(), cfg_out);

  const std::pair<const char*, std::string> files[] = {
      {"database.gspan", db_out.str()},
      {"patterns.gspan", pat_out.str()},
      {"config.ini", cfg_out.str()},
      {"lineage.ledger", engine.lineage().Serialize()},
  };

  std::ostringstream manifest;
  manifest << "snapshot_seq=" << engine.round_seq() << "\n"
           << "next_graph_id=" << engine.db().next_id() << "\n"
           << "next_pattern_id=" << engine.patterns().next_id() << "\n";
  for (const auto& [name, content] : files) {
    if (!WriteSnapshotFile(fs, tmp + "/" + name, content, error)) {
      return false;
    }
    manifest << "file=" << name << "=" << Crc32Hex(Crc32(content)) << "\n";
  }
  // MANIFEST last: its presence certifies the directory is complete.
  if (!WriteSnapshotFile(fs, tmp + "/MANIFEST", manifest.str(), error)) {
    return false;
  }
  if (!fs.SyncDir(tmp, error)) return false;

  // Crash site between "tmp is complete" and "tmp is live". RestoreEngine's
  // dir -> dir.tmp -> dir.old resolution handles every interleaving.
  MIDAS_FAILPOINT_ABORT("snapshot.save.before_rename");

  if (!fs.RemoveAll(old, error)) return false;
  if (fs.Exists(dir)) {
    if (!fs.Rename(dir, old, error)) return false;
  }
  if (!fs.Rename(tmp, dir, error)) return false;
  // The renames only became durable once the *parent* directory is synced —
  // rename(2) alone can be rolled back by a power cut on ext4/xfs, which
  // would resurrect the old (or no) snapshot after SaveSnapshot already
  // reported success. Sync before removing `.old` so the previous snapshot
  // still exists if the sync fails.
  if (!fs.SyncDir(io::ParentDir(dir), error)) return false;
  if (!fs.RemoveAll(old, error)) return false;
  return true;
}

bool SaveSnapshot(const MidasEngine& engine, const std::string& dir) {
  return SaveSnapshot(engine, dir, nullptr, nullptr);
}

std::unique_ptr<MidasEngine> RestoreEngine(const std::string& dir,
                                           std::string* error,
                                           io::FileSystem* fs_param) {
  io::FileSystem& fs = io::Resolve(fs_param);
  // Resolution order mirrors SaveSnapshot's rename dance: the live
  // directory first, then a complete-but-unrenamed tmp (crash right before
  // the swap), then the displaced previous snapshot (crash mid-swap).
  std::string first_error;
  for (const std::string candidate : {dir, dir + ".tmp", dir + ".old"}) {
    if (!fs.Exists(candidate)) continue;
    std::string attempt_error;
    if (auto engine = RestoreFromDir(fs, candidate, &attempt_error)) {
      return engine;
    }
    if (first_error.empty()) first_error = attempt_error;
  }
  SetError(error, first_error.empty() ? "no snapshot found at " + dir
                                      : first_error);
  return nullptr;
}

std::unique_ptr<MidasEngine> RestoreEngine(const std::string& dir) {
  return RestoreEngine(dir, nullptr);
}

std::unique_ptr<MidasEngine> RecoverEngine(const std::string& engine_dir,
                                           RecoverInfo* info,
                                           io::FileSystem* fs) {
  RecoverInfo local;
  RecoverInfo* out = info != nullptr ? info : &local;
  *out = RecoverInfo{};

  std::string restore_error;
  auto engine = RestoreEngine(engine_dir + "/snapshot", &restore_error, fs);
  if (engine == nullptr) {
    out->error = "snapshot restore failed: " + restore_error;
    return nullptr;
  }

  JournalReadResult journal =
      ReadJournal(engine_dir + "/journal.log", engine->labels(), fs);
  if (!journal.ok) {
    out->error = "journal read failed: " + journal.error;
    return nullptr;
  }
  out->tail_truncated = journal.tail_truncated;

  // Replay committed rounds beyond the snapshot. Structures are re-derived
  // by re-applying the batch (kNoMaintain: no selection/swap — replay must
  // not redo budget-dependent work), then the committed panel — the exact
  // set the original round produced — is reinstalled verbatim.
  size_t last_committed = journal.rounds.size();
  // Lineage during replay comes from the journaled @L deltas, applied
  // verbatim — live recording stays suppressed so replay cannot
  // double-count a round the original writer already ledgered.
  engine->SetLineageReplay(true);
  for (size_t i = 0; i < journal.rounds.size(); ++i) {
    JournalRound& round = journal.rounds[i];
    if (!round.committed) {
      ++out->dropped_inflight;
      continue;
    }
    if (round.seq <= engine->round_seq()) continue;  // already in snapshot
    engine->ApplyUpdate(round.batch, MaintenanceMode::kNoMaintain);
    if (!round.lineage_delta.empty()) {
      PatternId next_pattern_id = 0;
      std::string delta_error;
      if (engine->lineage_mutable()->ApplyDelta(round.lineage_delta,
                                                &next_pattern_id,
                                                &delta_error)) {
        engine->RestorePatternIds(next_pattern_id);
      }
      // An unparseable delta is dropped; the Reconcile below squares the
      // ledger with the final panel so recovery still succeeds.
    }
    ++out->replayed;
    last_committed = i;
  }
  if (last_committed < journal.rounds.size()) {
    engine->LoadPatterns(std::move(journal.rounds[last_committed].panel));
  }
  engine->SetLineageReplay(false);
  // No-op when every replayed round carried its @L delta (ids preserved,
  // ledger-live == panel); synthesizes kRestored/kRemoved events for
  // legacy journals written before lineage existed.
  engine->lineage_mutable()->Reconcile(engine->patterns(),
                                       engine->round_seq());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    if (out->replayed > 0) {
      reg.GetCounter("midas_recovery_replayed_batches")
          ->Increment(out->replayed);
    }
    if (out->dropped_inflight > 0) {
      reg.GetCounter("midas_recovery_dropped_inflight_total")
          ->Increment(out->dropped_inflight);
    }
  }
  return engine;
}

bool SaveCheckpoint(const MidasEngine& engine, const std::string& engine_dir,
                    std::string* error, io::FileSystem* fs) {
  if (!io::Resolve(fs).CreateDirs(engine_dir, error)) return false;
  if (!SaveSnapshot(engine, engine_dir + "/snapshot", error, fs)) {
    return false;
  }
  UpdateJournal* journal = engine.journal();
  if (journal != nullptr && journal->is_open()) {
    return journal->Reset(error);
  }
  return true;
}

}  // namespace midas
