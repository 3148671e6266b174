#ifndef MIDAS_MAINTAIN_SNAPSHOT_H_
#define MIDAS_MAINTAIN_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "midas/common/io.h"
#include "midas/maintain/midas.h"

namespace midas {

/// Engine persistence: a snapshot directory holds the database
/// (database.gspan), the canned pattern panel (patterns.gspan), the
/// configuration (config.ini, key=value) and a MANIFEST with a CRC32 per
/// file plus the round sequence number and the graph-id allocator position.
/// Restoring rebuilds the derived structures (FCT pool, clusters, CSGs,
/// indices) deterministically from the config's seed and reinstalls the
/// saved panel — a service restart resumes exactly where it stopped,
/// without re-running selection.
///
/// Snapshots are written failure-atomically: everything lands in
/// `<dir>.tmp` first and only a fully written, checksummed tmp directory is
/// renamed into place. A crash mid-save leaves the previous snapshot (or
/// nothing) — never a half-written directory that restores silently wrong.
/// Combined with the write-ahead journal (journal.h), RecoverEngine brings
/// an engine back to exactly the last *committed* maintenance round.

/// Parsed MANIFEST contents (exposed for the integrity verifier and the
/// fsck CLI; SaveSnapshot writes it, RestoreEngine validates against it).
struct SnapshotManifest {
  uint64_t snapshot_seq = 0;
  GraphId next_graph_id = 0;
  /// Pattern-id allocator position (0 in pre-lineage snapshots, which
  /// carried no lineage.ledger either). Restored so post-recovery births
  /// never reuse an id already present in the provenance ledger.
  PatternId next_pattern_id = 0;
  std::map<std::string, std::string> file_crc;  // name -> crc32 hex
};

/// Parses a MANIFEST file body. Unknown keys are skipped (forward
/// compatibility); malformed known keys fail.
bool ParseSnapshotManifest(const std::string& text, SnapshotManifest* manifest,
                           std::string* error);

/// Key=value serialization of the tunable configuration.
void WriteConfig(const MidasConfig& config, std::ostream& out);
/// Parses a config; unknown keys are ignored (forward compatibility),
/// malformed lines fail. Fields absent from the file keep their defaults.
bool ReadConfig(std::istream& in, MidasConfig* config);

/// Atomically replaces the snapshot at `dir`: writes database.gspan,
/// patterns.gspan, config.ini and MANIFEST into `<dir>.tmp`, fsyncs, then
/// renames tmp into place (the previous snapshot is kept at `<dir>.old`
/// during the swap and removed afterwards), then fsyncs the parent
/// directory — rename(2) alone is not durable on ext4/xfs. Returns false on
/// I/O failure with a diagnostic in *error; the existing snapshot is
/// untouched in that case. All I/O goes through `fs` (nullptr = the real
/// POSIX backend).
bool SaveSnapshot(const MidasEngine& engine, const std::string& dir,
                  std::string* error, io::FileSystem* fs = nullptr);
bool SaveSnapshot(const MidasEngine& engine, const std::string& dir);

/// Restores an engine from a snapshot directory: validates the MANIFEST
/// (per-file CRC32), loads database (preserving graph ids) and config,
/// enforces ValidateConfig (a snapshot that fails validation is refused —
/// errors only; "warning:" entries pass), restores round_seq(), the ledger
/// and the id allocator, and installs the saved panel with
/// Initialize(PatternSet): every derived structure is re-derived, no
/// selection runs. Resolution
/// order tolerates a crash mid-save: `dir`, then `dir.tmp` (complete but
/// unrenamed), then `dir.old` (swap interrupted). Returns nullptr on
/// failure with a diagnostic in *error.
std::unique_ptr<MidasEngine> RestoreEngine(const std::string& dir,
                                           std::string* error,
                                           io::FileSystem* fs = nullptr);
std::unique_ptr<MidasEngine> RestoreEngine(const std::string& dir);

/// What RecoverEngine did (for logs/tests).
struct RecoverInfo {
  size_t replayed = 0;          ///< committed journal rounds re-applied
  size_t dropped_inflight = 0;  ///< trailing batches without a commit
  bool tail_truncated = false;  ///< journal had a torn/corrupt tail
  std::string error;            ///< set when recovery returned nullptr
};

/// Crash recovery for the engine-directory layout used by SaveCheckpoint:
/// `<engine_dir>/snapshot` + `<engine_dir>/journal.log`. Restores the
/// snapshot, then replays every *committed* journal round with seq beyond
/// the snapshot (batch re-applied structurally, committed panel reinstalled
/// verbatim — replay never re-runs selection, so it is deterministic). A
/// trailing in-flight round (batch record without commit) is dropped, which
/// is the at-most-one-round loss guarantee. Returns nullptr on failure.
std::unique_ptr<MidasEngine> RecoverEngine(const std::string& engine_dir,
                                           RecoverInfo* info = nullptr,
                                           io::FileSystem* fs = nullptr);

/// Checkpoints an engine into the RecoverEngine layout: snapshots into
/// `<engine_dir>/snapshot` and, if a journal is attached, truncates it (the
/// journaled history is now redundant — the snapshot carries it).
bool SaveCheckpoint(const MidasEngine& engine, const std::string& engine_dir,
                    std::string* error = nullptr,
                    io::FileSystem* fs = nullptr);

}  // namespace midas

#endif  // MIDAS_MAINTAIN_SNAPSHOT_H_
