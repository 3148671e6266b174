#ifndef MIDAS_MAINTAIN_JOURNAL_H_
#define MIDAS_MAINTAIN_JOURNAL_H_

#include <memory>
#include <string>
#include <vector>

#include "midas/common/io.h"
#include "midas/graph/graph_database.h"
#include "midas/select/pattern.h"

namespace midas {

/// Write-ahead batch journal for failure-atomic maintenance rounds.
///
/// Protocol (see MidasEngine::ApplyUpdate and RecoverEngine):
///   1. Before any state mutation the engine appends one *batch* record —
///      the full ΔD (insertions as gspan text, deletion ids) plus the round
///      sequence number — and fsyncs it.
///   2. After the round completes, the engine appends a *lineage* record
///      (the round's provenance delta) and a *commit* record carrying the
///      post-round pattern panel, and fsyncs once: the lineage record
///      precedes the commit, so the commit's fsync makes both durable.
///
/// A crash at any point therefore loses at most the in-flight round: on
/// recovery, rounds with batch and commit records are replayed against the
/// last snapshot (batch re-applied, committed panel reinstalled verbatim),
/// and a trailing batch record without its commit is dropped as "in
/// flight".
///
/// Record framing: `@<type> <seq> <payload-bytes> <crc32>\n<payload>\n`,
/// type `B` (batch), `L` (lineage) or `C` (commit). The CRC covers the
/// payload bytes, so a torn tail — short write of either the header or the
/// payload — is detected and tolerated, while anything before it is
/// trusted. The payload is plain text (gspan / pattern-set formats from
/// graph_io.h and pattern_io.h) to keep journals greppable in incident
/// response.
class UpdateJournal {
 public:
  UpdateJournal() = default;
  ~UpdateJournal();

  UpdateJournal(const UpdateJournal&) = delete;
  UpdateJournal& operator=(const UpdateJournal&) = delete;

  /// Opens (creating if absent) the journal at `path` for appending; the
  /// creation is made durable with a parent-directory fsync. All I/O goes
  /// through `fs` (nullptr = the real POSIX backend).
  bool Open(const std::string& path, std::string* error = nullptr,
            io::FileSystem* fs = nullptr);
  void Close();
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Appends + fsyncs the intent record for round `seq`. Insertions are
  /// serialized with label names resolved through `dict`. Returns false on
  /// I/O failure (the engine then refuses to start the round — state is
  /// untouched, so no recovery is needed).
  bool AppendBatch(uint64_t seq, const BatchUpdate& batch,
                   const LabelDictionary& dict, std::string* error = nullptr);

  /// Appends the lineage record (`@L`) for round `seq`, carrying the
  /// round's provenance-ledger delta (obs/lineage.h serialization), without
  /// an fsync: the commit record that follows makes both durable. Written
  /// between the batch and commit records; a crash before the commit's
  /// fsync drops the round — and with it the delta — atomically, torn or
  /// not (the scan stops at a torn record).
  bool AppendLineage(uint64_t seq, const std::string& payload,
                     std::string* error = nullptr);

  /// Appends + fsyncs the commit record for round `seq`, carrying the
  /// post-round panel.
  bool AppendCommit(uint64_t seq, const PatternSet& panel,
                    const LabelDictionary& dict, std::string* error = nullptr);

  /// Truncates the journal to empty — called right after a snapshot
  /// checkpoint makes the journaled history redundant. The truncation is
  /// fsynced (file and parent directory) before returning.
  bool Reset(std::string* error = nullptr);

 private:
  bool AppendRecord(char type, uint64_t seq, const std::string& payload,
                    bool sync, std::string* error);

  std::unique_ptr<io::WritableFile> file_;
  io::FileSystem* fs_ = nullptr;
  std::string path_;
};

/// One journaled round as read back from disk.
struct JournalRound {
  uint64_t seq = 0;
  BatchUpdate batch;
  bool committed = false;  ///< commit record present and intact
  PatternSet panel;        ///< post-round panel (only when committed)
  /// Provenance-ledger delta (`@L` payload) for the round; empty for
  /// journals written before lineage existed or when the append failed
  /// (recovery then reconciles synthetically).
  std::string lineage_delta;
};

/// Result of scanning a journal file.
struct JournalReadResult {
  bool ok = false;           ///< file existed and was readable
  std::string error;         ///< why ok is false, or why the scan stopped
  std::vector<JournalRound> rounds;  ///< in append order
  /// True when a torn/corrupt tail was dropped (expected after a crash
  /// mid-append; everything before the tear is intact and returned).
  bool tail_truncated = false;
};

/// Scans a journal, validating framing and CRCs. Labels from insertion
/// graphs and panel patterns are interned into `dict` by name. A missing
/// file yields ok=true with zero rounds (an empty journal and no journal
/// are equivalently "nothing to replay"). Reads through `fs` (nullptr = the
/// real POSIX backend).
JournalReadResult ReadJournal(const std::string& path, LabelDictionary& dict,
                              io::FileSystem* fs = nullptr);

}  // namespace midas

#endif  // MIDAS_MAINTAIN_JOURNAL_H_
