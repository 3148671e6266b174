#include "midas/maintain/journal.h"

#include <sstream>

#include "midas/common/checksum.h"
#include "midas/common/failpoint.h"
#include "midas/common/io.h"
#include "midas/graph/graph_io.h"
#include "midas/obs/metrics.h"
#include "midas/select/pattern_io.h"

namespace midas {
namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

std::string SerializeBatch(const BatchUpdate& batch,
                           const LabelDictionary& dict) {
  std::ostringstream out;
  out << "deletions " << batch.deletions.size() << "\n";
  if (!batch.deletions.empty()) {
    for (size_t i = 0; i < batch.deletions.size(); ++i) {
      out << (i == 0 ? "" : " ") << batch.deletions[i];
    }
    out << "\n";
  }
  for (size_t i = 0; i < batch.insertions.size(); ++i) {
    WriteGraph(batch.insertions[i], dict, static_cast<long>(i), out);
  }
  return out.str();
}

bool ParseBatchPayload(const std::string& payload, LabelDictionary& dict,
                       BatchUpdate* batch, std::string* error) {
  std::istringstream in(payload);
  std::string tag;
  size_t num_deletions = 0;
  if (!(in >> tag >> num_deletions) || tag != "deletions") {
    SetError(error, "batch payload missing 'deletions' header");
    return false;
  }
  for (size_t i = 0; i < num_deletions; ++i) {
    GraphId id = 0;
    if (!(in >> id)) {
      SetError(error, "batch payload truncated deletion list");
      return false;
    }
    batch->deletions.push_back(id);
  }
  // Insertions: the remainder is gspan text. Parse into a scratch database
  // (own dictionary), then remap labels by name into the caller's.
  GraphDatabase scratch;
  std::string parse_error;
  if (!ReadDatabase(in, &scratch, &parse_error)) {
    SetError(error, "batch payload insertions: " + parse_error);
    return false;
  }
  for (const auto& [id, g] : scratch.graphs()) {
    batch->insertions.push_back(RemapLabels(g, scratch.labels(), dict));
  }
  return true;
}

}  // namespace

UpdateJournal::~UpdateJournal() { Close(); }

bool UpdateJournal::Open(const std::string& path, std::string* error,
                         io::FileSystem* fs) {
  Close();
  io::FileSystem& resolved = io::Resolve(fs);
  auto file = resolved.OpenAppend(path, error);
  if (file == nullptr) return false;
  // The journal file's *name* must be durable before the first record is:
  // otherwise a crash after AppendBatch could lose the whole file while the
  // engine believes the round was journaled.
  if (!resolved.SyncDir(io::ParentDir(path), error)) return false;
  file_ = std::move(file);
  fs_ = &resolved;
  path_ = path;
  return true;
}

void UpdateJournal::Close() { file_.reset(); }

bool UpdateJournal::AppendRecord(char type, uint64_t seq,
                                 const std::string& payload, bool sync,
                                 std::string* error) {
  if (file_ == nullptr) {
    SetError(error, "journal is not open");
    return false;
  }
  std::ostringstream header;
  header << '@' << type << ' ' << seq << ' ' << payload.size() << ' '
         << Crc32Hex(Crc32(payload)) << '\n';
  std::string record = header.str() + payload + "\n";
  // One write per record. A synced record is durable before the caller
  // proceeds, which is the whole point of a WAL; an unsynced one becomes
  // durable with the next synced record, since it precedes it in the file.
  if (!file_->Append(record, error)) return false;
  if (sync && !file_->Sync(error)) return false;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
  if (reg.enabled()) {
    reg.GetCounter(type == 'B'   ? "midas_journal_batch_appends_total"
                   : type == 'C' ? "midas_journal_commit_appends_total"
                                 : "midas_journal_lineage_appends_total")
        ->Increment();
    reg.GetCounter("midas_journal_bytes_written_total")
        ->Increment(record.size());
  }
  return true;
}

bool UpdateJournal::AppendBatch(uint64_t seq, const BatchUpdate& batch,
                                const LabelDictionary& dict,
                                std::string* error) {
  if (MIDAS_FAILPOINT("journal.append.io_error")) {
    SetError(error, "injected I/O error (failpoint journal.append.io_error)");
    return false;
  }
  return AppendRecord('B', seq, SerializeBatch(batch, dict), /*sync=*/true,
                      error);
}

bool UpdateJournal::AppendLineage(uint64_t seq, const std::string& payload,
                                  std::string* error) {
  if (MIDAS_FAILPOINT("journal.lineage.io_error")) {
    SetError(error,
             "injected I/O error (failpoint journal.lineage.io_error)");
    return false;
  }
  // No fsync of its own: the @C record that follows syncs both. A crash
  // that tears this record stops the scan at it, so the round reads as
  // uncommitted, exactly as after a crash before the append.
  return AppendRecord('L', seq, payload, /*sync=*/false, error);
}

bool UpdateJournal::AppendCommit(uint64_t seq, const PatternSet& panel,
                                 const LabelDictionary& dict,
                                 std::string* error) {
  if (MIDAS_FAILPOINT("journal.commit.io_error")) {
    SetError(error, "injected I/O error (failpoint journal.commit.io_error)");
    return false;
  }
  std::ostringstream out;
  WritePatternSet(panel, dict, out);
  return AppendRecord('C', seq, out.str(), /*sync=*/true, error);
}

bool UpdateJournal::Reset(std::string* error) {
  if (file_ == nullptr) {
    SetError(error, "journal is not open");
    return false;
  }
  if (!file_->Truncate(0, error)) return false;
  // Belt and braces: persist the directory entry too, so rotation is
  // durable even on filesystems where the inode update alone is not.
  return fs_->SyncDir(io::ParentDir(path_), error);
}

JournalReadResult ReadJournal(const std::string& path, LabelDictionary& dict,
                              io::FileSystem* fs) {
  JournalReadResult result;

  std::string content;
  {
    std::string read_error;
    switch (io::Resolve(fs).Read(path, &content, &read_error)) {
      case io::ReadStatus::kNotFound:
        result.ok = true;  // no journal == empty journal
        return result;
      case io::ReadStatus::kError:
        result.error = read_error;
        return result;
      case io::ReadStatus::kOk:
        break;
    }
  }
  result.ok = true;

  // Scan records. Any framing violation marks a torn tail: everything
  // before it is trusted, the rest is dropped. A crash mid-append can only
  // tear the *last* record, so mid-file corruption also stopping the scan
  // is the conservative (never replay past doubt) choice.
  auto torn = [&result](const std::string& why) {
    result.tail_truncated = true;
    result.error = why;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Current();
    if (reg.enabled()) {
      reg.GetCounter("midas_journal_torn_tail_total")->Increment();
    }
  };

  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      torn("torn header at byte " + std::to_string(pos));
      break;
    }
    std::istringstream header(content.substr(pos, eol - pos));
    std::string tag;
    uint64_t seq = 0;
    size_t payload_size = 0;
    std::string crc_hex;
    if (!(header >> tag >> seq >> payload_size >> crc_hex) ||
        (tag != "@B" && tag != "@C" && tag != "@L")) {
      torn("malformed record header at byte " + std::to_string(pos));
      break;
    }
    size_t payload_begin = eol + 1;
    if (payload_begin + payload_size + 1 > content.size()) {
      torn("torn payload at byte " + std::to_string(payload_begin));
      break;
    }
    std::string payload = content.substr(payload_begin, payload_size);
    if (content[payload_begin + payload_size] != '\n') {
      torn("missing record terminator at byte " +
           std::to_string(payload_begin + payload_size));
      break;
    }
    if (Crc32Hex(Crc32(payload)) != crc_hex) {
      torn("checksum mismatch in record seq " + std::to_string(seq));
      break;
    }
    pos = payload_begin + payload_size + 1;

    if (tag == "@B") {
      // Sequence sanity: seqs must advance. A batch record at or below the
      // last *committed* seq (or below an uncommitted retry's seq) cannot
      // come from a healthy writer even when its CRC is intact — treat it
      // as corruption and stop trusting the tail. Equality with an
      // uncommitted predecessor is legal: a failed round retried without a
      // checkpoint re-appends the same seq.
      if (!result.rounds.empty()) {
        const JournalRound& last = result.rounds.back();
        bool regressed = last.committed ? seq <= last.seq : seq < last.seq;
        if (regressed) {
          torn("seq regression: batch record seq " + std::to_string(seq) +
               " after " + (last.committed ? "committed" : "in-flight") +
               " round seq " + std::to_string(last.seq));
          break;
        }
      }
      JournalRound round;
      round.seq = seq;
      std::string parse_error;
      if (!ParseBatchPayload(payload, dict, &round.batch, &parse_error)) {
        torn(parse_error);
        break;
      }
      result.rounds.push_back(std::move(round));
    } else if (tag == "@L") {
      // Lineage delta for the in-flight round: must follow its batch record
      // and precede the commit. A duplicate is a writer that never exists.
      if (result.rounds.empty() || result.rounds.back().seq != seq ||
          result.rounds.back().committed ||
          !result.rounds.back().lineage_delta.empty()) {
        torn("lineage record seq " + std::to_string(seq) +
             " without matching batch record");
        break;
      }
      result.rounds.back().lineage_delta = std::move(payload);
    } else {  // @C
      if (result.rounds.empty() || result.rounds.back().seq != seq ||
          result.rounds.back().committed) {
        torn("commit record seq " + std::to_string(seq) +
             " without matching batch record");
        break;
      }
      std::istringstream in(payload);
      PatternSet panel;
      // Preserve the panel's on-disk pattern ids: they anchor the
      // provenance ledger, so recovery must reinstall them verbatim.
      if (!ReadPatternSet(in, dict, &panel, /*preserve_ids=*/true)) {
        torn("unparseable panel in commit record seq " + std::to_string(seq));
        break;
      }
      result.rounds.back().panel = std::move(panel);
      result.rounds.back().committed = true;
    }
  }
  return result;
}

}  // namespace midas
