#include "src/store/journal_checkpoint.h"

#include <algorithm>
#include <cassert>

namespace symphony {

namespace {

// Little-endian primitives. The simulator is single-platform per run, but a
// byte-stable encoding keeps chunk content addresses reproducible across
// builds, which property tests rely on. Each writes at `p` into space the
// caller has already sized, one byte at a time (no assumption about host
// endianness), and returns the position after it.

char* PutU8(char* p, uint8_t v) {
  *p++ = static_cast<char>(v);
  return p;
}

char* PutU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return p;
}

char* PutU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return p;
}

char* PutString(char* p, const std::string& s) {
  p = PutU32(p, static_cast<uint32_t>(s.size()));
  return std::copy(s.begin(), s.end(), p);
}

// Bytes AppendJournalEntry writes for `entry`, field by field: kind and
// status code, then each string and vector behind its 4-byte length, with
// the 4-byte start, the 8-byte duration and the 8-byte ordinal in between.
size_t EncodedSize(const JournalEntry& entry) {
  return 2 + (4 + entry.status.message().size()) + (4 + 4 * entry.tokens.size()) + 4 +
         (4 + 8 * entry.states.size()) + (4 + entry.payload.size()) + 8 +
         (4 + entry.channel.size()) + 8;
}

class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(bytes) {}

  bool AtEnd() const { return pos_ == bytes_.size(); }

  StatusOr<uint8_t> U8() {
    if (pos_ + 1 > bytes_.size()) {
      return Truncated();
    }
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  StatusOr<uint32_t> U32() {
    if (pos_ + 4 > bytes_.size()) {
      return Truncated();
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }

  StatusOr<uint64_t> U64() {
    if (pos_ + 8 > bytes_.size()) {
      return Truncated();
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }

  StatusOr<std::string> String() {
    SYMPHONY_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (pos_ + len > bytes_.size()) {
      return Truncated();
    }
    std::string s = bytes_.substr(pos_, len);
    pos_ += len;
    return s;
  }

 private:
  Status Truncated() const {
    return InternalError("truncated journal stream");
  }

  const std::string& bytes_;
  size_t pos_ = 0;
};

}  // namespace

void AppendJournalEntry(std::string* out, const JournalEntry& entry) {
  size_t at = out->size();
  out->resize(at + EncodedSize(entry));
  char* p = out->data() + at;
  p = PutU8(p, static_cast<uint8_t>(entry.kind));
  p = PutU8(p, static_cast<uint8_t>(entry.status.code()));
  p = PutString(p, entry.status.message());
  p = PutU32(p, static_cast<uint32_t>(entry.tokens.size()));
  for (TokenId token : entry.tokens) {
    p = PutU32(p, static_cast<uint32_t>(token));
  }
  p = PutU32(p, static_cast<uint32_t>(entry.start));
  p = PutU32(p, static_cast<uint32_t>(entry.states.size()));
  for (uint64_t state : entry.states) {
    p = PutU64(p, state);
  }
  p = PutString(p, entry.payload);
  p = PutU64(p, static_cast<uint64_t>(entry.duration));
  p = PutString(p, entry.channel);
  p = PutU64(p, entry.ordinal);
  assert(p == out->data() + out->size());
}

std::string SerializeJournalEntries(const std::vector<JournalEntry>& entries) {
  std::string out;
  for (const JournalEntry& entry : entries) {
    AppendJournalEntry(&out, entry);
  }
  return out;
}

StatusOr<std::vector<JournalEntry>> ParseJournalEntries(
    const std::string& bytes) {
  std::vector<JournalEntry> entries;
  Cursor cursor(bytes);
  while (!cursor.AtEnd()) {
    JournalEntry entry;
    SYMPHONY_ASSIGN_OR_RETURN(uint8_t kind, cursor.U8());
    entry.kind = static_cast<JournalEntry::Kind>(kind);
    SYMPHONY_ASSIGN_OR_RETURN(uint8_t code, cursor.U8());
    SYMPHONY_ASSIGN_OR_RETURN(std::string message, cursor.String());
    entry.status = Status(static_cast<StatusCode>(code), std::move(message));
    SYMPHONY_ASSIGN_OR_RETURN(uint32_t ntokens, cursor.U32());
    entry.tokens.reserve(ntokens);
    for (uint32_t i = 0; i < ntokens; ++i) {
      SYMPHONY_ASSIGN_OR_RETURN(uint32_t token, cursor.U32());
      entry.tokens.push_back(static_cast<TokenId>(token));
    }
    SYMPHONY_ASSIGN_OR_RETURN(uint32_t start, cursor.U32());
    entry.start = static_cast<int32_t>(start);
    SYMPHONY_ASSIGN_OR_RETURN(uint32_t nstates, cursor.U32());
    entry.states.reserve(nstates);
    for (uint32_t i = 0; i < nstates; ++i) {
      SYMPHONY_ASSIGN_OR_RETURN(uint64_t state, cursor.U64());
      entry.states.push_back(state);
    }
    SYMPHONY_ASSIGN_OR_RETURN(entry.payload, cursor.String());
    SYMPHONY_ASSIGN_OR_RETURN(uint64_t duration, cursor.U64());
    entry.duration = static_cast<SimDuration>(duration);
    SYMPHONY_ASSIGN_OR_RETURN(entry.channel, cursor.String());
    SYMPHONY_ASSIGN_OR_RETURN(entry.ordinal, cursor.U64());
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string SerializeTokenRecords(const std::vector<TokenRecord>& records) {
  std::string out(records.size() * 16, '\0');
  char* p = out.data();
  for (const TokenRecord& record : records) {
    p = PutU32(p, static_cast<uint32_t>(record.token));
    p = PutU32(p, static_cast<uint32_t>(record.position));
    p = PutU64(p, record.state);
  }
  return out;
}

StatusOr<std::vector<TokenRecord>> ParseTokenRecords(const std::string& bytes) {
  if (bytes.size() % 16 != 0) {
    return InternalError("truncated kv record stream");
  }
  std::vector<TokenRecord> records;
  records.reserve(bytes.size() / 16);
  Cursor cursor(bytes);
  while (!cursor.AtEnd()) {
    TokenRecord record;
    SYMPHONY_ASSIGN_OR_RETURN(uint32_t token, cursor.U32());
    record.token = static_cast<TokenId>(token);
    SYMPHONY_ASSIGN_OR_RETURN(uint32_t position, cursor.U32());
    record.position = static_cast<int32_t>(position);
    SYMPHONY_ASSIGN_OR_RETURN(record.state, cursor.U64());
    records.push_back(record);
  }
  return records;
}

uint64_t JournalLiveBytes(const SyscallJournal& journal) {
  uint64_t bytes = 0;
  for (const auto& [path, log] : journal.threads()) {
    // A thread with nothing live ships nothing — its path is already
    // implied by the folded checkpoint, so a fully-folded journal measures
    // zero (the degenerate delta ship: an empty packet, pure latency).
    if (log.live.empty()) {
      continue;
    }
    for (const JournalEntry& entry : log.live) {
      bytes += EncodedSize(entry);
    }
    bytes += path.size();
  }
  return bytes;
}

StatusOr<CheckpointOutcome> CheckpointJournal(SnapshotStore& store,
                                              size_t replica,
                                              uint64_t model_fingerprint,
                                              SyscallJournal& journal) {
  CheckpointOutcome outcome;
  outcome.key = journal.checkpoint_key();
  if (journal.live_entries() == 0) {
    return outcome;
  }

  // Each thread's stream is the previous checkpoint's stream (byte-identical
  // prefix, re-read from the store) extended by the live entries. Thread
  // paths sort so the snapshot key is independent of map iteration order.
  std::vector<std::pair<std::string, std::string>> prior;
  if (journal.folded_entries() > 0) {
    if (journal.checkpoint_key() == 0) {
      return InternalError("journal has folded entries but no checkpoint");
    }
    SYMPHONY_ASSIGN_OR_RETURN(
        FetchResult fetched, store.Fetch(replica, journal.checkpoint_key()));
    prior = std::move(fetched.streams);
  }

  SnapshotPayload payload;
  payload.label = "journal:" + journal.name;
  payload.model_fingerprint = model_fingerprint;
  payload.tokens = journal.pred_tokens();
  std::vector<std::string> paths;
  paths.reserve(journal.threads().size());
  for (const auto& [path, log] : journal.threads()) {
    paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    std::string stream;
    for (auto& [name, bytes] : prior) {
      if (name == path) {
        stream = std::move(bytes);
        break;
      }
    }
    const SyscallJournal::ThreadLog& log = journal.threads().at(path);
    size_t grown = stream.size();
    for (const JournalEntry& entry : log.live) {
      grown += EncodedSize(entry);
    }
    stream.reserve(grown);
    for (const JournalEntry& entry : log.live) {
      AppendJournalEntry(&stream, entry);
    }
    payload.streams.emplace_back(path, std::move(stream));
  }

  uint64_t previous = journal.checkpoint_key();
  PublishResult published = store.Publish(replica, payload);
  outcome.key = published.key;
  outcome.folded_entries = journal.live_entries();
  outcome.new_bytes = published.new_bytes;
  journal.FoldPrefix(published.key);
  if (previous != 0 && previous != published.key) {
    (void)store.Release(previous);
  }
  return outcome;
}

StatusOr<RehydrateOutcome> RehydrateJournal(SnapshotStore& store,
                                            size_t replica,
                                            SyscallJournal& journal) {
  RehydrateOutcome outcome;
  if (journal.folded_entries() == 0) {
    return outcome;
  }
  if (journal.checkpoint_key() == 0) {
    return InternalError("journal has folded entries but no checkpoint");
  }
  SYMPHONY_ASSIGN_OR_RETURN(FetchResult fetched,
                            store.Fetch(replica, journal.checkpoint_key()));
  outcome.bytes_fetched = fetched.bytes_fetched;
  outcome.transfer_time = fetched.transfer_time;
  for (auto& [path, bytes] : fetched.streams) {
    SYMPHONY_ASSIGN_OR_RETURN(std::vector<JournalEntry> entries,
                              ParseJournalEntries(bytes));
    // The stream holds the full history; entries beyond the folded count
    // cannot exist (fold always folds everything), so sizes must agree.
    outcome.entries_restored += entries.size();
    SYMPHONY_RETURN_IF_ERROR(
        journal.ReinstatePrefix(path, std::move(entries)));
  }
  return outcome;
}

}  // namespace symphony
