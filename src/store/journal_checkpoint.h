// Journal checkpointing against the SnapshotStore.
//
// CheckpointJournal serializes a SyscallJournal's entire logical log — the
// previously folded prefix (re-read from the store) plus the live suffix —
// into per-thread-path append-only streams, publishes the result as one
// content-addressed snapshot, and truncates the live entries from memory
// (SyscallJournal::FoldPrefix). Because serialization is deterministic and
// streams only ever grow, consecutive checkpoint generations share all but
// their tail chunks, so folding is cheap after the first time.
//
// RehydrateJournal is the inverse: before a truncated journal can drive a
// replay, its folded prefix is fetched from the store (paying interconnect
// time for chunks the target replica doesn't already cache), deserialized,
// and reinstated, restoring the full in-memory log. Replay from
// (checkpoint + suffix) is therefore bit-identical to replay from a journal
// that never truncated: it IS the same entry sequence.
//
// The serializers are also used stand-alone: KV-file record streams for
// cross-replica prefix sharing, and serialized sizes for delta-migration
// ship accounting.
#ifndef SRC_STORE_JOURNAL_CHECKPOINT_H_
#define SRC_STORE_JOURNAL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/kvfs.h"
#include "src/recovery/journal.h"
#include "src/store/snapshot_store.h"

namespace symphony {

// ---- Deterministic binary codec (little-endian, fixed-width) ------------

// Appends one journal entry to a stream; the encoding is append-only stable:
// serializing entries [0, n) then [0, m), m > n, yields byte-identical
// prefixes, which is what makes checkpoint chunks dedup across generations.
// The entry's encoded size is computed once, the stream grows once, and the
// fields are written in place, each little-endian one byte at a time; the
// byte format is the one the codec has always written.
void AppendJournalEntry(std::string* out, const JournalEntry& entry);
std::string SerializeJournalEntries(const std::vector<JournalEntry>& entries);
StatusOr<std::vector<JournalEntry>> ParseJournalEntries(
    const std::string& bytes);

// KV-file record streams (cross-replica prefix sharing).
std::string SerializeTokenRecords(const std::vector<TokenRecord>& records);
StatusOr<std::vector<TokenRecord>> ParseTokenRecords(const std::string& bytes);

// Serialized size of the live (post-checkpoint) suffix / the whole resident
// log: the bytes a delta / full migration ships. Summed from the entries'
// encoded sizes; nothing is encoded.
uint64_t JournalLiveBytes(const SyscallJournal& journal);

// ---- Checkpoint fold / rehydrate ----------------------------------------

struct CheckpointOutcome {
  uint64_t key = 0;              // New checkpoint snapshot.
  uint64_t folded_entries = 0;   // Entries truncated by this fold.
  uint64_t new_bytes = 0;        // Chunk bytes the publish actually added.
};

// Folds every live entry of `journal` into a new store snapshot published
// from `replica`, releasing the superseded checkpoint. No-op success when
// nothing is live. Fails without touching the journal if the previous
// checkpoint cannot be re-read (e.g. a corruption window) — the journal just
// stays fatter until the next interval crossing.
StatusOr<CheckpointOutcome> CheckpointJournal(SnapshotStore& store,
                                              size_t replica,
                                              uint64_t model_fingerprint,
                                              SyscallJournal& journal);

struct RehydrateOutcome {
  uint64_t entries_restored = 0;
  uint64_t bytes_fetched = 0;     // Moved over the interconnect.
  SimDuration transfer_time = 0;  // Cost-model charge for those bytes.
};

// Reinstates `journal`'s folded prefix from its checkpoint snapshot so a
// full-log replay can run at `replica`. No-op success when nothing is
// folded. The checkpoint reference is kept: its chunks stay alive for the
// next fold's dedup and for other replicas' imports.
StatusOr<RehydrateOutcome> RehydrateJournal(SnapshotStore& store,
                                            size_t replica,
                                            SyscallJournal& journal);

}  // namespace symphony

#endif  // SRC_STORE_JOURNAL_CHECKPOINT_H_
