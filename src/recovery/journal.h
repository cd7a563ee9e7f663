// Syscall journaling for LIP checkpoint/restore (crash recovery + migration).
//
// A LIP is a deterministic function of its system-call results: given the
// same pred distributions, tool outputs, IPC deliveries, and RNG stream, the
// program makes the same decisions and emits the same output. Symphony never
// serializes a C++ coroutine frame; instead the runtime records, per LIP, an
// ordered per-thread log of completed syscall results. Re-launching the same
// program with (a) the journaled RNG seed and (b) the log fed back at the
// syscall boundary fast-forwards it deterministically to its pre-failure
// point on any replica — the record/replay insight of deterministic
// simulation applied to serving.
//
// What is recorded, and how each class of nondeterminism is replayed:
//   * pred     — entry per completed call: tokens, the start position (the
//                file length the pred continued), and the hidden state after
//                each token (the Distribution is reconstructible from state +
//                model config, and the states ARE the KV-file records, i.e.
//                the journal doubles as an incremental KvFileSnapshot of
//                every file the LIP wrote).
//   * tools    — entry per completed call: status + output payload.
//   * sleep    — entry per completed sleep; replay skips the wait.
//   * IPC recv — entry per delivered message (channel + per-channel receive
//                ordinal + payload). Every channel runs on the IPC fabric
//                (src/net), and replay serves the recv verbatim from the
//                journal (same discipline as tool results), so ONE endpoint
//                of a communicating pair can be killed and replayed while
//                the other keeps running live.
//   * IPC send — entry per completed send (channel + payload). Replay
//                consumes and SUPPRESSES the send — the original message
//                already reached (or is queued for) the peer, and re-sending
//                would duplicate it. A send that parked for a channel credit
//                completes, and is journaled, when the fabric grants it one;
//                its entry carries the grant ordinal + 1 (0 for a send that
//                never parked). Replay hands that ordinal to the thread's
//                next live blocked send on the channel, which re-parks behind
//                its LIP's senders with earlier grants. A send still parked
//                when its replica died left no entry, so a replay does not
//                restore its place among the senders.
//   * RNG      — replayed by reseeding: the journal stores the LIP's rng
//                seed and the program re-draws the identical stream, so
//                individual draws need no log entries.
//   * KV calls — re-executed against the target replica's KVFS; results are
//                deterministic in program order, so re-execution rebuilds
//                handle lineage (and, with it, per-LIP page accounting).
//
// Thread identity across replicas: numeric ThreadIds are allocator-dependent,
// so logs are keyed by the thread's *spawn path* — "0" for the root thread,
// parent.path + "." + k for the k-th thread the parent spawned. The path is
// invariant under replay regardless of interleaving.
//
// One entry answers one syscall: a replayed syscall is served by its
// thread's next entry when that entry has the syscall's kind, and an entry
// of another kind ends the replay as diverged (LipRuntime::Replayed).
//
// Determinism contract: replay guarantees bit-identical output for programs
// that are data-race-free under the LIP memory model — cross-thread effects
// (emit order, shared KV writes, multi-consumer channels) must be ordered by
// program order or synchronization (join / recv / kv_lock). Programs that
// branch on wall-clock virtual time (ctx.now()) are outside the contract.
//
// Checkpoint truncation (src/store): long-lived LIPs would otherwise grow
// their journal without bound, so the cluster can install a fold hook that
// periodically serializes the whole log into the content-addressed snapshot
// store and truncates the folded prefix from memory. Indices stay LOGICAL:
// At/EntryCount/total_entries keep counting from the beginning of time, and
// a folded index answers nullptr from At (FoldedAt distinguishes "truncated"
// from "past the end"). A journal with a folded prefix must be rehydrated
// from the store (store/journal_checkpoint.h) before it can drive a replay.
#ifndef SRC_RECOVERY_JOURNAL_H_
#define SRC_RECOVERY_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/types.h"
#include "src/model/tokenizer.h"
#include "src/sim/time.h"

namespace symphony {

// How a journaled LIP's KV state is rebuilt on the target replica.
enum class RecoveryMode {
  // Pick kImportSnapshot or kRecompute per LIP, whichever the cost model
  // says is cheaper for its journaled token count.
  kAuto,
  // Re-run every journaled pred on the target device: pays the full prefill
  // compute again, needs no KV transfer.
  kRecompute,
  // Feed pred results from the journal and import the journaled TokenRecords
  // into the KV file on the host tier (a KvFileSnapshot import); the next
  // live pred restores them on-device, paying only PCIe.
  kImportSnapshot,
};

inline const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kAuto:
      return "auto";
    case RecoveryMode::kRecompute:
      return "recompute";
    case RecoveryMode::kImportSnapshot:
      return "import";
  }
  return "?";
}

// The codec writes `kind` as its byte value; the values 0-4 are fixed.
struct JournalEntry {
  enum class Kind : uint8_t { kPred, kTool, kSleep, kRecv, kSend };
  Kind kind = Kind::kPred;
  Status status{};  // Completion status (pred and tool entries).

  // kPred: the request and the resulting per-token hidden states. states[i]
  // is the state after consuming tokens[i] at position start + i; together
  // these are exactly the TokenRecords the executor appended.
  std::vector<TokenId> tokens{};
  int32_t start = 0;
  std::vector<uint64_t> states{};

  // kTool: output payload. kRecv/kSend: the message.
  std::string payload{};

  // kSleep: requested duration (replay skips the wait).
  SimDuration duration = 0;

  // kRecv/kSend: the channel name. kRecv records the channel's delivery
  // ordinal, which replay uses to re-park the thread's next live recv on the
  // channel (the fabric's counters are not rewound by replay, so it is never
  // divergence-checked). kSend records the channel's credit grant ordinal + 1
  // for a send that parked for a credit, and 0 for one that did not.
  std::string channel{};
  uint64_t ordinal = 0;
};

// Per-LIP journal. Owned jointly by the serving layer (which keeps it across
// the LIP's death) and the runtime (which appends to it); copy the journal
// before handing it to a replay so the original stays a consistent record.
class SyscallJournal {
 public:
  // ---- Launch metadata (everything needed to re-launch the LIP) ---------
  // Filled by LipRuntime::EnableJournal and kept current by SetQuota and
  // SetDeadline; Replayer::Replay hands each back to the new incarnation.
  std::string name;
  uint64_t rng_seed = 0;
  // The LIP's limits (default unlimited), so a replayed LIP resumes under the
  // same ones; usage itself is rebuilt by re-execution (see runtime.cc).
  LipQuota quota;
  // Absolute deadline, 0 = none: recovery re-arms it so a replayed LIP
  // cannot outlive the budget its original admission granted. (Replay itself
  // is exempt from rejection while the log serves — see
  // LipRuntime::SetDeadline.)
  SimTime deadline = 0;

  // ---- The log ----------------------------------------------------------

  // Per-thread log: `folded` entries have been truncated into the checkpoint
  // snapshot; `live` holds everything since. Logical index i maps to
  // live[i - folded].
  struct ThreadLog {
    uint64_t folded = 0;
    std::vector<JournalEntry> live;
  };

  const std::unordered_map<std::string, ThreadLog>& threads() const {
    return threads_;
  }

  void Append(const std::string& thread_path, JournalEntry entry) {
    if (entry.kind == JournalEntry::Kind::kPred) {
      pred_tokens_ += entry.tokens.size();
    }
    ++total_entries_;
    threads_[thread_path].live.push_back(std::move(entry));
    MaybeFold();
  }

  // Entry at LOGICAL `index` within `thread_path`'s log; nullptr past the
  // end — and for folded indices, which FoldedAt tells apart.
  const JournalEntry* At(const std::string& thread_path, size_t index) const {
    auto it = threads_.find(thread_path);
    if (it == threads_.end() || index < it->second.folded) {
      return nullptr;
    }
    size_t offset = index - it->second.folded;
    return offset < it->second.live.size() ? &it->second.live[offset] : nullptr;
  }

  // True when `index` was truncated into the checkpoint: its entry is in the
  // snapshot store, not in memory.
  bool FoldedAt(const std::string& thread_path, size_t index) const {
    auto it = threads_.find(thread_path);
    return it != threads_.end() && index < it->second.folded;
  }

  // Logical entry count (folded prefix included).
  size_t EntryCount(const std::string& thread_path) const {
    auto it = threads_.find(thread_path);
    return it == threads_.end() ? 0
                                : it->second.folded + it->second.live.size();
  }

  uint64_t total_entries() const { return total_entries_; }

  // Tokens across all journaled preds: the "cached tokens" a recovery must
  // rebuild, and the input to the recompute-vs-import cost decision.
  uint64_t pred_tokens() const { return pred_tokens_; }

  // ---- Checkpoint truncation (src/store) --------------------------------

  // Entries resident in memory / truncated into the checkpoint.
  uint64_t folded_entries() const { return folded_entries_; }
  uint64_t live_entries() const { return total_entries_ - folded_entries_; }

  // Snapshot-store manifest key holding the folded prefix; 0 = none. The
  // journal owns one store reference to it (released when the LIP completes
  // or the next fold supersedes it).
  uint64_t checkpoint_key() const { return checkpoint_key_; }

  // Fold hook, installed by the serving layer: called from Append once
  // live_entries() reaches `interval`, with this journal as argument. The
  // hook is expected to publish the serialized log to the snapshot store and
  // call FoldPrefix; a hook that fails and does neither simply leaves the
  // journal fatter until the next interval crossing.
  using FoldHook = std::function<void(SyscallJournal&)>;
  void set_fold_hook(FoldHook hook, uint64_t interval) {
    fold_hook_ = std::move(hook);
    fold_interval_ = interval;
  }

  // Truncates every live entry into checkpoint `key` (the caller has already
  // published the serialized prefix covering them).
  void FoldPrefix(uint64_t key) {
    for (auto& entry : threads_) {
      ThreadLog& log = entry.second;
      log.folded += log.live.size();
      folded_entries_ += log.live.size();
      log.live.clear();
    }
    checkpoint_key_ = key;
  }

  // Reinstates the folded prefix of one thread from deserialized entries
  // (rehydration before replay). `prefix` must hold exactly the folded count.
  Status ReinstatePrefix(const std::string& thread_path,
                         std::vector<JournalEntry> prefix) {
    auto it = threads_.find(thread_path);
    if (it == threads_.end()) {
      return NotFoundError("no journaled thread " + thread_path);
    }
    ThreadLog& log = it->second;
    if (prefix.size() != log.folded) {
      return InternalError("checkpoint prefix length mismatch for thread " +
                           thread_path);
    }
    for (JournalEntry& entry : log.live) {
      prefix.push_back(std::move(entry));
    }
    log.live = std::move(prefix);
    folded_entries_ -= log.folded;
    log.folded = 0;
    return Status::Ok();
  }

  // Drops the checkpoint reference without releasing it: ownership moved to
  // another journal object (the replay copy made by ReplayOnto).
  void AbandonCheckpoint() { checkpoint_key_ = 0; }

  // Set from BeginReplay to FinishReplay: no fold while a replay serves
  // entries, or a thread that went live could fold away entries another
  // thread has not replayed yet. The next Append folds if one is due.
  void set_replay_hold(bool hold) { replay_hold_ = hold; }

 private:
  void MaybeFold() {
    if (!fold_hook_ || folding_ || replay_hold_ || fold_interval_ == 0 ||
        live_entries() < fold_interval_) {
      return;
    }
    folding_ = true;
    fold_hook_(*this);
    folding_ = false;
  }

  std::unordered_map<std::string, ThreadLog> threads_;
  uint64_t total_entries_ = 0;
  uint64_t pred_tokens_ = 0;
  uint64_t folded_entries_ = 0;
  uint64_t checkpoint_key_ = 0;
  FoldHook fold_hook_;
  uint64_t fold_interval_ = 0;
  bool folding_ = false;
  bool replay_hold_ = false;
};

}  // namespace symphony

#endif  // SRC_RECOVERY_JOURNAL_H_
