// The LIP runtime: processes, threads, and the thread-level scheduler.
//
// LipRuntime plays the role of the OS process layer in the paper's design
// (§4.3): a LIP is a process with one or more threads; threads block on
// system calls (pred, tool I/O, IPC, sleep) and are resumed by the thread
// scheduler in virtual time. The batch inference scheduler is a separate
// component behind the PredService interface — together they form the
// two-level scheduling scheme of §4.4.
#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/kvfs/kvfs.h"
#include "src/model/model_config.h"
#include "src/model/tokenizer.h"
#include "src/recovery/journal.h"
#include "src/runtime/pred_service.h"
#include "src/runtime/task.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"

namespace symphony {

class LipContext;
using LipProgram = std::function<Task(LipContext&)>;

// IPC fabric interface (implemented by src/net's IpcFabric; the runtime sees
// only this so the dependency arrow stays net -> runtime). Every channel
// syscall delegates here: a standalone SymphonyServer attaches a one-replica
// fabric, a SymphonyCluster one fabric shared by every replica. A channel's
// home is the replica+LIP that receives on it, sends from other replicas
// traverse a simulated link, and delivery is journaled at the receiving
// LIP's syscall boundary (per-channel receive ordinals) so one endpoint of a
// pair can be killed and replayed while the other keeps running live.
class ChannelFabric {
 public:
  virtual ~ChannelFabric() = default;
  // Attempts to accept a message from `sender` on `replica`. Returns true
  // and consumes *message when the channel has a credit (or is unbounded);
  // returns false — leaving *message intact — when the channel is out of
  // credits or other senders are already parked (FIFO: a fresh send never
  // overtakes them), in which case the caller parks via AddSendWaiter.
  // Delivery failures after acceptance (partition past the deadline) surface
  // through channel state and counters, never to the sender.
  virtual bool TrySend(size_t replica, LipId sender, const std::string& channel,
                       std::string* message) = 0;
  // Parks `waiter` (FIFO among blocked senders) until a credit frees, at
  // which point the fabric calls LipRuntime::CompleteBlockedSend to take the
  // message out of `slot`. `resume_grant` is 0 for a live park; a replayed
  // thread whose last journal-served send on this channel had parked for
  // grant ordinal g passes g+1, and the fabric slots it among its LIP's
  // parked senders in hint order — the sender-side mirror of AddWaiter's
  // resume_ordinal. A send that was parked but not granted when
  // its replica died left no journal entry, so its place is not restored.
  virtual void AddSendWaiter(size_t replica, LipId sender,
                             const std::string& channel, ThreadId waiter,
                             std::string* slot, uint64_t resume_grant) = 0;
  // Non-blocking receive by `receiver` on `replica`; registers (or re-homes)
  // the channel's endpoint. On success fills `message` and the delivery
  // `ordinal`.
  virtual bool TryRecv(size_t replica, LipId receiver,
                       const std::string& channel, std::string* message,
                       uint64_t* ordinal) = 0;
  // Blocks `waiter` (FIFO among waiters) until a message is delivered via
  // LipRuntime::DeliverToWaiter. Registers the endpoint like TryRecv.
  // `resume_ordinal` is 0 for a live wait; a replayed thread whose last
  // journal-served recv on this channel had delivery ordinal k passes k+1,
  // and the fabric slots it among its LIP's waiters in ordinal order — that
  // restores the place of each waiter that had been delivered to, which is
  // runtime state the journal does not otherwise capture. A recv that was
  // parked but never delivered to when its replica died left no journal
  // entry, so its place is not restored.
  virtual void AddWaiter(size_t replica, LipId receiver,
                         const std::string& channel, ThreadId waiter,
                         std::string* slot, uint64_t resume_ordinal) = 0;
  // Scrubs the parked threads (receivers AND senders) of `lip` on `replica`
  // — of every LIP there when `lip` is kNoLip (a halted replica) — so a
  // later send is not swallowed by a dead consumer and a freed credit is not
  // granted to a dead sender.
  virtual void DropWaiters(size_t replica, LipId lip) = 0;
};

// A finished thread has no state: its slot is freed at exit, and its id
// reads as finished from then on.
enum class ThreadState : uint8_t {
  kReady,
  kRunning,
  kBlocked,
  // Forcibly detached (LIP migrated away). The coroutine frame is kept
  // allocated — in-flight completions may still write their result slots —
  // but the thread never resumes; ~LipRuntime reclaims the frame.
  kKilled,
};

struct RuntimeOptions {
  // CPU cost charged per thread resume (context switch).
  SimDuration resume_overhead = Micros(2);
  uint64_t seed = 42;
};

struct LipUsage {
  uint64_t pred_tokens = 0;
  uint64_t tool_calls = 0;
  uint32_t threads_spawned = 0;
  uint64_t kv_pages = 0;
};

struct RuntimeStats {
  uint64_t lips_launched = 0;
  uint64_t lips_completed = 0;
  uint64_t threads_spawned = 0;
  uint64_t context_switches = 0;
  uint64_t preds_submitted = 0;
  uint64_t ipc_messages = 0;
  // Cluster IPC fabric (src/net): replay served recvs from the journal /
  // suppressed re-sends whose original delivery already happened.
  uint64_t ipc_recvs_replayed = 0;
  uint64_t ipc_sends_suppressed = 0;
  // Credit flow control: journal-served sends that had parked for a credit
  // (the fabric counts live parks and grants).
  uint64_t ipc_credit_waits_replayed = 0;
  // Recovery (src/recovery): LIPs replayed from a journal.
  uint64_t lips_replayed = 0;
  uint64_t replay_tokens_imported = 0;    // KV rebuilt via snapshot import.
  uint64_t replay_tokens_recomputed = 0;  // KV rebuilt by re-running preds.
  uint64_t replay_divergences = 0;  // Live result disagreed with the journal.
  // Failure semantics (src/faults, src/serve): per-LIP deadline enforcement.
  uint64_t deadlines_expired = 0;     // LIPs whose deadline fired.
  uint64_t deadline_rejections = 0;   // Syscalls rejected after expiry.
};

class LipRuntime {
 public:
  LipRuntime(Simulator* sim, Kvfs* kvfs, RuntimeOptions options = {});
  ~LipRuntime();

  LipRuntime(const LipRuntime&) = delete;
  LipRuntime& operator=(const LipRuntime&) = delete;

  // Wiring; must be set before Launch for programs that use pred/tools.
  void set_pred_service(PredService* service) { pred_service_ = service; }
  void set_tool_service(ToolService* service) { tool_service_ = service; }
  void set_tokenizer(const Tokenizer* tokenizer) { tokenizer_ = tokenizer; }
  // Optional tracing: one span per LIP lifetime on track "lips".
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Attaches the IPC fabric (this runtime is replica `replica_index`); every
  // channel syscall delegates to it, so a runtime whose LIPs use channels
  // needs one before they run. IpcFabric::AttachReplica calls it. The fabric
  // must outlive the runtime.
  void set_channel_fabric(ChannelFabric* fabric, size_t replica_index) {
    fabric_ = fabric;
    replica_index_ = replica_index;
  }

  // Starts a new LIP. The program begins running in virtual time on the next
  // simulator dispatch. on_exit fires when the LIP's last thread finishes.
  //
  // An exited LIP is reaped to its exit record: its thread control blocks,
  // journal, replay state, context and RNG are freed, and only LipDone,
  // Output, DeadlineExpired and GetUsage keep answering for it.
  LipId Launch(std::string name, LipProgram program,
               std::function<void(LipId)> on_exit = nullptr);

  // Launch with an explicit RNG seed. Replicas decorrelate their default
  // seeds, so a replayed LIP must be pinned to the seed its journal recorded
  // for ctx.uniform()/rand64() to re-draw the identical stream.
  LipId LaunchWithSeed(std::string name, uint64_t rng_seed, LipProgram program,
                       std::function<void(LipId)> on_exit = nullptr);

  bool LipDone(LipId lip) const;
  size_t live_lips() const { return live_lips_; }

  // ---- Checkpoint/restore (src/recovery) -------------------------------

  // Attaches a journal; every completed syscall is recorded from then on.
  // Must be called before the LIP's first dispatch for a complete record.
  // Fills the journal's launch metadata (name, rng seed, quota, deadline)
  // from the process. The runtime shares ownership until the LIP exits; a
  // caller that reads the journal after exit keeps its own reference.
  void EnableJournal(LipId lip, std::shared_ptr<SyscallJournal> journal);

  // The journal attached to `lip`; nullptr when none is attached or the LIP
  // has exited (the runtime drops its reference at exit).
  std::shared_ptr<SyscallJournal> Journal(LipId lip) const;

  // Switches `lip` into replay: subsequent syscalls consume the attached
  // journal (per-thread, in order) instead of hitting live services, until
  // the log is exhausted — from then on the LIP runs live and keeps
  // recording. Mode must be resolved (not kAuto); kImportSnapshot needs the
  // model config to reconstruct Distributions from journaled states.
  Status BeginReplay(LipId lip, RecoveryMode mode, const ModelConfig* config);

  // Kills the whole runtime (replica failure): no thread ever resumes and
  // pending completions become no-ops, and the fabric scrubs every thread
  // this replica has parked on a channel (the one scrub of a dead replica).
  // Coroutine frames stay allocated until destruction so in-flight
  // completions writing result slots stay safe.
  void Halt();
  bool halted() const { return halted_; }

  // Forcibly detaches one live LIP (live migration): marks its threads
  // killed, closes its KV handles, and fires no on_exit. The attached
  // journal survives and can be replayed elsewhere.
  Status Detach(LipId lip);

  // Resource accounting (§6). Quotas may be set any time; enforcement is at
  // the system-call boundary from then on. The page limit is handed to KVFS
  // (Kvfs::SetPageQuota), which enforces it and counts the pages.
  void SetQuota(LipId lip, LipQuota quota);
  LipUsage GetUsage(LipId lip) const;

  // Arms an absolute per-LIP deadline. When it fires, queued/pending preds
  // are cancelled (PredService::CancelLip), the LIP's open KV handles are
  // closed (releasing its page quota), and every further pred/tool syscall
  // fails fast with kDeadlineExceeded — the LIP consumes no more decode
  // steps. Re-arming with a later time supersedes the earlier deadline.
  // During journal replay the expiry is recorded but rejection and handle
  // teardown are deferred until the journal is exhausted: replay compresses
  // virtual time, and the journal already holds what actually happened.
  void SetDeadline(LipId lip, SimTime deadline);
  bool DeadlineExpired(LipId lip) const;

  // Text emitted by the LIP via LipContext::emit.
  const std::string& Output(LipId lip) const;

  const RuntimeStats& stats() const { return stats_; }
  Simulator* simulator() { return sim_; }
  Kvfs* kvfs() { return kvfs_; }
  const Tokenizer* tokenizer() const { return tokenizer_; }

  // ---- Internal surface used by LipContext and its awaitables ----------

  ThreadId current_thread() const { return current_; }

  // kDeadlineExceeded, counted in deadline_rejections, when `thread`'s LIP is
  // past its deadline and the journal does not serve this `kind` syscall
  // (see ReplayServes); OK otherwise. pred and tool syscalls check it
  // before anything else is charged, and LipContext::pred when its length
  // lookup fails (the expiry closed the LIP's handles).
  Status CheckDeadline(ThreadId thread, JournalEntry::Kind kind);

  // Spawns a thread in `lip` running `program`; returns its id, or 0 when
  // the LIP's thread quota is exhausted (joining id 0 is a no-op). Ids are
  // opaque and not monotonic: a finished thread's slot is reused, and its
  // old id keeps reading as finished.
  ThreadId SpawnThread(LipId lip, LipProgram program);

  // Marks the current thread blocked (called from await_suspend).
  void BlockCurrent();

  // Records the coroutine frame to resume when the current thread next
  // wakes. Awaitables call this from await_suspend with their own handle so
  // that wake-ups resume the actual suspended frame (which may be a child
  // Task deep in a co_await chain, not the thread's top-level coroutine).
  void SetResumePoint(std::coroutine_handle<> frame);

  // Makes `thread` runnable; it resumes after resume_overhead.
  void Ready(ThreadId thread);

  // pred syscall plumbing. The completion callback writes into `result`
  // (which lives in the suspended coroutine frame) and wakes the thread.
  // `start` is the file length the pred continues.
  void SubmitPred(ThreadId thread, KvHandle kv, std::vector<TokenId> tokens,
                  int32_t start, PredResult* result);

  // Tool-call plumbing.
  void SubmitTool(ThreadId thread, const std::string& tool, const std::string& args,
                  ToolResult* result);

  // Sleep plumbing (journaled so replay can skip already-served waits).
  // Caller must have set the resume point; the thread blocks here.
  void SubmitSleep(ThreadId thread, SimDuration duration);

  // Join bookkeeping.
  bool ThreadDone(ThreadId thread) const;
  void AddJoiner(ThreadId target, ThreadId waiter);
  void AddJoinAllWaiter(LipId lip, ThreadId waiter);

  // IPC channels (named, FIFO; bounded by credits when the fabric is
  // configured). Each delegates to the attached ChannelFabric (see above)
  // and runs on the current thread: LIP code runs only inside Resume, since
  // a Task starts suspended.
  //
  // ChannelTrySend returns true when the send completed (accepted by the
  // fabric or suppressed by replay) and false when the channel is out of
  // credits: *message is left intact and the caller must park via
  // ChannelAddSendWaiter (the send awaitable's await_suspend). A blocked
  // send is journaled at grant time (CompleteBlockedSend), not at park time,
  // so the journal records only COMPLETED syscalls. A sender killed while
  // parked re-runs the send live on replay and parks again, behind its LIP's
  // senders with earlier journaled grants; a credit freed before it parks
  // goes to whichever thread sends first, so the original sender order is
  // not guaranteed.
  bool ChannelTrySend(const std::string& channel, std::string* message);
  void ChannelAddSendWaiter(const std::string& channel, ThreadId waiter,
                            std::string* slot);
  bool ChannelTryRecv(const std::string& channel, std::string* message);
  void ChannelAddWaiter(const std::string& channel, ThreadId waiter,
                        std::string* slot);

  // Fabric delivery into a blocked recv: writes `slot`, journals the
  // delivery, and wakes the thread. Returns false — without consuming the
  // message — when the runtime is halted or the thread is killed/done, so
  // the fabric can keep the message queued for forwarding instead.
  bool DeliverToWaiter(ThreadId thread, std::string* slot,
                       const std::string& channel, uint64_t ordinal,
                       const std::string& message);

  // Fabric grant of a credit to a blocked send: journals the send (one
  // kSend whose ordinal is `grant_ordinal` + 1), moves the parked message out
  // of `slot` into *bytes, and wakes the thread. Returns false — leaving the
  // credit and the grant ordinal unconsumed — when the runtime is halted or
  // the thread is killed/done, so the fabric skips to the next parked sender.
  bool CompleteBlockedSend(ThreadId thread, std::string* slot,
                           const std::string& channel, uint64_t grant_ordinal,
                           std::string* bytes);

  void Emit(LipId lip, std::string_view text);
  Rng& LipRng(LipId lip);
  void TrackHandle(LipId lip, KvHandle handle);
  void UntrackHandle(LipId lip, KvHandle handle);

 private:
  // A thread's control block. It lives in a slot of threads_ that is
  // allocated once and reused, so its address stays valid across spawns. Its
  // id is the 1-based slot index (low 32 bits) and the slot's generation
  // (high 32 bits); freeing the slot bumps the generation, so a finished
  // thread's id never names the slot's next thread.
  struct Tcb {
    // In a free slot: the next generation, with 0 in the low bits, which no
    // issued id has.
    ThreadId id = 0;
    LipId lip = kNoLip;
    ThreadState state = ThreadState::kReady;
    std::coroutine_handle<Task::promise_type> handle;
    // The frame to resume at the next wake-up (innermost suspended frame).
    std::coroutine_handle<> resume_point;
    // The pred, tool call or sleep the thread is blocked in (a thread blocks
    // on one syscall at a time), so its completion captures only
    // [this, thread]: the result slot in the suspended frame, a pred's start,
    // recompute-verify index and tokens to journal, and a sleep's duration.
    struct Syscall {
      PredResult* pred = nullptr;
      ToolResult* tool = nullptr;
      int32_t start = 0;
      std::optional<size_t> verify_index;
      std::vector<TokenId> tokens;
      SimDuration duration = 0;
    };
    Syscall call;
    std::vector<ThreadId> joiners;
    // Keeps the program callable alive for the coroutine's lifetime: a
    // lambda coroutine's captures live in the lambda object, not the frame.
    LipProgram program;
    // Spawn path ("0", "0.0", "0.1.2", ...): replica-invariant thread
    // identity used to key the syscall journal (see journal.h).
    std::string path = "0";
    // Number of threads this thread has spawned (next child path suffix).
    uint32_t spawn_seq = 0;
    // Per-channel re-park hint: ordinal after the last journal-served recv.
    // Consumed by this thread's first live recv on the channel (see
    // ChannelFabric::AddWaiter's resume_ordinal).
    std::unordered_map<std::string, uint64_t> replay_recv_resume;
    // Sender-side mirror: the kSend ordinal (grant + 1) of the last
    // journal-served send that had parked, consumed by this thread's first
    // live blocked send on the channel (see ChannelFabric::AddSendWaiter's
    // resume_grant).
    std::unordered_map<std::string, uint64_t> replay_send_resume;
  };

  // A live LIP's kernel state, in a slot of processes_ that is allocated once
  // and reused, so its address stays valid across launches. A detached LIP
  // keeps its slot. Reap() moves what post-exit queries read into an
  // ExitRecord and frees the slot for the next launch.
  struct Process {
    LipId id = kNoLip;
    std::string name;
    std::unique_ptr<LipContext> context;
    std::unique_ptr<Rng> rng;
    uint32_t live_threads = 0;
    std::vector<ThreadId> join_all_waiters;
    std::vector<KvHandle> open_handles;
    std::string output;
    std::function<void(LipId)> on_exit;
    // Set by Detach; a reaped LIP has no Process.
    bool done = false;
    LipQuota quota;
    LipUsage usage;
    SimTime launch_time = 0;
    // Absolute deadline (0 = none) and whether it has fired.
    SimTime deadline = 0;
    bool expired = false;
    // The seed actually used for `rng` (recorded into the journal).
    uint64_t rng_seed = 0;
    // Checkpoint/restore state (nullptr when recovery is not in use).
    std::shared_ptr<SyscallJournal> journal;
    // Set while the LIP replays its journal, from BeginReplay of a non-empty
    // journal until FinishReplay.
    struct ReplayState {
      RecoveryMode mode = RecoveryMode::kRecompute;
      const ModelConfig* config = nullptr;  // For kImportSnapshot.
      // Per-thread-path read cursor into the journal, and the path's entry
      // count when replay began: entries the thread appends live past that
      // end are never served back to it as journaled.
      struct Cursor {
        size_t next = 0;
        size_t end = 0;
      };
      std::unordered_map<std::string, Cursor> cursor;
      uint64_t remaining = 0;  // Entries not yet consumed; 0 ends the replay.
      SimTime start = 0;
    };
    std::unique_ptr<ReplayState> replay;
  };

  // What is left of a reaped LIP: what LipDone, Output, DeadlineExpired and
  // GetUsage read after exit.
  struct ExitRecord {
    std::string output;
    LipUsage usage;
    bool expired = false;
  };

  void Resume(ThreadId thread);
  // CheckDeadline for a thread whose control block and process the caller
  // already holds.
  Status CheckDeadline(Process& proc, const Tcb& tcb, JournalEntry::Kind kind);
  // `thread`'s control block while a completion or delivery may still wake
  // it: the runtime is not halted and the thread is neither finished
  // (its slot freed) nor killed. nullptr otherwise.
  Tcb* Waiting(ThreadId thread);
  void OnThreadExit(Tcb& tcb);
  // Frees a finished thread's slot for the next spawn.
  void FreeThread(Tcb& tcb);
  // Process exit: closes the LIP's open handles, keeps its exit record,
  // frees its slot and schedules on_exit.
  void Reap(Process& proc);
  // Closes and forgets every KV handle the LIP holds.
  void CloseHandles(Process& proc);
  // An expired LIP's teardown: cancels its queued preds and closes its
  // handles, releasing its KV pages.
  void TearDownExpired(Process& proc);
  // The control block `thread` names; nullptr once the thread has finished.
  Tcb* FindTcb(ThreadId thread) const;
  Tcb& GetTcb(ThreadId thread);
  // A live or detached LIP's state; nullptr once it is reaped, or for an id
  // this runtime never issued.
  Process* FindProcess(LipId lip) const;
  Process& GetProcess(LipId lip);
  const Process& GetProcess(LipId lip) const;
  // A reaped LIP's exit record; nullptr otherwise.
  const ExitRecord* FindExit(LipId lip) const;
  LipId next_lip() const {
    return static_cast<LipId>(kAdminLip + 1 + lips_.size());
  }
  // Syscall completions: each finishes the call `thread` is blocked in from
  // its Tcb's `call`, journals it unless the thread is killed or the runtime
  // halted, and wakes the thread.
  void CompletePred(ThreadId thread, PredResult r);
  void CompleteTool(ThreadId thread, ToolResult r);
  void CompleteSleep(ThreadId thread);

  // Replay plumbing. NextReplayEntry returns the next journaled entry for
  // `tcb`'s thread, or nullptr when the LIP is not replaying or the entries
  // the path had when replay began are consumed (live from then on).
  const JournalEntry* NextReplayEntry(const Process& proc, const Tcb& tcb) const;
  // The one replay rule: the journal entry that answers `tcb`'s `kind`
  // syscall, or nullptr when the call runs live. A next entry of another
  // kind ends the replay as diverged. The caller serves the entry and then
  // consumes it.
  const JournalEntry* Replayed(Process& proc, const Tcb& tcb,
                               JournalEntry::Kind kind);
  // Advances `tcb`'s cursor past the entry Replayed returned; consuming the
  // last entry finishes the replay, so nothing may read proc.replay after.
  void ConsumeReplayEntry(Process& proc, const Tcb& tcb);
  // True while the journal's next entry for `tcb` is a `kind` entry, so a
  // `kind` syscall will be answered from it — deadline rejections are
  // suppressed for such calls (see SetDeadline). A rejected call was never
  // journaled, so the entry after it belongs to a later syscall. Unlike
  // Replayed it never ends the replay: a rejected call is no divergence.
  bool ReplayServes(const Process& proc, const Tcb& tcb,
                    JournalEntry::Kind kind) const;
  void ExpireDeadline(LipId lip, SimTime deadline);
  // Ends the replay: releases the journal's fold hold, runs a deferred
  // deadline teardown and drops the replay state.
  void FinishReplay(Process& proc, bool diverged);
  void ReplayDiverged(Process& proc, std::string_view what);
  // Appends a completed syscall to `tcb`'s journal path, when its LIP has a
  // journal.
  void Record(const Tcb& tcb, JournalEntry entry);

  Simulator* sim_;
  Kvfs* kvfs_;
  RuntimeOptions options_;
  PredService* pred_service_ = nullptr;
  ToolService* tool_service_ = nullptr;
  const Tokenizer* tokenizer_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  ChannelFabric* fabric_ = nullptr;
  size_t replica_index_ = 0;

  // Thread slots, one allocation each, and the free ones (the last freed is
  // reused first).
  std::vector<std::unique_ptr<Tcb>> threads_;
  std::vector<uint32_t> free_threads_;
  // Process slots, likewise.
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<uint32_t> free_processes_;
  // One entry per LIP launched, at lip - (kAdminLip + 1): its slot in
  // processes_, or kReaped | its record's index in exits_. LipIds stay
  // sequential: KVFS ownership, journals and cluster records key on them.
  static constexpr uint32_t kReaped = 1u << 31;
  std::vector<uint32_t> lips_;
  std::deque<ExitRecord> exits_;
  ThreadId current_ = 0;
  size_t live_lips_ = 0;
  bool halted_ = false;
  RuntimeStats stats_;
};

}  // namespace symphony

#endif  // SRC_RUNTIME_RUNTIME_H_
