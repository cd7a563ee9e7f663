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
#include <string>
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

// Cluster IPC fabric interface (implemented by src/net's IpcFabric; the
// runtime sees only this so the dependency arrow stays net -> runtime).
// When attached, the runtime's channel syscalls delegate here and named
// channels become cluster-wide: a channel's home is the replica+LIP that
// receives on it, sends from other replicas traverse a simulated link, and
// delivery is journaled at the receiving LIP's syscall boundary (per-channel
// receive ordinals) so one endpoint of a pair can be killed and replayed
// while the other keeps running live. Without a fabric the legacy in-runtime
// channels (re-execution replay discipline) are used unchanged.
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
  // thread whose last journal-served credit wait on this channel had grant
  // ordinal g passes g+1 and the fabric slots it among its LIP's parked
  // senders in grant order — the sender-side mirror of AddWaiter's
  // resume_ordinal, reconstructing the original run's sender FIFO so
  // blocked-sender wakeup order stays bit-identical.
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
  // reconstructs the original run's waiter queue, which is runtime state the
  // journal does not otherwise capture (multi-waiter FIFO bit-identity).
  virtual void AddWaiter(size_t replica, LipId receiver,
                         const std::string& channel, ThreadId waiter,
                         std::string* slot, uint64_t resume_ordinal) = 0;
  // Scrubs pending waits (receivers AND parked senders) of one detached LIP
  // / a whole halted replica so a later send is not swallowed by a dead
  // consumer and a freed credit is not granted to a dead sender.
  virtual void DropWaiters(size_t replica, LipId lip) = 0;
  virtual void DropReplicaWaiters(size_t replica) = 0;
};

enum class ThreadState : uint8_t {
  kReady,
  kRunning,
  kBlocked,
  kDone,
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

// Per-LIP resource limits (paper §6: "resource accounting" for untrusted
// programs). Defaults are unlimited; the admin LIP is never limited.
struct LipQuota {
  uint64_t max_pred_tokens = UINT64_MAX;  // Total tokens across all preds.
  uint64_t max_tool_calls = UINT64_MAX;
  uint32_t max_threads = UINT32_MAX;      // Threads spawned over the lifetime.
  uint64_t max_kv_pages = UINT64_MAX;     // Page references held in KVFS.
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
  uint64_t tools_invoked = 0;
  uint64_t ipc_messages = 0;
  // Cluster IPC fabric (src/net): replay served recvs from the journal /
  // suppressed re-sends whose original delivery already happened.
  uint64_t ipc_recvs_replayed = 0;
  uint64_t ipc_sends_suppressed = 0;
  // Credit flow control: sends that parked for a credit / blocked sends
  // granted (journaled kCreditWait entries) / credit waits consumed from the
  // journal during replay.
  uint64_t ipc_sends_blocked = 0;
  uint64_t ipc_credit_grants = 0;
  uint64_t ipc_credit_waits_replayed = 0;
  // Recovery (src/recovery): syscalls answered from a journal during replay.
  uint64_t lips_replayed = 0;
  uint64_t preds_replayed = 0;
  uint64_t tools_replayed = 0;
  uint64_t sleeps_replayed = 0;
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

  // Attaches the cluster IPC fabric (this runtime is replica
  // `replica_index`); channel syscalls delegate to it from then on. The
  // fabric must outlive the runtime. Without a fabric, channels stay local
  // to this runtime (legacy behaviour, unchanged).
  void set_channel_fabric(ChannelFabric* fabric, size_t replica_index) {
    fabric_ = fabric;
    replica_index_ = replica_index;
  }
  size_t replica_index() const { return replica_index_; }

  // Starts a new LIP. The program begins running in virtual time on the next
  // simulator dispatch. on_exit fires when the LIP's last thread finishes.
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
  // Fills the journal's launch metadata (name, rng seed, quota) from the
  // process. The runtime shares ownership until the LIP is destroyed.
  void EnableJournal(LipId lip, std::shared_ptr<SyscallJournal> journal);

  // The journal attached to `lip`, or nullptr.
  std::shared_ptr<SyscallJournal> Journal(LipId lip) const;

  // Switches `lip` into replay: subsequent syscalls consume the attached
  // journal (per-thread, in order) instead of hitting live services, until
  // the log is exhausted — from then on the LIP runs live and keeps
  // recording. Mode must be resolved (not kAuto); kImportSnapshot needs the
  // model config to reconstruct Distributions from journaled states.
  Status BeginReplay(LipId lip, RecoveryMode mode, const ModelConfig* config);

  // Kills the whole runtime (replica failure): no thread ever resumes and
  // pending completions become no-ops. Coroutine frames stay allocated until
  // destruction so in-flight completions writing result slots stay safe.
  void Halt();
  bool halted() const { return halted_; }

  // Forcibly detaches one live LIP (live migration): marks its threads
  // killed, closes its KV handles, and fires no on_exit. The attached
  // journal survives and can be replayed elsewhere.
  Status Detach(LipId lip);

  // Resource accounting (§6). Quotas may be set any time; enforcement is at
  // the system-call boundary from then on.
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

  // Spawns a thread in `lip` running `program`; returns its id, or 0 when
  // the LIP's thread quota is exhausted (joining id 0 is a no-op).
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
  void SubmitPred(ThreadId thread, KvHandle kv, std::vector<TokenId> tokens,
                  std::vector<int32_t> positions, PredResult* result);

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

  // IPC channels (named, FIFO; bounded by credits when a fabric is attached
  // and configured). With a fabric attached these delegate cluster-wide (see
  // ChannelFabric above); otherwise they are the legacy in-runtime channels
  // (always unbounded — TrySend never fails).
  //
  // ChannelTrySend returns true when the send completed (accepted by the
  // fabric, handed to a legacy waiter, queued, or suppressed by replay) and
  // false when the channel is out of credits: *message is left intact and
  // the caller must park via ChannelAddSendWaiter (the send awaitable's
  // await_suspend). Journaling of a blocked send happens at grant time
  // (CompleteBlockedSend), not at park time, so the journal records only
  // COMPLETED syscalls — a sender killed while parked re-runs the send live
  // on replay, re-parking at its original sender-FIFO position.
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

  // Fabric grant of a credit to a blocked send: journals the credit wait
  // (JournalEntry::kCreditWait with the channel's grant ordinal) followed by
  // the send itself, moves the parked message out of `slot` into *bytes, and
  // wakes the thread. Returns false — leaving the credit and the grant
  // ordinal unconsumed — when the runtime is halted or the thread is
  // killed/done, so the fabric skips to the next parked sender.
  bool CompleteBlockedSend(ThreadId thread, std::string* slot,
                           const std::string& channel, uint64_t grant_ordinal,
                           std::string* bytes);

  void Emit(LipId lip, std::string_view text);
  Rng& LipRng(LipId lip);
  void TrackHandle(LipId lip, KvHandle handle);
  void UntrackHandle(LipId lip, KvHandle handle);

 private:
  struct Tcb {
    ThreadId id = 0;
    LipId lip = kNoLip;
    ThreadState state = ThreadState::kReady;
    std::coroutine_handle<Task::promise_type> handle;
    // The frame to resume at the next wake-up (innermost suspended frame).
    std::coroutine_handle<> resume_point;
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
    // Sender-side mirror: grant ordinal after the last journal-served credit
    // wait, consumed by this thread's first live blocked send on the channel
    // (see ChannelFabric::AddSendWaiter's resume_grant).
    std::unordered_map<std::string, uint64_t> replay_send_resume;
  };

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
    struct ReplayState {
      RecoveryMode mode = RecoveryMode::kRecompute;
      const ModelConfig* config = nullptr;  // For kImportSnapshot.
      // Per-thread-path read cursor into the journal.
      std::unordered_map<std::string, size_t> cursor;
      uint64_t total = 0;
      uint64_t consumed = 0;
      bool complete = false;
      SimTime start = 0;
    };
    std::unique_ptr<ReplayState> replay;
  };

  struct Channel {
    std::deque<std::string> messages;
    std::deque<std::pair<ThreadId, std::string*>> waiters;
    // Per-channel delivery count (the kRecv ordinal in legacy mode).
    uint64_t next_ordinal = 0;
  };

  void Resume(ThreadId thread);
  void OnThreadExit(Tcb& tcb);
  Tcb& GetTcb(ThreadId thread);
  Process& GetProcess(LipId lip);
  const Process& GetProcess(LipId lip) const;

  // Replay plumbing. NextReplayEntry returns the next journaled entry for
  // `tcb`'s thread (nullptr once its log is exhausted — live from then on);
  // ConsumeReplayEntry advances the cursor and finishes the replay when the
  // whole journal has been consumed.
  const JournalEntry* NextReplayEntry(Process& proc, const Tcb& tcb);
  void ConsumeReplayEntry(Process& proc, const Tcb& tcb);
  // True while `tcb`'s next syscall will be answered from the journal —
  // deadline rejections are suppressed for such calls (see SetDeadline).
  bool ReplayServes(Process& proc, const Tcb& tcb);
  void ExpireDeadline(LipId lip, SimTime deadline);
  void FinishReplay(Process& proc, bool diverged);
  void ReplayDiverged(Process& proc, const char* what);
  // Records a delivered IPC message (or checks it against the journal
  // during replay). Called at every delivery point: direct handoff in
  // legacy ChannelSend, successful ChannelTryRecv, and DeliverToWaiter.
  void JournalRecvDelivery(ThreadId thread, const std::string& channel,
                           uint64_t ordinal, const std::string& message);
  void JournalSleepDone(ThreadId thread, SimDuration duration);

  Simulator* sim_;
  Kvfs* kvfs_;
  RuntimeOptions options_;
  PredService* pred_service_ = nullptr;
  ToolService* tool_service_ = nullptr;
  const Tokenizer* tokenizer_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  ChannelFabric* fabric_ = nullptr;
  size_t replica_index_ = 0;

  std::unordered_map<ThreadId, Tcb> threads_;
  std::unordered_map<LipId, Process> processes_;
  std::unordered_map<std::string, Channel> channels_;
  ThreadId next_thread_ = 1;
  LipId next_lip_ = kAdminLip + 1;
  ThreadId current_ = 0;
  size_t live_lips_ = 0;
  bool halted_ = false;
  RuntimeStats stats_;
};

}  // namespace symphony

#endif  // SRC_RUNTIME_RUNTIME_H_
