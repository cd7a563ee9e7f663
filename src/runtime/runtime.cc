#include "src/runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/runtime/lip_context.h"

namespace symphony {
namespace {

// A replayed thread's one-shot re-park hint for `channel` (0 = none): its
// first live park on the channel consumes it.
uint64_t TakeResumeHint(std::unordered_map<std::string, uint64_t>& hints,
                        const std::string& channel) {
  auto node = hints.extract(channel);
  return node.empty() ? 0 : node.mapped();
}

// A free slot of `slots`, taken off `free`; when none is free, a new slot.
// A slot is allocated once and then reused, so its address never changes.
template <typename T>
uint32_t TakeSlot(std::vector<std::unique_ptr<T>>& slots,
                  std::vector<uint32_t>& free) {
  if (free.empty()) {
    slots.push_back(std::make_unique<T>());
    return static_cast<uint32_t>(slots.size() - 1);
  }
  uint32_t slot = free.back();
  free.pop_back();
  return slot;
}

const char* KindName(JournalEntry::Kind kind) {
  switch (kind) {
    case JournalEntry::Kind::kPred:
      return "pred";
    case JournalEntry::Kind::kTool:
      return "tool";
    case JournalEntry::Kind::kSleep:
      return "sleep";
    case JournalEntry::Kind::kRecv:
      return "recv";
    case JournalEntry::Kind::kSend:
      return "send";
  }
  return "?";
}

}  // namespace

LipRuntime::LipRuntime(Simulator* sim, Kvfs* kvfs, RuntimeOptions options)
    : sim_(sim), kvfs_(kvfs), options_(options) {
  assert(sim != nullptr);
  assert(kvfs != nullptr);
}

LipRuntime::~LipRuntime() {
  // Destroy any still-suspended coroutine frames (e.g. a simulation stopped
  // at a deadline with LIPs mid-flight). A free slot has none.
  for (const std::unique_ptr<Tcb>& tcb : threads_) {
    if (tcb->handle) {
      tcb->handle.destroy();
      tcb->handle = nullptr;
    }
  }
}

LipRuntime::Tcb* LipRuntime::FindTcb(ThreadId thread) const {
  // Id 0 wraps to a slot past the end.
  uint32_t slot = static_cast<uint32_t>(thread) - 1;
  if (slot >= threads_.size()) {
    return nullptr;
  }
  Tcb& tcb = *threads_[slot];
  return tcb.id == thread ? &tcb : nullptr;  // Else the slot moved on.
}

LipRuntime::Tcb& LipRuntime::GetTcb(ThreadId thread) {
  Tcb* tcb = FindTcb(thread);
  assert(tcb != nullptr);
  return *tcb;
}

LipRuntime::Process* LipRuntime::FindProcess(LipId lip) const {
  // Ids below the first LIP's wrap to an index past the end.
  size_t index = lip - size_t{kAdminLip + 1};
  if (index >= lips_.size() || (lips_[index] & kReaped) != 0) {
    return nullptr;
  }
  return processes_[lips_[index]].get();
}

LipRuntime::Process& LipRuntime::GetProcess(LipId lip) {
  Process* proc = FindProcess(lip);
  assert(proc != nullptr);
  return *proc;
}

const LipRuntime::Process& LipRuntime::GetProcess(LipId lip) const {
  const Process* proc = FindProcess(lip);
  assert(proc != nullptr);
  return *proc;
}

const LipRuntime::ExitRecord* LipRuntime::FindExit(LipId lip) const {
  size_t index = lip - size_t{kAdminLip + 1};
  if (index >= lips_.size() || (lips_[index] & kReaped) == 0) {
    return nullptr;
  }
  return &exits_[lips_[index] & ~kReaped];
}

LipId LipRuntime::Launch(std::string name, LipProgram program,
                         std::function<void(LipId)> on_exit) {
  return LaunchWithSeed(std::move(name),
                        Mix64(options_.seed ^ (0x11b0000ULL + next_lip())),
                        std::move(program), std::move(on_exit));
}

LipId LipRuntime::LaunchWithSeed(std::string name, uint64_t rng_seed,
                                 LipProgram program,
                                 std::function<void(LipId)> on_exit) {
  assert(!halted_ && "launch on a halted runtime");
  LipId lip = next_lip();
  lips_.push_back(TakeSlot(processes_, free_processes_));
  Process& proc = *processes_[lips_.back()];
  proc.id = lip;
  proc.name = std::move(name);
  proc.context = std::make_unique<LipContext>(this, lip);
  proc.rng = std::make_unique<Rng>(rng_seed);
  proc.rng_seed = rng_seed;
  proc.on_exit = std::move(on_exit);
  proc.launch_time = sim_->now();
  ++live_lips_;
  ++stats_.lips_launched;
  SpawnThread(lip, std::move(program));
  return lip;
}

ThreadId LipRuntime::SpawnThread(LipId lip, LipProgram program) {
  Process& proc = GetProcess(lip);
  assert(!proc.done);
  if (proc.usage.threads_spawned >= proc.quota.max_threads) {
    SYMPHONY_LOG(kDebug) << "lip " << lip << " thread quota exhausted";
    return 0;
  }
  ++proc.usage.threads_spawned;
  // Spawn path: replica-invariant thread identity for the syscall journal.
  // The root thread is "0"; a child gets parent.path + "." + spawn ordinal.
  std::string path = "0";
  if (Tcb* parent = FindTcb(current_); parent != nullptr && parent->lip == lip) {
    path = parent->path + "." + std::to_string(parent->spawn_seq++);
  }
  uint32_t slot = TakeSlot(threads_, free_threads_);
  Tcb& tcb = *threads_[slot];
  tcb.id |= slot + 1;  // The free slot held its generation.
  ThreadId tid = tcb.id;
  tcb.path = std::move(path);
  tcb.lip = lip;
  tcb.state = ThreadState::kBlocked;  // Ready() flips it below.
  tcb.program = std::move(program);
  Task task = tcb.program(*proc.context);
  tcb.handle = task.Release();
  tcb.resume_point = tcb.handle;
  ++proc.live_threads;
  ++stats_.threads_spawned;
  Ready(tid);
  return tid;
}

void LipRuntime::BlockCurrent() {
  assert(current_ != 0);
  GetTcb(current_).state = ThreadState::kBlocked;
}

void LipRuntime::SetResumePoint(std::coroutine_handle<> frame) {
  assert(current_ != 0);
  GetTcb(current_).resume_point = frame;
}

void LipRuntime::Ready(ThreadId thread) {
  if (halted_) {
    return;  // Replica failure: nothing resumes ever again.
  }
  // Asserts on a finished thread, whose slot is freed: waking it is a bug.
  Tcb& tcb = GetTcb(thread);
  if (tcb.state == ThreadState::kKilled) {
    return;  // Detached LIP: a late completion wrote its slot; drop the wake.
  }
  if (tcb.state == ThreadState::kReady) {
    return;  // A resume event is already pending.
  }
  tcb.state = ThreadState::kReady;
  sim_->ScheduleAfter(options_.resume_overhead,
                      [this, thread] { Resume(thread); });
}

void LipRuntime::Resume(ThreadId thread) {
  if (halted_) {
    return;
  }
  Tcb* tcb = FindTcb(thread);
  if (tcb == nullptr || tcb->state != ThreadState::kReady) {
    return;  // Stale event (an exited thread's slot is already freed).
  }
  tcb->state = ThreadState::kRunning;
  ThreadId prev = current_;
  current_ = thread;
  ++stats_.context_switches;
  tcb->resume_point.resume();  // May spawn: slots never move.
  current_ = prev;
  if (tcb->handle.done()) {
    OnThreadExit(*tcb);
    // ThreadDone and AddJoiner answer "finished" for the old id.
    FreeThread(*tcb);
  }
}

LipRuntime::Tcb* LipRuntime::Waiting(ThreadId thread) {
  if (halted_) {
    return nullptr;
  }
  Tcb* tcb = FindTcb(thread);
  return tcb != nullptr && tcb->state != ThreadState::kKilled ? tcb : nullptr;
}

void LipRuntime::OnThreadExit(Tcb& tcb) {
  tcb.handle.destroy();
  tcb.handle = nullptr;
  tcb.program = nullptr;  // Frame destroyed; captures no longer referenced.
  for (ThreadId joiner : tcb.joiners) {
    Ready(joiner);
  }
  tcb.joiners.clear();

  Process& proc = GetProcess(tcb.lip);
  assert(proc.live_threads > 0);
  --proc.live_threads;

  // join_all waiters wake when only waiters remain alive.
  if (!proc.join_all_waiters.empty() &&
      proc.live_threads == proc.join_all_waiters.size()) {
    std::vector<ThreadId> waiters = std::move(proc.join_all_waiters);
    proc.join_all_waiters.clear();
    for (ThreadId waiter : waiters) {
      Ready(waiter);
    }
    return;
  }

  if (proc.live_threads == 0) {
    Reap(proc);
  }
}

void LipRuntime::FreeThread(Tcb& tcb) {
  uint32_t slot = static_cast<uint32_t>(tcb.id) - 1;
  ThreadId next_generation = ((tcb.id >> 32) + 1) << 32;
  tcb = Tcb();
  tcb.id = next_generation;
  free_threads_.push_back(slot);
}

void LipRuntime::Reap(Process& proc) {
  CloseHandles(proc);  // Release kernel resources the LIP left open.
  --live_lips_;
  ++stats_.lips_completed;
  if (trace_ != nullptr) {
    trace_->Span("lips", proc.name, proc.launch_time,
                 sim_->now() - proc.launch_time);
  }
  if (proc.on_exit) {
    // Run after the current dispatch completes so the callback sees a
    // settled runtime state.
    sim_->ScheduleAt(sim_->now(),
                     [callback = std::exchange(proc.on_exit, nullptr),
                      lip = proc.id] { callback(lip); });
  }
  // Nothing else is read after exit. The journal lives on only where the
  // serving layer holds its own reference.
  uint32_t& entry = lips_[proc.id - (kAdminLip + 1)];
  free_processes_.push_back(entry);
  entry = kReaped | static_cast<uint32_t>(exits_.size());
  exits_.push_back({std::move(proc.output), proc.usage, proc.expired});
  proc = Process();
}

void LipRuntime::CloseHandles(Process& proc) {
  for (KvHandle handle : std::exchange(proc.open_handles, {})) {
    Status st = kvfs_->Close(handle);
    if (!st.ok()) {
      SYMPHONY_LOG(kDebug) << "lip " << proc.id
                           << " close failed: " << st.ToString();
    }
  }
}

void LipRuntime::TearDownExpired(Process& proc) {
  // Cancel queued/retry-pending preds so the LIP stops consuming decode
  // capacity; requests already inside a running batch drain normally.
  if (pred_service_ != nullptr) {
    pred_service_->CancelLip(proc.id);
  }
  // Release the LIP's KV page quota now rather than at exit — an expired
  // LIP must not hold device pages against live work.
  CloseHandles(proc);
}

bool LipRuntime::LipDone(LipId lip) const {
  return FindExit(lip) != nullptr || GetProcess(lip).done;
}

void LipRuntime::SetQuota(LipId lip, LipQuota quota) {
  Process& proc = GetProcess(lip);
  proc.quota = quota;
  kvfs_->SetPageQuota(lip, quota.max_kv_pages);
  if (proc.journal != nullptr) {
    proc.journal->quota = quota;
  }
}

void LipRuntime::SetDeadline(LipId lip, SimTime deadline) {
  Process& proc = GetProcess(lip);
  proc.deadline = deadline;
  proc.expired = false;
  if (proc.journal != nullptr) {
    proc.journal->deadline = deadline;
  }
  sim_->ScheduleAt(deadline,
                   [this, lip, deadline] { ExpireDeadline(lip, deadline); });
}

bool LipRuntime::DeadlineExpired(LipId lip) const {
  if (const ExitRecord* exit = FindExit(lip)) {
    return exit->expired;
  }
  const Process* proc = FindProcess(lip);
  return proc != nullptr && proc->expired;
}

void LipRuntime::ExpireDeadline(LipId lip, SimTime deadline) {
  if (halted_) {
    return;
  }
  Process* found = FindProcess(lip);
  if (found == nullptr) {
    return;
  }
  Process& proc = *found;
  // Stale event: the LIP exited, was detached, or the deadline was re-armed.
  if (proc.done || proc.expired || proc.deadline != deadline) {
    return;
  }
  proc.expired = true;
  ++stats_.deadlines_expired;
  SYMPHONY_LOG(kDebug) << "lip " << lip << " deadline expired";
  // The teardown is deferred while replay is consuming the journal:
  // re-executed preds and KV operations must complete so the LIP reaches its
  // pre-failure point (FinishReplay runs the teardown then).
  if (proc.replay == nullptr) {
    TearDownExpired(proc);
  }
}

void LipRuntime::EnableJournal(LipId lip,
                               std::shared_ptr<SyscallJournal> journal) {
  assert(journal != nullptr);
  Process& proc = GetProcess(lip);
  journal->name = proc.name;
  journal->rng_seed = proc.rng_seed;
  journal->quota = proc.quota;
  journal->deadline = proc.deadline;
  proc.journal = std::move(journal);
}

std::shared_ptr<SyscallJournal> LipRuntime::Journal(LipId lip) const {
  const Process* proc = FindProcess(lip);
  return proc == nullptr ? nullptr : proc->journal;
}

Status LipRuntime::BeginReplay(LipId lip, RecoveryMode mode,
                               const ModelConfig* config) {
  Process& proc = GetProcess(lip);
  if (proc.journal == nullptr) {
    return FailedPreconditionError("lip " + std::to_string(lip) +
                                   " has no journal attached");
  }
  if (mode == RecoveryMode::kAuto) {
    return InvalidArgumentError(
        "resolve kAuto (Replayer::Choose) before BeginReplay");
  }
  if (mode == RecoveryMode::kImportSnapshot && config == nullptr) {
    return InvalidArgumentError(
        "snapshot-import replay requires the model config");
  }
  if (proc.journal->folded_entries() > 0) {
    return FailedPreconditionError(
        "journal has a checkpoint-truncated prefix; rehydrate it from the "
        "snapshot store (RehydrateJournal) before replay");
  }
  ++stats_.lips_replayed;
  auto replay = std::make_unique<Process::ReplayState>();
  replay->mode = mode;
  replay->config = config;
  for (const auto& entry : proc.journal->threads()) {
    size_t end = proc.journal->EntryCount(entry.first);
    replay->cursor[entry.first].end = end;
    replay->remaining += end;
  }
  if (replay->remaining == 0) {
    return Status::Ok();  // Empty journal: live immediately.
  }
  replay->start = sim_->now();
  proc.replay = std::move(replay);
  proc.journal->set_replay_hold(true);  // FinishReplay releases it.
  return Status::Ok();
}

void LipRuntime::Halt() {
  halted_ = true;
  if (fabric_ != nullptr) {
    fabric_->DropWaiters(replica_index_, kNoLip);
  }
}

Status LipRuntime::Detach(LipId lip) {
  Process* found = FindProcess(lip);
  if (found == nullptr && FindExit(lip) == nullptr) {
    return NotFoundError("no such lip " + std::to_string(lip));
  }
  if (found == nullptr || found->done) {
    return FailedPreconditionError("lip " + std::to_string(lip) +
                                   " already exited");
  }
  Process& proc = *found;
  for (const std::unique_ptr<Tcb>& tcb : threads_) {
    if (tcb->lip == lip) {
      // Keep the frame allocated: an in-flight pred/tool completion may
      // still write its result slot. ~LipRuntime reclaims it.
      tcb->state = ThreadState::kKilled;
      tcb->joiners.clear();
    }
  }
  // Drop the LIP's pending channel waits so a later send is not swallowed
  // by a dead consumer and a freed credit is not granted to a dead sender.
  if (fabric_ != nullptr) {
    fabric_->DropWaiters(replica_index_, lip);
  }
  CloseHandles(proc);
  proc.live_threads = 0;
  proc.join_all_waiters.clear();
  proc.done = true;
  --live_lips_;
  return Status::Ok();
}

const JournalEntry* LipRuntime::NextReplayEntry(const Process& proc,
                                                const Tcb& tcb) const {
  if (proc.replay == nullptr) {
    return nullptr;
  }
  auto it = proc.replay->cursor.find(tcb.path);
  if (it == proc.replay->cursor.end() || it->second.next >= it->second.end) {
    return nullptr;  // Past what was journaled: this thread runs live.
  }
  return proc.journal->At(tcb.path, it->second.next);
}

const JournalEntry* LipRuntime::Replayed(Process& proc, const Tcb& tcb,
                                         JournalEntry::Kind kind) {
  const JournalEntry* entry = NextReplayEntry(proc, tcb);
  if (entry == nullptr || entry->kind == kind) {
    return entry;
  }
  // Per-thread logs are ordered, so the original run's next completed
  // syscall on this thread was of another kind.
  ReplayDiverged(proc, std::string(KindName(kind)) + " where journal has " +
                           KindName(entry->kind));
  return nullptr;
}

bool LipRuntime::ReplayServes(const Process& proc, const Tcb& tcb,
                              JournalEntry::Kind kind) const {
  const JournalEntry* entry = NextReplayEntry(proc, tcb);
  return entry != nullptr && entry->kind == kind;
}

void LipRuntime::ConsumeReplayEntry(Process& proc, const Tcb& tcb) {
  ++proc.replay->cursor[tcb.path].next;
  if (--proc.replay->remaining == 0) {
    FinishReplay(proc, /*diverged=*/false);
  }
}

void LipRuntime::FinishReplay(Process& proc, bool diverged) {
  std::unique_ptr<Process::ReplayState> replay = std::move(proc.replay);
  proc.journal->set_replay_hold(false);
  if (proc.expired && !proc.done) {
    TearDownExpired(proc);  // The deadline fired mid-replay.
  }
  if (trace_ != nullptr) {
    trace_->Span("recovery",
                 (diverged ? std::string("replay-diverged:")
                           : std::string("replay:")) +
                     proc.name,
                 replay->start, sim_->now() - replay->start);
  }
}

void LipRuntime::ReplayDiverged(Process& proc, std::string_view what) {
  ++stats_.replay_divergences;
  SYMPHONY_LOG(kWarning) << "lip " << proc.id << " replay diverged: " << what;
  // Fall out of replay: the remaining log cannot be trusted, so the LIP
  // continues live from here (output identity is no longer guaranteed).
  FinishReplay(proc, /*diverged=*/true);
}

void LipRuntime::Record(const Tcb& tcb, JournalEntry entry) {
  Process& proc = GetProcess(tcb.lip);
  if (proc.journal != nullptr) {
    proc.journal->Append(tcb.path, std::move(entry));
  }
}

LipUsage LipRuntime::GetUsage(LipId lip) const {
  const ExitRecord* exit = FindExit(lip);
  LipUsage usage = exit != nullptr ? exit->usage : GetProcess(lip).usage;
  usage.kv_pages = kvfs_->OwnerPageRefs(lip);
  return usage;
}

const std::string& LipRuntime::Output(LipId lip) const {
  const ExitRecord* exit = FindExit(lip);
  return exit != nullptr ? exit->output : GetProcess(lip).output;
}

Status LipRuntime::CheckDeadline(ThreadId thread, JournalEntry::Kind kind) {
  const Tcb& tcb = GetTcb(thread);
  return CheckDeadline(GetProcess(tcb.lip), tcb, kind);
}

Status LipRuntime::CheckDeadline(Process& proc, const Tcb& tcb,
                                 JournalEntry::Kind kind) {
  // Suppressed while the journal still serves this syscall: the original
  // run's pre-expiry syscalls must replay even though replay's compressed
  // timeline is past the deadline.
  if (!proc.expired || ReplayServes(proc, tcb, kind)) {
    return Status::Ok();
  }
  ++stats_.deadline_rejections;
  return DeadlineExceededError("deadline expired for lip " +
                               std::to_string(proc.id));
}

void LipRuntime::SubmitPred(ThreadId thread, KvHandle kv,
                            std::vector<TokenId> tokens, int32_t start,
                            PredResult* result) {
  BlockCurrent();
  ++stats_.preds_submitted;
  if (pred_service_ == nullptr) {
    result->status = FailedPreconditionError("no inference service attached");
    Ready(thread);
    return;
  }
  Tcb& tcb = GetTcb(thread);
  Process& proc = GetProcess(tcb.lip);
  // Expired deadline fails fast — before the quota charge, matching a live
  // run where the rejection short-circuits.
  if (Status expired = CheckDeadline(proc, tcb, JournalEntry::Kind::kPred);
      !expired.ok()) {
    result->status = std::move(expired);
    Ready(thread);
    return;
  }
  // Quota is charged before the journal is consulted, on purpose: replayed
  // re-execution then rebuilds the exact pre-failure LipUsage, and a quota
  // error reproduces without ever having been journaled.
  if (proc.usage.pred_tokens + tokens.size() > proc.quota.max_pred_tokens) {
    result->status = QuotaExceededError("pred token quota exhausted for lip " +
                                        std::to_string(proc.id));
    Ready(thread);
    return;
  }
  proc.usage.pred_tokens += tokens.size();

  // A recompute replay resubmits a journaled pred and, instead of recording
  // it, checks its states against the journal entry at this index.
  std::optional<size_t> verify_index;
  if (const JournalEntry* entry = Replayed(proc, tcb, JournalEntry::Kind::kPred)) {
    if (proc.replay->mode == RecoveryMode::kImportSnapshot) {
      // Feed the journaled result without touching the device; import the
      // journaled TokenRecords into the KV file on the host tier so the
      // next live pred's restore pays PCIe transfer instead of recompute.
      stats_.replay_tokens_imported += entry->tokens.size();
      result->status = entry->status;
      if (entry->status.ok()) {
        std::vector<TokenRecord> records;
        records.reserve(entry->tokens.size());
        for (size_t i = 0; i < entry->tokens.size(); ++i) {
          records.push_back({entry->tokens[i],
                             entry->start + static_cast<int32_t>(i),
                             entry->states[i]});
        }
        Status imported = kvfs_->ImportRecords(kv, records, Tier::kHost);
        if (!imported.ok()) {
          result->status = imported;
        } else {
          result->dists.reserve(entry->states.size());
          for (uint64_t state : entry->states) {
            result->dists.emplace_back(state, proc.replay->config);
          }
        }
      }
      ConsumeReplayEntry(proc, tcb);
      Ready(thread);
      return;
    }
    if (!entry->status.ok()) {
      // kRecompute with a journaled failure (cancelled pred, deadline
      // rejection delivered through the service): resubmitting could
      // succeed live and diverge — serve the recorded status verbatim.
      result->status = entry->status;
      ConsumeReplayEntry(proc, tcb);
      Ready(thread);
      return;
    }
    // kRecompute: submit live so the device rebuilds the KV cache.
    verify_index = proc.replay->cursor[tcb.path].next;
    stats_.replay_tokens_recomputed += entry->tokens.size();
    ConsumeReplayEntry(proc, tcb);
  }

  PredRequest request;
  request.lip = tcb.lip;
  request.thread = thread;
  request.kv = kv;
  request.tokens = std::move(tokens);
  request.start = start;
  request.submit_time = sim_->now();
  // The journal records the start submitted here: the scheduler moves
  // request.start past each chunk of a split prefill.
  tcb.call.pred = result;
  tcb.call.start = start;
  tcb.call.verify_index = verify_index;
  if (proc.journal != nullptr && !verify_index) {
    tcb.call.tokens = request.tokens;
  }
  request.complete = [this, thread](PredResult r) {
    CompletePred(thread, std::move(r));
  };
  pred_service_->Submit(std::move(request));
}

void LipRuntime::CompletePred(ThreadId thread, PredResult r) {
  Tcb& tcb = GetTcb(thread);  // Blocked in this pred until Ready below.
  if (Tcb* waiting = Waiting(thread)) {
    Process& owner = GetProcess(waiting->lip);
    // A pred that was in flight at deadline expiry can fail for a teardown
    // reason (its KV handle was closed); attribute that to the deadline.
    // Normalized before journaling so replay serves the same status.
    if (owner.expired && !r.status.ok() &&
        r.status.code() != StatusCode::kDeadlineExceeded) {
      r.status = DeadlineExceededError("deadline expired for lip " +
                                       std::to_string(owner.id));
    }
    if (std::optional<size_t> verify_index = waiting->call.verify_index) {
      // An entry folded into a store checkpoint while this recompute was
      // in flight is durable there: nothing to verify.
      const JournalEntry* expect = owner.journal->At(waiting->path, *verify_index);
      if (!owner.journal->FoldedAt(waiting->path, *verify_index) &&
          (expect == nullptr || r.status.code() != expect->status.code() ||
           !std::ranges::equal(r.dists, expect->states, {}, &Distribution::state))) {
        ++stats_.replay_divergences;
        SYMPHONY_LOG(kWarning)
            << "recomputed pred diverged from journal (thread path "
            << waiting->path << ", entry " << *verify_index << ")";
      }
    } else if (owner.journal != nullptr) {
      JournalEntry entry{.kind = JournalEntry::Kind::kPred,
                         .status = r.status,
                         .tokens = std::move(waiting->call.tokens),
                         .start = waiting->call.start};
      entry.states.reserve(r.dists.size());
      for (const Distribution& d : r.dists) {
        entry.states.push_back(d.state());
      }
      Record(*waiting, std::move(entry));
    }
  }
  *tcb.call.pred = std::move(r);
  Ready(thread);
}

void LipRuntime::SubmitTool(ThreadId thread, const std::string& tool,
                            const std::string& args, ToolResult* result) {
  BlockCurrent();
  if (tool_service_ == nullptr) {
    result->status = FailedPreconditionError("no tool service attached");
    Ready(thread);
    return;
  }
  Tcb& tcb = GetTcb(thread);
  LipId lip = tcb.lip;
  Process& proc = GetProcess(lip);
  if (Status expired = CheckDeadline(proc, tcb, JournalEntry::Kind::kTool);
      !expired.ok()) {
    result->status = std::move(expired);
    Ready(thread);
    return;
  }
  if (proc.usage.tool_calls >= proc.quota.max_tool_calls) {
    result->status = QuotaExceededError("tool call quota exhausted for lip " +
                                        std::to_string(lip));
    Ready(thread);
    return;
  }
  ++proc.usage.tool_calls;
  if (const JournalEntry* entry = Replayed(proc, tcb, JournalEntry::Kind::kTool)) {
    // Side-effect-free tools re-serve the recorded output instantly.
    result->status = entry->status;
    result->output = entry->payload;
    ConsumeReplayEntry(proc, tcb);
    Ready(thread);
    return;
  }
  tcb.call.tool = result;
  tool_service_->Invoke(lip, thread, tool, args, [this, thread](ToolResult r) {
    CompleteTool(thread, std::move(r));
  });
}

void LipRuntime::CompleteTool(ThreadId thread, ToolResult r) {
  Tcb& tcb = GetTcb(thread);  // Blocked in this call until Ready below.
  if (Tcb* waiting = Waiting(thread)) {
    Record(*waiting, {.kind = JournalEntry::Kind::kTool,
                      .status = r.status,
                      .payload = r.output});
  }
  *tcb.call.tool = std::move(r);
  Ready(thread);
}

void LipRuntime::SubmitSleep(ThreadId thread, SimDuration duration) {
  BlockCurrent();
  Tcb& tcb = GetTcb(thread);
  Process& proc = GetProcess(tcb.lip);
  if (Replayed(proc, tcb, JournalEntry::Kind::kSleep) != nullptr) {
    // The original run already waited this out; skip the wait.
    ConsumeReplayEntry(proc, tcb);
    Ready(thread);
    return;
  }
  tcb.call.duration = duration;
  sim_->ScheduleAfter(duration, [this, thread] { CompleteSleep(thread); });
}

void LipRuntime::CompleteSleep(ThreadId thread) {
  if (Tcb* waiting = Waiting(thread)) {
    Record(*waiting, {.kind = JournalEntry::Kind::kSleep,
                      .duration = waiting->call.duration});
  }
  Ready(thread);
}

bool LipRuntime::ThreadDone(ThreadId thread) const {
  return FindTcb(thread) == nullptr;
}

void LipRuntime::AddJoiner(ThreadId target, ThreadId waiter) {
  Tcb* tcb = FindTcb(target);
  if (tcb == nullptr) {
    Ready(waiter);
    return;
  }
  tcb->joiners.push_back(waiter);
}

void LipRuntime::AddJoinAllWaiter(LipId lip, ThreadId waiter) {
  Process& proc = GetProcess(lip);
  proc.join_all_waiters.push_back(waiter);
  if (proc.live_threads == proc.join_all_waiters.size()) {
    std::vector<ThreadId> waiters = std::move(proc.join_all_waiters);
    proc.join_all_waiters.clear();
    for (ThreadId w : waiters) {
      Ready(w);
    }
  }
}

bool LipRuntime::ChannelTrySend(const std::string& channel,
                                std::string* message) {
  assert(fabric_ != nullptr && "channel syscall without a ChannelFabric");
  assert(current_ != 0 && "channel syscall outside a LIP thread");
  Tcb& tcb = GetTcb(current_);
  Process& proc = GetProcess(tcb.lip);
  if (const JournalEntry* entry = Replayed(proc, tcb, JournalEntry::Kind::kSend)) {
    if (entry->channel == channel && entry->payload == *message) {
      // The original send already reached (or is queued for) the peer;
      // re-sending would duplicate it at a live endpoint. No credit is
      // consumed: the original message's credit travels with it. A send that
      // had parked hands its grant to this thread's next live blocked send
      // on the channel, which re-parks behind its LIP's senders with earlier
      // grants. It cannot restore a send that was parked but never granted.
      if (entry->ordinal > 0) {
        tcb.replay_send_resume[channel] = entry->ordinal;
        ++stats_.ipc_credit_waits_replayed;
      }
      ++stats_.ipc_sends_suppressed;
      ++stats_.ipc_messages;
      ConsumeReplayEntry(proc, tcb);
      return true;
    }
    ReplayDiverged(proc, "send disagrees with journal");
    // Fall through live: the message is new as far as anyone knows.
  }
  // TrySend consumes *message on success, so capture the payload for the
  // journal first.
  std::string payload;
  if (proc.journal != nullptr) {
    payload = *message;
  }
  if (!fabric_->TrySend(replica_index_, tcb.lip, channel, message)) {
    return false;  // Out of credits: park; journaling happens at grant.
  }
  ++stats_.ipc_messages;
  tcb.replay_send_resume.erase(channel);  // Completed live: hint stale.
  Record(tcb, {.kind = JournalEntry::Kind::kSend,
               .payload = std::move(payload),
               .channel = channel});
  return true;
}

void LipRuntime::ChannelAddSendWaiter(const std::string& channel,
                                      ThreadId waiter, std::string* slot) {
  assert(fabric_ != nullptr && "channel syscall without a ChannelFabric");
  assert(current_ != 0 && "channel syscall outside a LIP thread");
  Tcb& tcb = GetTcb(waiter);
  fabric_->AddSendWaiter(replica_index_, tcb.lip, channel, waiter, slot,
                         TakeResumeHint(tcb.replay_send_resume, channel));
}

bool LipRuntime::CompleteBlockedSend(ThreadId thread, std::string* slot,
                                     const std::string& channel,
                                     uint64_t grant_ordinal,
                                     std::string* bytes) {
  Tcb* waiting = Waiting(thread);
  if (waiting == nullptr) {
    return false;
  }
  // One entry at the syscall boundary: replay serves it without touching
  // the fabric, and its ordinal is the re-park hint.
  Record(*waiting, {.kind = JournalEntry::Kind::kSend,
                    .payload = *slot,
                    .channel = channel,
                    .ordinal = grant_ordinal + 1});
  ++stats_.ipc_messages;
  *bytes = std::move(*slot);
  Ready(thread);
  return true;
}

bool LipRuntime::ChannelTryRecv(const std::string& channel, std::string* message) {
  assert(fabric_ != nullptr && "channel syscall without a ChannelFabric");
  assert(current_ != 0 && "channel syscall outside a LIP thread");
  Tcb& tcb = GetTcb(current_);
  Process& proc = GetProcess(tcb.lip);
  if (const JournalEntry* entry = Replayed(proc, tcb, JournalEntry::Kind::kRecv)) {
    if (entry->channel == channel) {
      // Serve the delivery verbatim — the fabric's copy was consumed by
      // the original incarnation (tool-result discipline). Remember the
      // ordinal: when this thread's journal runs dry mid-wait, the fabric
      // uses it to re-park the thread in its original queue position
      // among this LIP's other waiters.
      *message = entry->payload;
      tcb.replay_recv_resume[channel] = entry->ordinal + 1;
      ++stats_.ipc_recvs_replayed;
      ConsumeReplayEntry(proc, tcb);
      return true;
    }
    ReplayDiverged(proc, "recv channel disagrees with journal");
    // Fall through to a live receive.
  }
  uint64_t ordinal = 0;
  if (!fabric_->TryRecv(replica_index_, tcb.lip, channel, message, &ordinal)) {
    return false;
  }
  // Live delivery: any replay re-park hint is now stale.
  tcb.replay_recv_resume.erase(channel);
  Record(tcb, {.kind = JournalEntry::Kind::kRecv,
               .payload = *message,
               .channel = channel,
               .ordinal = ordinal});
  return true;
}

void LipRuntime::ChannelAddWaiter(const std::string& channel, ThreadId waiter,
                                  std::string* slot) {
  assert(fabric_ != nullptr && "channel syscall without a ChannelFabric");
  assert(current_ != 0 && "channel syscall outside a LIP thread");
  Tcb& tcb = GetTcb(waiter);
  fabric_->AddWaiter(replica_index_, tcb.lip, channel, waiter, slot,
                     TakeResumeHint(tcb.replay_recv_resume, channel));
}

bool LipRuntime::DeliverToWaiter(ThreadId thread, std::string* slot,
                                 const std::string& channel, uint64_t ordinal,
                                 const std::string& message) {
  Tcb* waiting = Waiting(thread);
  if (waiting == nullptr) {
    return false;
  }
  *slot = message;
  Record(*waiting, {.kind = JournalEntry::Kind::kRecv,
                    .payload = message,
                    .channel = channel,
                    .ordinal = ordinal});
  Ready(thread);
  return true;
}

void LipRuntime::Emit(LipId lip, std::string_view text) {
  GetProcess(lip).output.append(text);
}

Rng& LipRuntime::LipRng(LipId lip) { return *GetProcess(lip).rng; }

void LipRuntime::TrackHandle(LipId lip, KvHandle handle) {
  GetProcess(lip).open_handles.push_back(handle);
}

void LipRuntime::UntrackHandle(LipId lip, KvHandle handle) {
  auto& handles = GetProcess(lip).open_handles;
  for (size_t i = 0; i < handles.size(); ++i) {
    if (handles[i].slot == handle.slot && handles[i].generation == handle.generation) {
      handles[i] = handles.back();
      handles.pop_back();
      return;
    }
  }
}

}  // namespace symphony
