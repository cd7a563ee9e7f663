#include "src/runtime/runtime.h"

#include <cassert>
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

}  // namespace

LipRuntime::LipRuntime(Simulator* sim, Kvfs* kvfs, RuntimeOptions options)
    : sim_(sim), kvfs_(kvfs), options_(options) {
  assert(sim != nullptr);
  assert(kvfs != nullptr);
}

LipRuntime::~LipRuntime() {
  // Destroy any still-suspended coroutine frames (e.g. a simulation stopped
  // at a deadline with LIPs mid-flight).
  for (auto& [id, tcb] : threads_) {
    if (tcb.handle) {
      tcb.handle.destroy();
      tcb.handle = nullptr;
    }
  }
}

LipRuntime::Tcb& LipRuntime::GetTcb(ThreadId thread) {
  auto it = threads_.find(thread);
  assert(it != threads_.end());
  return it->second;
}

LipRuntime::Process& LipRuntime::GetProcess(LipId lip) {
  auto it = processes_.find(lip);
  assert(it != processes_.end());
  return it->second;
}

const LipRuntime::Process& LipRuntime::GetProcess(LipId lip) const {
  auto it = processes_.find(lip);
  assert(it != processes_.end());
  return it->second;
}

LipId LipRuntime::Launch(std::string name, LipProgram program,
                         std::function<void(LipId)> on_exit) {
  return LaunchWithSeed(std::move(name),
                        Mix64(options_.seed ^ (0x11b0000ULL + next_lip_)),
                        std::move(program), std::move(on_exit));
}

LipId LipRuntime::LaunchWithSeed(std::string name, uint64_t rng_seed,
                                 LipProgram program,
                                 std::function<void(LipId)> on_exit) {
  assert(!halted_ && "launch on a halted runtime");
  LipId lip = next_lip_++;
  Process& proc = processes_[lip];
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
  if (current_ != 0) {
    auto parent = threads_.find(current_);
    if (parent != threads_.end() && parent->second.lip == lip) {
      path = parent->second.path + "." +
             std::to_string(parent->second.spawn_seq++);
    }
  }
  ThreadId tid = next_thread_++;
  Tcb& tcb = threads_[tid];
  tcb.path = std::move(path);
  tcb.id = tid;
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
  // Asserts on a finished thread, whose block is erased: waking it is a bug.
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
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.state != ThreadState::kReady) {
    return;  // Stale event (an exited thread's block is already erased).
  }
  Tcb& tcb = it->second;
  tcb.state = ThreadState::kRunning;
  ThreadId prev = current_;
  current_ = thread;
  ++stats_.context_switches;
  tcb.resume_point.resume();
  current_ = prev;
  if (tcb.handle.done()) {
    OnThreadExit(tcb);
    // ThreadDone and AddJoiner answer "finished" for an unknown id.
    threads_.erase(thread);
  }
}

LipRuntime::Tcb* LipRuntime::Waiting(ThreadId thread) {
  if (halted_) {
    return nullptr;
  }
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.state == ThreadState::kKilled) {
    return nullptr;
  }
  return &it->second;
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

void LipRuntime::Reap(Process& proc) {
  // Release kernel resources the LIP left open.
  for (KvHandle handle : proc.open_handles) {
    Status st = kvfs_->Close(handle);
    if (!st.ok()) {
      SYMPHONY_LOG(kDebug) << "lip " << proc.id
                           << " exit close failed: " << st.ToString();
    }
  }
  proc.done = true;
  --live_lips_;
  ++stats_.lips_completed;
  if (trace_ != nullptr) {
    trace_->Span("lips", proc.name, proc.launch_time,
                 sim_->now() - proc.launch_time);
  }
  // Nothing reads these after exit. The journal lives on only where the
  // serving layer holds its own reference.
  proc.open_handles = std::vector<KvHandle>();
  proc.join_all_waiters = std::vector<ThreadId>();
  proc.journal.reset();
  proc.replay.reset();
  proc.context.reset();
  proc.rng.reset();
  if (proc.on_exit) {
    // Run after the current dispatch completes so the callback sees a
    // settled runtime state.
    sim_->ScheduleAt(sim_->now(),
                     [callback = std::exchange(proc.on_exit, nullptr),
                      lip = proc.id] { callback(lip); });
  }
}

bool LipRuntime::LipDone(LipId lip) const { return GetProcess(lip).done; }

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
  auto it = processes_.find(lip);
  return it != processes_.end() && it->second.expired;
}

void LipRuntime::ExpireDeadline(LipId lip, SimTime deadline) {
  if (halted_) {
    return;
  }
  auto it = processes_.find(lip);
  if (it == processes_.end()) {
    return;
  }
  Process& proc = it->second;
  // Stale event: the LIP exited, was detached, or the deadline was re-armed.
  if (proc.done || proc.expired || proc.deadline != deadline) {
    return;
  }
  proc.expired = true;
  ++stats_.deadlines_expired;
  SYMPHONY_LOG(kDebug) << "lip " << lip << " deadline expired";
  // Cancellation and KV teardown are deferred while replay is consuming the
  // journal: re-executed preds and KV operations must complete so the LIP
  // reaches its pre-failure point (FinishReplay runs the teardown then).
  if (proc.replay == nullptr || proc.replay->complete) {
    // Cancel queued/retry-pending preds so the LIP stops consuming decode
    // capacity; requests already inside a running batch drain normally.
    if (pred_service_ != nullptr) {
      pred_service_->CancelLip(lip);
    }
    // Release the LIP's KV page quota now rather than at exit — an expired
    // LIP must not hold device pages against live work.
    for (KvHandle handle : proc.open_handles) {
      (void)kvfs_->Close(handle);
    }
    proc.open_handles.clear();
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
  auto it = processes_.find(lip);
  return it == processes_.end() ? nullptr : it->second.journal;
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
  auto replay = std::make_unique<Process::ReplayState>();
  replay->mode = mode;
  replay->config = config;
  for (const auto& entry : proc.journal->threads()) {
    size_t end = proc.journal->EntryCount(entry.first);
    replay->cursor[entry.first].end = end;
    replay->total += end;
  }
  replay->start = sim_->now();
  proc.replay = std::move(replay);
  ++stats_.lips_replayed;
  if (proc.replay->total == 0) {
    proc.replay->complete = true;  // Empty journal: live immediately.
  } else {
    proc.journal->set_replay_hold(true);  // FinishReplay releases it.
  }
  return Status::Ok();
}

void LipRuntime::Halt() {
  halted_ = true;
  if (fabric_ != nullptr) {
    fabric_->DropWaiters(replica_index_, kNoLip);
  }
}

Status LipRuntime::Detach(LipId lip) {
  auto pit = processes_.find(lip);
  if (pit == processes_.end()) {
    return NotFoundError("no such lip " + std::to_string(lip));
  }
  Process& proc = pit->second;
  if (proc.done) {
    return FailedPreconditionError("lip " + std::to_string(lip) +
                                   " already exited");
  }
  for (auto& entry : threads_) {
    Tcb& tcb = entry.second;
    if (tcb.lip == lip) {
      // Keep the frame allocated: an in-flight pred/tool completion may
      // still write its result slot. ~LipRuntime reclaims it.
      tcb.state = ThreadState::kKilled;
      tcb.joiners.clear();
    }
  }
  // Drop the LIP's pending channel waits so a later send is not swallowed
  // by a dead consumer and a freed credit is not granted to a dead sender.
  if (fabric_ != nullptr) {
    fabric_->DropWaiters(replica_index_, lip);
  }
  for (KvHandle handle : proc.open_handles) {
    (void)kvfs_->Close(handle);
  }
  proc.open_handles.clear();
  proc.live_threads = 0;
  proc.join_all_waiters.clear();
  proc.done = true;
  --live_lips_;
  return Status::Ok();
}

const JournalEntry* LipRuntime::NextReplayEntry(Process& proc,
                                                const Tcb& tcb) {
  auto it = proc.replay->cursor.find(tcb.path);
  if (it == proc.replay->cursor.end() || it->second.next >= it->second.end) {
    return nullptr;  // Past what was journaled: this thread runs live.
  }
  return proc.journal->At(tcb.path, it->second.next);
}

bool LipRuntime::ReplayServes(Process& proc, const Tcb& tcb,
                              JournalEntry::Kind kind) {
  if (proc.replay == nullptr || proc.replay->complete) {
    return false;
  }
  const JournalEntry* entry = NextReplayEntry(proc, tcb);
  return entry != nullptr && entry->kind == kind;
}

void LipRuntime::ConsumeReplayEntry(Process& proc, const Tcb& tcb) {
  ++proc.replay->cursor[tcb.path].next;
  ++proc.replay->consumed;
  if (proc.replay->consumed >= proc.replay->total) {
    FinishReplay(proc, /*diverged=*/false);
  }
}

void LipRuntime::FinishReplay(Process& proc, bool diverged) {
  if (proc.replay == nullptr || proc.replay->complete) {
    return;
  }
  proc.replay->complete = true;
  proc.journal->set_replay_hold(false);
  if (proc.expired && !proc.done) {
    // The deadline fired mid-replay; run the teardown ExpireDeadline deferred.
    if (pred_service_ != nullptr) {
      pred_service_->CancelLip(proc.id);
    }
    for (KvHandle handle : proc.open_handles) {
      (void)kvfs_->Close(handle);
    }
    proc.open_handles.clear();
  }
  if (trace_ != nullptr && proc.replay->total > 0) {
    trace_->Span("recovery",
                 (diverged ? std::string("replay-diverged:")
                           : std::string("replay:")) +
                     proc.name,
                 proc.replay->start, sim_->now() - proc.replay->start);
  }
}

void LipRuntime::ReplayDiverged(Process& proc, const char* what) {
  ++stats_.replay_divergences;
  SYMPHONY_LOG(kWarning) << "lip " << proc.id << " replay diverged: " << what;
  // Fall out of replay: the remaining log cannot be trusted, so the LIP
  // continues live from here (output identity is no longer guaranteed).
  FinishReplay(proc, /*diverged=*/true);
}

void LipRuntime::JournalRecvDelivery(ThreadId thread,
                                     const std::string& channel,
                                     uint64_t ordinal,
                                     const std::string& message) {
  Tcb* waiting = Waiting(thread);
  if (waiting == nullptr) {
    return;
  }
  Tcb& tcb = *waiting;
  Process& proc = GetProcess(tcb.lip);
  if (proc.journal == nullptr) {
    return;
  }
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr) {
      // The ordinal is deliberately not checked: replay does not rewind the
      // fabric's delivery counters (see JournalEntry::ordinal).
      if (entry->kind != JournalEntry::Kind::kRecv ||
          entry->payload != message || entry->channel != channel) {
        ReplayDiverged(proc, "recv delivery disagrees with journal");
      } else {
        ConsumeReplayEntry(proc, tcb);
      }
      return;
    }
  }
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kRecv;
  entry.payload = message;
  entry.channel = channel;
  entry.ordinal = ordinal;
  proc.journal->Append(tcb.path, std::move(entry));
}

void LipRuntime::JournalSleepDone(ThreadId thread, SimDuration duration) {
  Tcb* waiting = Waiting(thread);
  if (waiting == nullptr) {
    return;
  }
  Process& proc = GetProcess(waiting->lip);
  if (proc.journal == nullptr) {
    return;
  }
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kSleep;
  entry.duration = duration;
  proc.journal->Append(waiting->path, std::move(entry));
}

LipUsage LipRuntime::GetUsage(LipId lip) const {
  LipUsage usage = GetProcess(lip).usage;
  usage.kv_pages = kvfs_->OwnerPageRefs(lip);
  return usage;
}

const std::string& LipRuntime::Output(LipId lip) const {
  return GetProcess(lip).output;
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

  bool from_journal = false;   // Recompute replay: resubmit, verify, no record.
  size_t verify_index = 0;
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr) {
      if (entry->kind != JournalEntry::Kind::kPred) {
        ReplayDiverged(proc, "pred where journal has a different syscall");
      } else if (proc.replay->mode == RecoveryMode::kImportSnapshot) {
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
      } else if (!entry->status.ok()) {
        // kRecompute with a journaled failure (cancelled pred, deadline
        // rejection delivered through the service): resubmitting could
        // succeed live and diverge — serve the recorded status verbatim.
        result->status = entry->status;
        ConsumeReplayEntry(proc, tcb);
        Ready(thread);
        return;
      } else {
        // kRecompute: fall through to a live submit so the device rebuilds
        // the KV cache; completion checks it reproduced the journaled states.
        from_journal = true;
        verify_index = proc.replay->cursor[tcb.path].next;
        stats_.replay_tokens_recomputed += entry->tokens.size();
        ConsumeReplayEntry(proc, tcb);
      }
    }
  }

  PredRequest request;
  request.lip = tcb.lip;
  request.thread = thread;
  request.kv = kv;
  request.tokens = std::move(tokens);
  request.start = start;
  request.submit_time = sim_->now();
  std::shared_ptr<SyscallJournal> journal = proc.journal;
  bool record = journal != nullptr && !from_journal;
  std::vector<TokenId> rec_tokens;
  if (record) {
    rec_tokens = request.tokens;
  }
  // The journal records the start submitted here: the scheduler moves
  // request.start past each chunk of a split prefill.
  request.complete = [this, thread, result, journal, record, from_journal,
                      verify_index, start, path = tcb.path,
                      rec_tokens = std::move(rec_tokens)](PredResult r) mutable {
    Tcb* waiting = Waiting(thread);
    bool dead = waiting == nullptr;
    if (!dead) {
      // A pred that was in flight at deadline expiry can fail for a teardown
      // reason (its KV handle was closed); attribute that to the deadline.
      // Normalized before journaling so replay serves the same status.
      Process& owner = GetProcess(waiting->lip);
      if (owner.expired && !r.status.ok() &&
          r.status.code() != StatusCode::kDeadlineExceeded) {
        r.status = DeadlineExceededError("deadline expired for lip " +
                                         std::to_string(owner.id));
      }
    }
    if (!dead && record) {
      JournalEntry entry;
      entry.kind = JournalEntry::Kind::kPred;
      entry.status = r.status;
      entry.tokens = std::move(rec_tokens);
      entry.start = start;
      entry.states.reserve(r.dists.size());
      for (const Distribution& d : r.dists) {
        entry.states.push_back(d.state());
      }
      journal->Append(path, std::move(entry));
    } else if (!dead && from_journal) {
      const JournalEntry* expect = journal->At(path, verify_index);
      if (expect == nullptr && journal->FoldedAt(path, verify_index)) {
        // The entry was folded into a store checkpoint while this recompute
        // was in flight; its states are durable there, nothing to verify.
        *result = std::move(r);
        Ready(thread);
        return;
      }
      bool match = expect != nullptr &&
                   r.status.code() == expect->status.code() &&
                   r.dists.size() == expect->states.size();
      if (match) {
        for (size_t i = 0; i < r.dists.size(); ++i) {
          if (r.dists[i].state() != expect->states[i]) {
            match = false;
            break;
          }
        }
      }
      if (!match) {
        ++stats_.replay_divergences;
        SYMPHONY_LOG(kWarning)
            << "recomputed pred diverged from journal (thread path " << path
            << ", entry " << verify_index << ")";
      }
    }
    *result = std::move(r);
    Ready(thread);
  };
  pred_service_->Submit(std::move(request));
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
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr) {
      if (entry->kind != JournalEntry::Kind::kTool) {
        ReplayDiverged(proc, "tool where journal has a different syscall");
      } else {
        // Side-effect-free tools re-serve the recorded output instantly.
        result->status = entry->status;
        result->output = entry->payload;
        ConsumeReplayEntry(proc, tcb);
        Ready(thread);
        return;
      }
    }
  }
  std::shared_ptr<SyscallJournal> journal = proc.journal;
  tool_service_->Invoke(
      lip, thread, tool, args,
      [this, thread, result, journal, path = tcb.path](ToolResult r) {
        if (journal != nullptr && Waiting(thread) != nullptr) {
          JournalEntry entry;
          entry.kind = JournalEntry::Kind::kTool;
          entry.status = r.status;
          entry.payload = r.output;
          journal->Append(path, std::move(entry));
        }
        *result = std::move(r);
        Ready(thread);
      });
}

void LipRuntime::SubmitSleep(ThreadId thread, SimDuration duration) {
  BlockCurrent();
  Tcb& tcb = GetTcb(thread);
  Process& proc = GetProcess(tcb.lip);
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr) {
      if (entry->kind != JournalEntry::Kind::kSleep) {
        ReplayDiverged(proc, "sleep where journal has a different syscall");
      } else {
        // The original run already waited this out; skip the wait.
        ConsumeReplayEntry(proc, tcb);
        Ready(thread);
        return;
      }
    }
  }
  sim_->ScheduleAfter(duration, [this, thread, duration] {
    JournalSleepDone(thread, duration);
    Ready(thread);
  });
}

bool LipRuntime::ThreadDone(ThreadId thread) const {
  return !threads_.contains(thread);
}

void LipRuntime::AddJoiner(ThreadId target, ThreadId waiter) {
  auto it = threads_.find(target);
  if (it == threads_.end()) {
    Ready(waiter);
    return;
  }
  it->second.joiners.push_back(waiter);
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
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr && entry->kind == JournalEntry::Kind::kCreditWait &&
        entry->channel == channel) {
      // The original send parked for a credit granted at this ordinal.
      // Remember it so this thread's first LIVE blocked send re-parks at
      // its original sender-FIFO position, then consume the kSend that
      // the grant completed (next entry, same syscall).
      tcb.replay_send_resume[channel] = entry->ordinal + 1;
      ++stats_.ipc_credit_waits_replayed;
      ConsumeReplayEntry(proc, tcb);
      entry = NextReplayEntry(proc, tcb);
    }
    if (entry != nullptr) {
      if (entry->kind == JournalEntry::Kind::kSend &&
          entry->channel == channel && entry->payload == *message) {
        // The original send already reached (or is queued for) the peer;
        // re-sending would duplicate it at a live endpoint. No credit is
        // consumed: the original message's credit travels with it.
        ++stats_.ipc_sends_suppressed;
        ++stats_.ipc_messages;
        ConsumeReplayEntry(proc, tcb);
        return true;
      }
      ReplayDiverged(proc, "send disagrees with journal");
      // Fall through live: the message is new as far as anyone knows.
    }
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
  if (proc.journal != nullptr) {
    JournalEntry entry;
    entry.kind = JournalEntry::Kind::kSend;
    entry.channel = channel;
    entry.payload = std::move(payload);
    proc.journal->Append(tcb.path, std::move(entry));
  }
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
  Process& proc = GetProcess(waiting->lip);
  if (proc.journal != nullptr) {
    // Journal grant + send in consumption order, at the syscall boundary:
    // replay consumes the kCreditWait (re-park hint) then the kSend
    // (suppressed) without ever touching the live fabric.
    JournalEntry wait;
    wait.kind = JournalEntry::Kind::kCreditWait;
    wait.channel = channel;
    wait.ordinal = grant_ordinal;
    proc.journal->Append(waiting->path, std::move(wait));
    JournalEntry send;
    send.kind = JournalEntry::Kind::kSend;
    send.channel = channel;
    send.payload = *slot;
    proc.journal->Append(waiting->path, std::move(send));
  }
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
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr) {
      if (entry->kind == JournalEntry::Kind::kRecv &&
          entry->channel == channel) {
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
      // Per-thread logs are ordered, so the original run's next completed
      // syscall was this recv; anything else is divergence. Fall through
      // to a live receive afterwards.
      ReplayDiverged(proc, "recv where journal has a different syscall");
    }
  }
  uint64_t ordinal = 0;
  if (!fabric_->TryRecv(replica_index_, tcb.lip, channel, message, &ordinal)) {
    return false;
  }
  // Live delivery: any replay re-park hint is now stale.
  tcb.replay_recv_resume.erase(channel);
  JournalRecvDelivery(current_, channel, ordinal, *message);
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
  if (Waiting(thread) == nullptr) {
    return false;
  }
  *slot = message;
  JournalRecvDelivery(thread, channel, ordinal, *slot);
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
