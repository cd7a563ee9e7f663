#include "src/runtime/runtime.h"

#include <cassert>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/runtime/lip_context.h"

namespace symphony {

LipRuntime::LipRuntime(Simulator* sim, Kvfs* kvfs, RuntimeOptions options)
    : sim_(sim), kvfs_(kvfs), options_(options) {
  assert(sim != nullptr);
  assert(kvfs != nullptr);
  kvfs_->set_page_quota_hook([this](LipId lip) {
    auto it = processes_.find(lip);
    return it == processes_.end() ? UINT64_MAX : it->second.quota.max_kv_pages;
  });
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
  Tcb& tcb = GetTcb(thread);
  if (tcb.state == ThreadState::kKilled) {
    return;  // Detached LIP: a late completion wrote its slot; drop the wake.
  }
  assert(tcb.state != ThreadState::kDone && "waking a finished thread");
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
  Tcb& tcb = GetTcb(thread);
  if (tcb.state != ThreadState::kReady) {
    return;  // Stale event.
  }
  tcb.state = ThreadState::kRunning;
  ThreadId prev = current_;
  current_ = thread;
  ++stats_.context_switches;
  tcb.resume_point.resume();
  current_ = prev;
  if (tcb.handle.done()) {
    OnThreadExit(tcb);
  }
}

void LipRuntime::OnThreadExit(Tcb& tcb) {
  tcb.state = ThreadState::kDone;
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
    // Process exit: release kernel resources the LIP left open.
    for (KvHandle handle : proc.open_handles) {
      Status st = kvfs_->Close(handle);
      if (!st.ok()) {
        SYMPHONY_LOG(kDebug) << "lip " << proc.id
                             << " exit close failed: " << st.ToString();
      }
    }
    proc.open_handles.clear();
    proc.done = true;
    --live_lips_;
    ++stats_.lips_completed;
    if (trace_ != nullptr) {
      trace_->Span("lips", proc.name, proc.launch_time,
                   sim_->now() - proc.launch_time);
    }
    if (proc.on_exit) {
      // Run after the current dispatch completes so the callback sees a
      // settled runtime state.
      LipId lip = proc.id;
      auto callback = proc.on_exit;
      sim_->ScheduleAt(sim_->now(), [callback, lip] { callback(lip); });
    }
  }
}

bool LipRuntime::LipDone(LipId lip) const { return GetProcess(lip).done; }

void LipRuntime::SetQuota(LipId lip, LipQuota quota) {
  Process& proc = GetProcess(lip);
  proc.quota = quota;
  if (proc.journal != nullptr) {
    proc.journal->has_quota = true;
    proc.journal->quota_max_pred_tokens = quota.max_pred_tokens;
    proc.journal->quota_max_tool_calls = quota.max_tool_calls;
    proc.journal->quota_max_threads = quota.max_threads;
    proc.journal->quota_max_kv_pages = quota.max_kv_pages;
  }
}

void LipRuntime::SetDeadline(LipId lip, SimTime deadline) {
  Process& proc = GetProcess(lip);
  proc.deadline = deadline;
  proc.expired = false;
  if (proc.journal != nullptr) {
    proc.journal->has_deadline = true;
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
  if (proc.deadline != 0) {
    journal->has_deadline = true;
    journal->deadline = proc.deadline;
  }
  LipQuota unlimited;
  if (proc.quota.max_pred_tokens != unlimited.max_pred_tokens ||
      proc.quota.max_tool_calls != unlimited.max_tool_calls ||
      proc.quota.max_threads != unlimited.max_threads ||
      proc.quota.max_kv_pages != unlimited.max_kv_pages) {
    journal->has_quota = true;
    journal->quota_max_pred_tokens = proc.quota.max_pred_tokens;
    journal->quota_max_tool_calls = proc.quota.max_tool_calls;
    journal->quota_max_threads = proc.quota.max_threads;
    journal->quota_max_kv_pages = proc.quota.max_kv_pages;
  }
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
  replay->total = proc.journal->total_entries();
  replay->start = sim_->now();
  proc.replay = std::move(replay);
  ++stats_.lips_replayed;
  if (proc.replay->total == 0) {
    proc.replay->complete = true;  // Empty journal: live immediately.
  }
  return Status::Ok();
}

void LipRuntime::Halt() {
  halted_ = true;
  if (fabric_ != nullptr) {
    fabric_->DropReplicaWaiters(replica_index_);
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
    if (tcb.lip == lip && tcb.state != ThreadState::kDone) {
      // Keep the frame allocated: an in-flight pred/tool completion may
      // still write its result slot. ~LipRuntime reclaims it.
      tcb.state = ThreadState::kKilled;
      tcb.joiners.clear();
    }
  }
  // Drop the LIP's pending channel waits so a later send is not swallowed
  // by a dead consumer.
  if (fabric_ != nullptr) {
    fabric_->DropWaiters(replica_index_, lip);
  }
  for (auto& entry : channels_) {
    Channel& ch = entry.second;
    std::deque<std::pair<ThreadId, std::string*>> kept;
    for (auto& waiter : ch.waiters) {
      auto tit = threads_.find(waiter.first);
      if (tit != threads_.end() && tit->second.lip == lip) {
        continue;
      }
      kept.push_back(waiter);
    }
    ch.waiters = std::move(kept);
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
  return proc.journal->At(tcb.path, proc.replay->cursor[tcb.path]);
}

bool LipRuntime::ReplayServes(Process& proc, const Tcb& tcb) {
  return proc.replay != nullptr && !proc.replay->complete &&
         NextReplayEntry(proc, tcb) != nullptr;
}

void LipRuntime::ConsumeReplayEntry(Process& proc, const Tcb& tcb) {
  ++proc.replay->cursor[tcb.path];
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
  if (halted_) {
    return;
  }
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.state == ThreadState::kKilled) {
    return;
  }
  Tcb& tcb = it->second;
  Process& proc = GetProcess(tcb.lip);
  if (proc.journal == nullptr) {
    return;
  }
  if (proc.replay != nullptr && !proc.replay->complete) {
    const JournalEntry* entry = NextReplayEntry(proc, tcb);
    if (entry != nullptr) {
      // The ordinal is deliberately not checked: it counts deliveries on the
      // channel object, which a fresh runtime restarts at zero.
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
  if (halted_) {
    return;
  }
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.state == ThreadState::kKilled) {
    return;
  }
  Process& proc = GetProcess(it->second.lip);
  if (proc.journal == nullptr) {
    return;
  }
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kSleep;
  entry.duration = duration;
  proc.journal->Append(it->second.path, std::move(entry));
}

LipUsage LipRuntime::GetUsage(LipId lip) const {
  LipUsage usage = GetProcess(lip).usage;
  usage.kv_pages = kvfs_->OwnerPageRefs(lip);
  return usage;
}

const std::string& LipRuntime::Output(LipId lip) const {
  return GetProcess(lip).output;
}

void LipRuntime::SubmitPred(ThreadId thread, KvHandle kv,
                            std::vector<TokenId> tokens,
                            std::vector<int32_t> positions, PredResult* result) {
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
  // run where the rejection short-circuits. Suppressed while the journal
  // still serves this thread: the original run's pre-expiry syscalls must
  // replay even though replay's compressed timeline is past the deadline.
  if (proc.expired && !ReplayServes(proc, tcb)) {
    ++stats_.deadline_rejections;
    result->status = DeadlineExceededError("deadline expired for lip " +
                                           std::to_string(proc.id));
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
        ++stats_.preds_replayed;
        stats_.replay_tokens_imported += entry->tokens.size();
        result->status = entry->status;
        if (entry->status.ok()) {
          std::vector<TokenRecord> records;
          records.reserve(entry->tokens.size());
          for (size_t i = 0; i < entry->tokens.size(); ++i) {
            records.push_back(
                {entry->tokens[i], entry->positions[i], entry->states[i]});
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
        ++stats_.preds_replayed;
        result->status = entry->status;
        ConsumeReplayEntry(proc, tcb);
        Ready(thread);
        return;
      } else {
        // kRecompute: fall through to a live submit so the device rebuilds
        // the KV cache; completion checks it reproduced the journaled states.
        from_journal = true;
        verify_index = proc.replay->cursor[tcb.path];
        ++stats_.preds_replayed;
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
  request.positions = std::move(positions);
  request.submit_time = sim_->now();
  std::shared_ptr<SyscallJournal> journal = proc.journal;
  bool record = journal != nullptr && !from_journal;
  std::vector<TokenId> rec_tokens;
  std::vector<int32_t> rec_positions;
  if (record) {
    rec_tokens = request.tokens;
    rec_positions = request.positions;
  }
  request.complete = [this, thread, result, journal, record, from_journal,
                      verify_index, path = tcb.path,
                      rec_tokens = std::move(rec_tokens),
                      rec_positions = std::move(rec_positions)](
                         PredResult r) mutable {
    auto it = threads_.find(thread);
    bool dead = halted_ || it == threads_.end() ||
                it->second.state == ThreadState::kKilled;
    if (!dead) {
      // A pred that was in flight at deadline expiry can fail for a teardown
      // reason (its KV handle was closed); attribute that to the deadline.
      // Normalized before journaling so replay serves the same status.
      Process& owner = GetProcess(it->second.lip);
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
      entry.positions = std::move(rec_positions);
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
  ++stats_.tools_invoked;
  if (tool_service_ == nullptr) {
    result->status = FailedPreconditionError("no tool service attached");
    Ready(thread);
    return;
  }
  Tcb& tcb = GetTcb(thread);
  LipId lip = tcb.lip;
  Process& proc = GetProcess(lip);
  if (proc.expired && !ReplayServes(proc, tcb)) {
    ++stats_.deadline_rejections;
    result->status =
        DeadlineExceededError("deadline expired for lip " + std::to_string(lip));
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
        ++stats_.tools_replayed;
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
        auto it = threads_.find(thread);
        bool dead = halted_ || it == threads_.end() ||
                    it->second.state == ThreadState::kKilled;
        if (journal != nullptr && !dead) {
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
        ++stats_.sleeps_replayed;
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
  auto it = threads_.find(thread);
  return it == threads_.end() || it->second.state == ThreadState::kDone;
}

void LipRuntime::AddJoiner(ThreadId target, ThreadId waiter) {
  auto it = threads_.find(target);
  if (it == threads_.end() || it->second.state == ThreadState::kDone) {
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
  if (fabric_ != nullptr) {
    LipId sender = kNoLip;
    if (current_ != 0) {
      Tcb& tcb = GetTcb(current_);
      sender = tcb.lip;
      Process& proc = GetProcess(tcb.lip);
      if (proc.replay != nullptr && !proc.replay->complete) {
        const JournalEntry* entry = NextReplayEntry(proc, tcb);
        if (entry != nullptr &&
            entry->kind == JournalEntry::Kind::kCreditWait &&
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
    }
    // TrySend consumes *message on success, so capture the payload for the
    // journal first (the original code paid the same copy).
    std::string payload;
    bool journal = false;
    if (current_ != 0 && GetProcess(GetTcb(current_).lip).journal != nullptr) {
      journal = true;
      payload = *message;
    }
    if (!fabric_->TrySend(replica_index_, sender, channel, message)) {
      return false;  // Out of credits: park; journaling happens at grant.
    }
    ++stats_.ipc_messages;
    if (current_ != 0) {
      // Re-fetch: TrySend can drain deliveries that touch thread state.
      Tcb& tcb = GetTcb(current_);
      tcb.replay_send_resume.erase(channel);  // Completed live: hint stale.
      if (journal) {
        JournalEntry entry;
        entry.kind = JournalEntry::Kind::kSend;
        entry.channel = channel;
        entry.payload = std::move(payload);
        GetProcess(tcb.lip).journal->Append(tcb.path, std::move(entry));
      }
    }
    return true;
  }
  ++stats_.ipc_messages;
  Channel& ch = channels_[channel];
  if (!ch.waiters.empty()) {
    auto [waiter, slot] = ch.waiters.front();
    ch.waiters.pop_front();
    *slot = std::move(*message);
    JournalRecvDelivery(waiter, channel, ch.next_ordinal++, *slot);
    Ready(waiter);
    return true;
  }
  ch.messages.push_back(std::move(*message));
  return true;
}

void LipRuntime::ChannelAddSendWaiter(const std::string& channel,
                                      ThreadId waiter, std::string* slot) {
  ++stats_.ipc_sends_blocked;
  LipId sender = kNoLip;
  uint64_t resume_grant = 0;
  if (current_ != 0) {
    Tcb& tcb = GetTcb(waiter);
    sender = tcb.lip;
    auto hint = tcb.replay_send_resume.find(channel);
    if (hint != tcb.replay_send_resume.end()) {
      resume_grant = hint->second;  // One-shot: first re-park only.
      tcb.replay_send_resume.erase(hint);
    }
  }
  fabric_->AddSendWaiter(replica_index_, sender, channel, waiter, slot,
                         resume_grant);
}

bool LipRuntime::CompleteBlockedSend(ThreadId thread, std::string* slot,
                                     const std::string& channel,
                                     uint64_t grant_ordinal,
                                     std::string* bytes) {
  if (halted_) {
    return false;
  }
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.state == ThreadState::kKilled ||
      it->second.state == ThreadState::kDone) {
    return false;
  }
  Tcb& tcb = it->second;
  Process& proc = GetProcess(tcb.lip);
  if (proc.journal != nullptr) {
    // Journal grant + send in consumption order, at the syscall boundary:
    // replay consumes the kCreditWait (re-park hint) then the kSend
    // (suppressed) without ever touching the live fabric.
    JournalEntry wait;
    wait.kind = JournalEntry::Kind::kCreditWait;
    wait.channel = channel;
    wait.ordinal = grant_ordinal;
    proc.journal->Append(tcb.path, std::move(wait));
    JournalEntry send;
    send.kind = JournalEntry::Kind::kSend;
    send.channel = channel;
    send.payload = *slot;
    proc.journal->Append(tcb.path, std::move(send));
  }
  ++stats_.ipc_messages;
  ++stats_.ipc_credit_grants;
  *bytes = std::move(*slot);
  Ready(thread);
  return true;
}

bool LipRuntime::ChannelTryRecv(const std::string& channel, std::string* message) {
  if (fabric_ != nullptr) {
    LipId receiver = kNoLip;
    if (current_ != 0) {
      Tcb& tcb = GetTcb(current_);
      receiver = tcb.lip;
      Process& proc = GetProcess(tcb.lip);
      if (proc.replay != nullptr && !proc.replay->complete) {
        const JournalEntry* entry = NextReplayEntry(proc, tcb);
        if (entry != nullptr) {
          if (entry->kind == JournalEntry::Kind::kRecv &&
              entry->channel == channel) {
            // Serve the delivery verbatim — the fabric's copy was consumed
            // by the original incarnation (tool-result discipline). Remember
            // the ordinal: when this thread's journal runs dry mid-wait, the
            // fabric uses it to re-park the thread in its original queue
            // position among this LIP's other waiters.
            *message = entry->payload;
            tcb.replay_recv_resume[channel] = entry->ordinal + 1;
            ++stats_.ipc_recvs_replayed;
            ConsumeReplayEntry(proc, tcb);
            return true;
          }
          // Per-thread logs are ordered, so the original run's next
          // completed syscall was this recv; anything else is divergence.
          // Fall through to a live receive afterwards.
          ReplayDiverged(proc, "recv where journal has a different syscall");
        }
      }
    }
    uint64_t ordinal = 0;
    if (!fabric_->TryRecv(replica_index_, receiver, channel, message,
                          &ordinal)) {
      return false;
    }
    if (current_ != 0) {
      // Live delivery: any replay re-park hint is now stale.
      GetTcb(current_).replay_recv_resume.erase(channel);
      JournalRecvDelivery(current_, channel, ordinal, *message);
    }
    return true;
  }
  auto it = channels_.find(channel);
  if (it == channels_.end() || it->second.messages.empty()) {
    return false;
  }
  *message = std::move(it->second.messages.front());
  it->second.messages.pop_front();
  if (current_ != 0) {
    JournalRecvDelivery(current_, channel, it->second.next_ordinal++, *message);
  }
  return true;
}

void LipRuntime::ChannelAddWaiter(const std::string& channel, ThreadId waiter,
                                  std::string* slot) {
  if (fabric_ != nullptr) {
    LipId receiver = kNoLip;
    uint64_t resume_ordinal = 0;
    if (current_ != 0) {
      Tcb& tcb = GetTcb(waiter);
      receiver = tcb.lip;
      auto hint = tcb.replay_recv_resume.find(channel);
      if (hint != tcb.replay_recv_resume.end()) {
        resume_ordinal = hint->second;  // One-shot: first re-park only.
        tcb.replay_recv_resume.erase(hint);
      }
    }
    fabric_->AddWaiter(replica_index_, receiver, channel, waiter, slot,
                       resume_ordinal);
    return;
  }
  channels_[channel].waiters.emplace_back(waiter, slot);
}

bool LipRuntime::DeliverToWaiter(ThreadId thread, std::string* slot,
                                 const std::string& channel, uint64_t ordinal,
                                 const std::string& message) {
  if (halted_) {
    return false;
  }
  auto it = threads_.find(thread);
  if (it == threads_.end() || it->second.state == ThreadState::kKilled ||
      it->second.state == ThreadState::kDone) {
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
