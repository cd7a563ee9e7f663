#include "src/sched/inference_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace symphony {

InferenceScheduler::InferenceScheduler(Simulator* sim, Kvfs* kvfs,
                                       const Model* model, Device* device,
                                       std::unique_ptr<BatchPolicy> policy,
                                       InferenceSchedulerOptions options)
    : sim_(sim),
      kvfs_(kvfs),
      model_(model),
      device_(device),
      policy_(std::move(policy)),
      options_(options) {
  assert(policy_ != nullptr);
}

StatusOr<uint64_t> InferenceScheduler::Validate(const PredRequest& request) {
  SYMPHONY_ASSIGN_OR_RETURN(uint64_t length, kvfs_->Length(request.kv));
  for (size_t i = 0; i < request.positions.size(); ++i) {
    int64_t expected = static_cast<int64_t>(length) + static_cast<int64_t>(i);
    if (request.positions[i] != expected) {
      return InvalidArgumentError(
          "pred positions must continue the kv file (expected " +
          std::to_string(expected) + ", got " +
          std::to_string(request.positions[i]) + ")");
    }
  }
  return length;
}

void InferenceScheduler::Submit(PredRequest request) {
  ++stats_.submitted;
  // A fresh submit supersedes any earlier cancellation of this LIP (journal
  // replay re-executes a recovered LIP through the live scheduler).
  cancelled_lips_.erase(request.lip);
  SimTime now = sim_->now();
  if (last_submit_ > 0) {
    double gap_s = std::max(ToSeconds(now - last_submit_), 1e-6);
    double inst_rate = 1.0 / gap_s;
    rate_per_sec_ = rate_per_sec_ == 0.0
                        ? inst_rate
                        : (1.0 - options_.rate_ewma_alpha) * rate_per_sec_ +
                              options_.rate_ewma_alpha * inst_rate;
  }
  last_submit_ = now;
  queue_.push_back(std::move(request));
  MaybeLaunch();
}

// Walks the queue in pick order for one batch. kFifo takes arrival order;
// kFairShare takes the oldest request among LIPs with the fewest picks so
// far this batch; decode priority takes decode-sized requests first, then
// tops up with one prefill chunk. Incremental: only picks the caller
// Accept()s count toward the batch caps and the one-prefill top-up, so a
// pick LaunchBatch drops (failed validation or KV restore) leaves room for
// the next. Both MaybeLaunch's prospective profile and LaunchBatch drive
// it. Requests pushed onto the queue while it walks are never picked.
class InferenceScheduler::BatchPicker {
 public:
  explicit BatchPicker(const InferenceScheduler& scheduler);
  // Queue index of the next pick, or kNoPick once the batch is complete.
  size_t Next();
  // Counts the last pick, `take` new tokens, into the batch.
  void Accept(uint64_t take);
  // Removes every pick from `queue`, keeping the rest in order.
  void RemovePicks(std::deque<PredRequest>& queue) const;

 private:
  size_t Scan(bool decode_only);
  bool Picked(size_t i) const { return i < picked_.size() && picked_[i] != 0; }

  const InferenceScheduler& scheduler_;
  const size_t limit_;        // Queue size when the walk began.
  std::vector<char> picked_;  // Pick mask over [0, deepest pick].
  size_t picks_ = 0;
  size_t front_ = 0;          // Every index below it is picked.
  size_t decode_front_ = 0;   // Below it, picked or not a decode.
  std::unordered_map<LipId, uint32_t> taken_;  // kFairShare picks per LIP.
  uint32_t floor_ = 0;        // No candidate left has fewer picks.
  size_t accepted_ = 0;
  uint64_t tokens_ = 0;
  bool decode_phase_;
  bool done_ = false;
};

void InferenceScheduler::MaybeLaunch() {
  bool ready = !device_->busy() && !queue_.empty();
  if (ready && sim_->now() < next_launch_time_ &&
      recheck_at_ == next_launch_time_) {
    return;  // The formation window's recheck is already armed.
  }
  ++recheck_generation_;  // Supersedes any pending recheck.
  recheck_at_ = kNoRecheck;
  if (!ready) {
    return;
  }
  if (sim_->now() < next_launch_time_) {
    // Batch-formation window after a completion: wait for just-woken threads
    // to resubmit before launching.
    ArmRecheck(next_launch_time_);
    return;
  }

  // Profile the batch LaunchBatch would form, picked the same way, so
  // est_batch_time describes the batch that actually launches. Nothing is
  // validated here, so every pick counts.
  std::vector<WorkItem> items;
  items.reserve(std::min(queue_.size(), options_.max_batch_requests));
  BatchPicker picker(*this);
  for (size_t pick = picker.Next(); pick != kNoPick; pick = picker.Next()) {
    const PredRequest& request = queue_[pick];
    uint64_t take = ChunkTake(request);
    StatusOr<uint64_t> length = kvfs_->Length(request.kv);
    items.push_back(WorkItem{take, length.ok() ? *length : 0});
    picker.Accept(take);
  }

  BatchPolicyInput input;
  input.queue_size = queue_.size();
  input.oldest_wait = sim_->now() - queue_.front().submit_time;
  input.arrival_rate_per_sec = rate_per_sec_;
  input.est_batch_time = device_->EstimateTime(items, 0);
  input.max_batch = options_.max_batch_requests;

  BatchDecision decision = policy_->ShouldLaunch(input);
  if (decision.launch) {
    LaunchBatch();
    return;
  }
  SimDuration delay = std::max<SimDuration>(decision.recheck_after, Micros(10));
  ArmRecheck(sim_->now() + delay);
}

void InferenceScheduler::ArmRecheck(SimTime when) {
  recheck_at_ = when;
  sim_->ScheduleAt(when, [this, generation = recheck_generation_] {
    if (generation == recheck_generation_) {
      recheck_at_ = kNoRecheck;
      MaybeLaunch();
    }
  });
}

InferenceScheduler::BatchPicker::BatchPicker(const InferenceScheduler& scheduler)
    : scheduler_(scheduler),
      limit_(scheduler.queue_.size()),
      decode_phase_(scheduler.options_.decode_priority) {}

size_t InferenceScheduler::BatchPicker::Next() {
  const InferenceSchedulerOptions& options = scheduler_.options_;
  if (done_ || accepted_ >= options.max_batch_requests ||
      tokens_ >= options.max_batch_tokens) {
    return kNoPick;
  }
  size_t pick = Scan(decode_phase_);
  if (pick == kNoPick && decode_phase_) {
    decode_phase_ = false;  // Decodes exhausted; top up with one prefill.
    floor_ = 0;
    pick = Scan(false);
  }
  if (pick == kNoPick) {
    done_ = true;
    return kNoPick;
  }
  if (pick >= picked_.size()) {
    picked_.resize(pick + 1, 0);
  }
  picked_[pick] = 1;
  ++picks_;
  if (options.discipline == QueueDiscipline::kFairShare) {
    ++taken_[scheduler_.queue_[pick].lip];
  }
  return pick;
}

void InferenceScheduler::BatchPicker::Accept(uint64_t take) {
  ++accepted_;
  tokens_ += take;
  if (!decode_phase_ && scheduler_.options_.decode_priority) {
    done_ = true;  // Decode-priority batches carry at most one prefill chunk.
  }
}

// Takes the oldest candidate among LIPs with the fewest picks so far this
// batch. Only fair share counts picks, so FIFO takes the oldest candidate
// outright. A continuation of a chunked prefill carries its original LIP, so
// a split prefill still costs its LIP exactly one fair-share turn per batch.
// Each phase resumes from a cursor past its non-candidates, and since pick
// counts only grow, the fewest a scan found bounds the next one from below:
// it stops at the first candidate with that many.
size_t InferenceScheduler::BatchPicker::Scan(bool decode_only) {
  const std::deque<PredRequest>& queue = scheduler_.queue_;
  auto candidate = [&](size_t i) {
    return !Picked(i) && (!decode_only || scheduler_.IsDecode(queue[i]));
  };
  size_t& start = decode_only ? decode_front_ : front_;
  while (start < limit_ && !candidate(start)) {
    ++start;
  }
  size_t best = kNoPick;
  uint32_t best_count = UINT32_MAX;
  for (size_t i = start; i < limit_; ++i) {
    if (!candidate(i)) {
      continue;
    }
    auto it = taken_.find(queue[i].lip);
    uint32_t count = it == taken_.end() ? 0 : it->second;
    if (count < best_count) {
      best = i;
      best_count = count;
      if (count == floor_) {
        break;  // Arrival order among the fewest-pick LIPs.
      }
    }
  }
  floor_ = best_count;
  return best;
}

void InferenceScheduler::BatchPicker::RemovePicks(
    std::deque<PredRequest>& queue) const {
  // Shift the survivors of [0, deepest pick] to the back of that range, in
  // order, then pop the picked slots off the front.
  size_t write = picked_.size();
  for (size_t i = picked_.size(); i-- > 0;) {
    if (picked_[i] == 0) {
      queue[--write] = std::move(queue[i]);
    }
  }
  for (size_t i = 0; i < picks_; ++i) {
    queue.pop_front();
  }
}

bool InferenceScheduler::IsDecode(const PredRequest& request) const {
  return request.chunk_done == 0 &&
         request.tokens.size() <= options_.decode_classify_tokens;
}

uint64_t InferenceScheduler::ChunkTake(const PredRequest& request) const {
  uint64_t take = request.tokens.size();
  if (options_.prefill_chunk_tokens > 0 &&
      take > options_.prefill_chunk_tokens) {
    take = options_.prefill_chunk_tokens;
  }
  return take;
}

void InferenceScheduler::RecordQueueWait(const PredRequest& request) {
  // Continuations of an already-launched chunked prefill keep the original
  // submit_time; only the original request samples the wait.
  if (request.chunk_done == 0) {
    double wait_ms = ToMillis(sim_->now() - request.submit_time);
    queue_waits_ms_.Add(wait_ms);
    if (queue_wait_hook_ != nullptr) {
      queue_wait_hook_(wait_ms);
    }
  }
}

void InferenceScheduler::LaunchBatch() {
  struct BatchEntry {
    PredRequest request;
    uint64_t take;  // New tokens of this request executed by this batch.
  };
  auto batch = std::make_shared<std::vector<BatchEntry>>();
  std::vector<WorkItem> items;
  // Picks are moved out as they are made and their slots removed after the
  // loop (completion callbacks never reenter the scheduler synchronously).
  BatchPicker picker(*this);
  for (size_t pick = picker.Next(); pick != kNoPick; pick = picker.Next()) {
    bool decode = IsDecode(queue_[pick]);
    PredRequest request = std::move(queue_[pick]);
    StatusOr<uint64_t> context = Validate(request);
    if (!context.ok()) {
      ++stats_.failed;
      RecordQueueWait(request);
      request.complete(PredResult{context.status(), {}});
      continue;
    }
    // Bring the file fully on-device; the implied PCIe traffic is charged to
    // this batch below.
    Status restore = kvfs_->RestoreToGpu(request.kv);
    if (!restore.ok()) {
      if (restore.code() == StatusCode::kResourceExhausted) {
        (void)RequeueForMemory(request, restore);
      } else {
        ++stats_.failed;
        RecordQueueWait(request);
        request.complete(PredResult{restore, {}});
      }
      continue;
    }
    RecordQueueWait(request);
    // Tokens a split prefill appended in earlier chunks are fresh compute,
    // not reused prefix.
    stats_.prefix_reuse_tokens +=
        *context - std::min<uint64_t>(*context, request.chunk_done);
    uint64_t take = ChunkTake(request);
    if (take < request.tokens.size() || request.chunk_done > 0) {
      ++stats_.prefill_chunks;
    }
    if (decode) {
      stats_.decode_tokens_batched += take;
    } else {
      stats_.prefill_tokens_batched += take;
    }
    items.push_back(WorkItem{take, *context});
    batch->push_back(BatchEntry{std::move(request), take});
    picker.Accept(take);
  }
  picker.RemovePicks(queue_);

  if (batch->empty()) {
    // Everything in this round failed validation; look again.
    MaybeLaunch();
    return;
  }

  uint64_t transfer_bytes = kvfs_->TakePendingTransferBytes();
  ++stats_.batches;
  device_->Execute(std::move(items), transfer_bytes, [this, batch] {
    next_launch_time_ = sim_->now() + options_.formation_delay;
    for (BatchEntry& entry : *batch) {
      CompleteRequest(entry.request, entry.take);
    }
    MaybeLaunch();
  });
}

void InferenceScheduler::CancelLip(LipId lip) {
  std::deque<PredRequest> kept;
  for (PredRequest& request : queue_) {
    if (request.lip != lip) {
      kept.push_back(std::move(request));
      continue;
    }
    ++stats_.cancelled;
    RecordQueueWait(request);
    request.complete(PredResult{
        DeadlineExceededError("pred cancelled: lip deadline expired"), {}});
  }
  queue_ = std::move(kept);
  // Requests sleeping out a memory-retry backoff are caught when their
  // retry event fires (see RequeueForMemory).
  cancelled_lips_.insert(lip);
}

bool InferenceScheduler::RequeueForMemory(PredRequest& request, const Status& why) {
  if (request.memory_retries >= options_.max_memory_retries) {
    ++stats_.failed;
    RecordQueueWait(request);
    request.complete(PredResult{why, {}});
    return false;
  }
  ++request.memory_retries;
  ++stats_.memory_requeues;
  stats_.max_memory_retry_depth =
      std::max(stats_.max_memory_retry_depth, request.memory_retries);
  // Exponential backoff: base * 2^(retries-1), capped. Shift width is bounded
  // by the cap check below (cap/base fits in far fewer than 63 bits).
  SimDuration backoff = options_.memory_retry_backoff;
  for (uint32_t i = 1; i < request.memory_retries && backoff < options_.memory_retry_backoff_cap; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.memory_retry_backoff_cap);
  auto retry = std::make_shared<PredRequest>(std::move(request));
  sim_->ScheduleAfter(backoff, [this, retry] {
    if (cancelled_lips_.count(retry->lip) != 0) {
      ++stats_.cancelled;
      RecordQueueWait(*retry);
      retry->complete(PredResult{
          DeadlineExceededError("pred cancelled: lip deadline expired"), {}});
      return;
    }
    queue_.push_back(std::move(*retry));
    MaybeLaunch();
  });
  return true;
}

void InferenceScheduler::CompleteRequest(PredRequest& request, uint64_t take) {
  // Re-validate: another LIP may have appended to a shared file while this
  // batch was executing.
  StatusOr<uint64_t> length = Validate(request);
  if (!length.ok()) {
    ++stats_.failed;
    request.complete(PredResult{length.status(), {}});
    return;
  }

  HiddenState state;
  if (*length == 0) {
    state = model_->InitialState();
  } else {
    StatusOr<HiddenState> tail = kvfs_->TailState(request.kv);
    if (!tail.ok()) {
      ++stats_.failed;
      request.complete(PredResult{tail.status(), {}});
      return;
    }
    state = *tail;
  }

  take = std::min<uint64_t>(take, request.tokens.size());
  std::vector<TokenRecord> records;
  records.reserve(take);
  std::vector<Distribution> dists;
  dists.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    state = model_->Advance(state, request.tokens[i], request.positions[i]);
    records.push_back(TokenRecord{request.tokens[i], request.positions[i], state});
    dists.push_back(model_->Predict(state));
  }

  Status append = kvfs_->Append(request.kv, records);
  if (!append.ok()) {
    if (append.code() == StatusCode::kResourceExhausted) {
      // The whole remaining request (this chunk included) bounces; the next
      // launch re-derives the chunk split.
      (void)RequeueForMemory(request, append);
      return;
    }
    ++stats_.failed;
    request.complete(PredResult{append, {}});
    return;
  }

  if (take < request.tokens.size()) {
    // A prefill chunk: bank its distributions and re-queue the remainder as
    // a position-contiguous continuation. The continuation keeps the
    // original submit time, LIP identity, and completion callback, so
    // fair-share, deadlines, and memory-requeue treat it as the one request
    // it is. Front of the queue: under FIFO the prefill finishes as early as
    // unchunked would; decode-priority packing reorders around it anyway.
    if (request.chunk_dists == nullptr) {
      ++stats_.prefills_chunked;
      request.chunk_dists = std::make_shared<std::vector<Distribution>>();
    }
    request.chunk_dists->insert(request.chunk_dists->end(), dists.begin(),
                                dists.end());
    request.chunk_done += take;
    request.tokens.erase(request.tokens.begin(),
                         request.tokens.begin() + static_cast<ptrdiff_t>(take));
    request.positions.erase(
        request.positions.begin(),
        request.positions.begin() + static_cast<ptrdiff_t>(take));
    if (cancelled_lips_.count(request.lip) != 0) {
      // The LIP's deadline expired while this chunk was executing; the
      // continuation dies the way a queued request would have.
      ++stats_.cancelled;
      request.complete(PredResult{
          DeadlineExceededError("pred cancelled: lip deadline expired"), {}});
      return;
    }
    queue_.push_front(std::move(request));
    return;
  }

  ++stats_.completed;
  PredResult result;
  result.status = Status::Ok();
  if (request.chunk_dists != nullptr) {
    // Final chunk: deliver the banked distributions of every earlier chunk
    // ahead of this one's — one result, bit-identical to unchunked.
    result.dists = std::move(*request.chunk_dists);
    request.chunk_dists.reset();
  }
  result.dists.insert(result.dists.end(),
                      std::make_move_iterator(dists.begin()),
                      std::make_move_iterator(dists.end()));
  uint64_t pred_tokens = request.chunk_done + take;
  uint64_t context_after = *length + take;
  LipId lip = request.lip;
  request.complete(std::move(result));
  if (prefill_complete_hook_ != nullptr &&
      pred_tokens > options_.decode_classify_tokens) {
    prefill_complete_hook_(lip, context_after);
  }
}

}  // namespace symphony
