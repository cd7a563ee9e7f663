// The batch inference scheduler: the second level of §4.4's scheme.
//
// Aggregates pred system calls from all LIP threads into GPU batches. On
// launch it validates each request (handle rights, strict position
// continuation), restores KV residency (charging PCIe traffic), and sizes the
// work; at batch completion it re-validates, materializes new TokenRecords
// into the KV files, and delivers next-token distributions to the blocked
// threads. Batch timing is delegated to a pluggable BatchPolicy.
//
// Planning cost. Forming a batch costs O(scan horizon), not O(queue): the
// horizon is the deepest queue position the pick order reaches. Under kFifo
// that is the batch size plus any picks dropped by validation or KV restore;
// decode priority scans as deep as its last decode-sized pick, and fair share
// scans to the end of the queue each time the fewest picks any queued LIP has
// rises, once per round over the LIPs. Picks are then removed by shifting
// the survivors of [0, deepest pick] back and popping the front. This relies
// on one invariant: queue order is submit order (a memory-retry requeue
// counts as a submit), except for continuations of a split prefill, which go
// to the front. So arrival order needs no sort, the scanned prefix is the
// oldest work, and queue_.front() is the request oldest_wait measures.
#ifndef SRC_SCHED_INFERENCE_SCHEDULER_H_
#define SRC_SCHED_INFERENCE_SCHEDULER_H_

#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/gpu/device.h"
#include "src/kvfs/kvfs.h"
#include "src/model/model.h"
#include "src/runtime/pred_service.h"
#include "src/sched/batch_policy.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace symphony {

// How queued pred requests are picked into a batch.
enum class QueueDiscipline {
  kFifo,       // Strict arrival order.
  kFairShare,  // Round-robin across LIPs: a LIP flooding the queue cannot
               // starve others (paper §6, multi-tenant fairness).
};

struct InferenceSchedulerOptions {
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  size_t max_batch_requests = 32;
  // Cap on total new tokens per batch so giant prefills don't head-of-line
  // block an entire round.
  uint64_t max_batch_tokens = 16384;
  // EWMA smoothing for the arrival-rate estimate.
  double rate_ewma_alpha = 0.2;
  // Pause after a batch completes before launching the next one, so threads
  // woken by the completed batch can resubmit and join it. Without this the
  // client population splits into two alternating half-sized batches.
  SimDuration formation_delay = Micros(100);
  // Preemption-style handling of device-memory exhaustion: a request whose
  // KV cannot be restored/appended is requeued after a backoff instead of
  // failing, up to this many attempts. Memory freed by completing or
  // offloaded LIPs lets it proceed later. The backoff doubles per attempt
  // (base, 2x, 4x, ...) up to the cap, so a brief pressure spike retries
  // promptly while sustained pressure is probed at the cap rate.
  uint32_t max_memory_retries = 500;
  SimDuration memory_retry_backoff = Millis(20);
  SimDuration memory_retry_backoff_cap = Millis(320);
  // --- Stall-free scheduling ---
  // When > 0, a pred with more new tokens than this executes as
  // position-contiguous chunks of at most this size: only the next chunk
  // joins a batch, and the remainder is re-queued as a continuation carrying
  // the original submit time, LIP identity, and validation context. Chunking
  // is semantically invisible — distributions and KV state are bit-identical
  // to unchunked execution (the model advances token-sequentially either
  // way) — it only bounds how long a single batch can run, so a 3000-token
  // prefill can no longer stall every 1-token decode in its round.
  // 0 disables chunking.
  uint64_t prefill_chunk_tokens = 0;
  // Decode-priority packing: fill each batch with every pending decode-sized
  // request first, then top up with at most ONE prefill chunk, so per-batch
  // time is bounded by the decode load plus the chunk budget. Pair with
  // prefill_chunk_tokens > 0 to actually bound the prefill contribution.
  bool decode_priority = false;
  // A request with at most this many new tokens counts as a decode for
  // decode-priority packing and token-occupancy stats; continuations of a
  // split prefill always count as prefill regardless of their tail size.
  uint64_t decode_classify_tokens = 8;
};

struct InferenceSchedulerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t batches = 0;
  uint64_t memory_requeues = 0;
  // Maximum memory_retries seen on any single request (backoff depth).
  uint32_t max_memory_retry_depth = 0;
  // Requests cancelled by CancelLip (deadline expiry).
  uint64_t cancelled = 0;
  // Context tokens already present in KV files when preds were batched (the
  // file's length at submit). Warm prefixes — forked, restored, or imported
  // from the cluster snapshot store — show up here as compute not re-done.
  // Tokens a chunked prefill wrote itself in earlier chunks are excluded.
  uint64_t prefix_reuse_tokens = 0;
  // --- Per-batch token occupancy (stall-free scheduling observability) ---
  // New tokens batched from decode-sized requests vs prefill-sized ones.
  uint64_t decode_tokens_batched = 0;
  uint64_t prefill_tokens_batched = 0;
  // Chunk launches belonging to a split prefill (each batch entry of a
  // split counts once, including the final chunk).
  uint64_t prefill_chunks = 0;
  // Distinct prefills that were split into chunks at least once.
  uint64_t prefills_chunked = 0;
};

class InferenceScheduler : public PredService {
 public:
  InferenceScheduler(Simulator* sim, Kvfs* kvfs, const Model* model,
                     Device* device, std::unique_ptr<BatchPolicy> policy,
                     InferenceSchedulerOptions options = {});

  void Submit(PredRequest request) override;

  // Deadline expiry: completes every queued and retry-pending request of
  // `lip` with kDeadlineExceeded. A later Submit from the same lip (journal
  // replay re-execution) clears the cancellation.
  void CancelLip(LipId lip) override;

  const InferenceSchedulerStats& stats() const { return stats_; }
  const SampleSeries& queue_waits_ms() const { return queue_waits_ms_; }
  double arrival_rate_per_sec() const { return rate_per_sec_; }
  size_t queue_depth() const { return queue_.size(); }

  // Fired right after a prefill-sized pred (more than decode_classify_tokens
  // new tokens, counting every chunk of a split) completes successfully, with
  // the LIP and the KV file length after the append. Prefill-role cluster
  // replicas use it to hand freshly prefilled LIPs to a decode replica.
  void set_prefill_complete_hook(std::function<void(LipId, uint64_t)> hook) {
    prefill_complete_hook_ = std::move(hook);
  }

  // Fired with each queue-wait sample (ms) as it joins queue_waits_ms(). The
  // cluster feeds one series from every incarnation of every slot with it,
  // so its percentiles never re-gather the per-replica samples.
  void set_queue_wait_hook(std::function<void(double)> hook) {
    queue_wait_hook_ = std::move(hook);
  }

 private:
  static constexpr size_t kNoPick = static_cast<size_t>(-1);
  static constexpr SimTime kNoRecheck = -1;

  // Walks the queue in pick order for one batch (see the .cc).
  class BatchPicker;

  void MaybeLaunch();
  void LaunchBatch();
  // Schedules MaybeLaunch at `when`; superseded if the generation moves on.
  void ArmRecheck(SimTime when);
  bool IsDecode(const PredRequest& request) const;
  // New tokens this request would contribute to the next batch (its chunk).
  uint64_t ChunkTake(const PredRequest& request) const;
  // Samples the queue wait for the original request (not for continuations
  // of an already-launched chunked prefill).
  void RecordQueueWait(const PredRequest& request);
  // Materializes the first `take` tokens of the request; when take is short
  // of the full request (a prefill chunk), re-queues the remainder as a
  // continuation instead of completing.
  void CompleteRequest(PredRequest& request, uint64_t take);
  // Requeues a memory-starved request after a backoff; returns false (and
  // fails the request) once the retry budget is exhausted.
  bool RequeueForMemory(PredRequest& request, const Status& why);
  // Validates rights + continuation; returns the context length on success.
  StatusOr<uint64_t> Validate(const PredRequest& request);

  Simulator* sim_;
  Kvfs* kvfs_;
  const Model* model_;
  Device* device_;
  std::unique_ptr<BatchPolicy> policy_;
  InferenceSchedulerOptions options_;

  std::deque<PredRequest> queue_;
  // LIPs cancelled by CancelLip whose in-flight memory-retry events must
  // complete with an error instead of requeueing.
  std::unordered_set<LipId> cancelled_lips_;
  // The live MaybeLaunch recheck: its due time (kNoRecheck when none) and
  // generation. Superseding a recheck bumps the generation; the stale event
  // still fires at its time but does nothing.
  SimTime recheck_at_ = kNoRecheck;
  uint64_t recheck_generation_ = 0;
  SimTime next_launch_time_ = 0;
  SimTime last_submit_ = 0;
  double rate_per_sec_ = 0.0;
  InferenceSchedulerStats stats_;
  SampleSeries queue_waits_ms_;
  std::function<void(LipId, uint64_t)> prefill_complete_hook_;
  std::function<void(double)> queue_wait_hook_;
};

}  // namespace symphony

#endif  // SRC_SCHED_INFERENCE_SCHEDULER_H_
