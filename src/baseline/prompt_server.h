// Baseline prompt-serving systems (paper §5 comparators).
//
// PromptServer implements the classic prompt-in/text-out architecture with
// continuous batching on the same simulated device and cost model Symphony
// uses, so performance differences come only from policy:
//
//   * VllmLike():  continuous batching + automatic prefix caching — finished
//     prompts' KV blocks are retained (LRU-dropped under memory pressure) and
//     reused when an identical prompt prefix arrives. The policy is
//     system-wide and application-unaware (§2.1).
//   * TgiLike():   continuous batching, no KV reuse across requests.
//
// Requests are text completions: prompt tokens in, up to max_new_tokens out,
// greedy sampling (matching the benchmark LIPs).
#ifndef SRC_BASELINE_PROMPT_SERVER_H_
#define SRC_BASELINE_PROMPT_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/gpu/device.h"
#include "src/kvfs/kvfs.h"
#include "src/model/cost_model.h"
#include "src/model/model.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace symphony {

struct CompletionRequest {
  uint64_t id = 0;
  std::vector<TokenId> prompt;
  uint32_t max_new_tokens = 128;
  bool stop_at_eos = true;
  std::function<void(const struct CompletionResponse&)> done;
};

struct CompletionResponse {
  Status status;
  uint64_t id = 0;
  std::vector<TokenId> tokens;
  SimTime arrival = 0;
  SimTime first_token_time = 0;
  SimTime finish_time = 0;
  bool cache_hit = false;

  SimDuration e2e_latency() const { return finish_time - arrival; }
};

struct BaselineOptions {
  std::string name = "baseline";
  ModelConfig model = ModelConfig::Llama13B();
  HardwareConfig hardware = HardwareConfig::A100();
  size_t max_active = 16;        // Continuous-batching slots.
  bool prefix_cache = false;     // vLLM-style automatic prefix caching.
  size_t max_queue = 100000;
};

struct BaselineStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t steps = 0;
};

class PromptServer {
 public:
  PromptServer(Simulator* sim, BaselineOptions options);

  PromptServer(const PromptServer&) = delete;
  PromptServer& operator=(const PromptServer&) = delete;

  static BaselineOptions VllmLike() {
    BaselineOptions o;
    o.name = "vllm-like";
    o.prefix_cache = true;
    return o;
  }
  static BaselineOptions TgiLike() {
    BaselineOptions o;
    o.name = "tgi-like";
    o.prefix_cache = false;
    return o;
  }

  void Submit(CompletionRequest request);

  const BaselineStats& stats() const { return stats_; }
  const Device& device() const { return *device_; }
  const Kvfs& kvfs() const { return *kvfs_; }
  size_t queue_depth() const { return waiting_.size(); }
  size_t active() const { return active_.size(); }
  const std::string& name() const { return options_.name; }

 private:
  struct Sequence {
    CompletionRequest request;
    SimTime arrival = 0;
    KvHandle kv;
    size_t prefill_done = 0;  // Prompt tokens already in the KV file.
    bool cache_hit = false;
    bool cache_inserted = false;
    size_t matched_blocks = 0;  // Cached prefix blocks reused at admission.
    std::vector<TokenId> generated;
    SimTime first_token_time = 0;
    TokenId next_decode_token = kUnkToken;  // Valid once prefill finished.
    bool Prefilling() const { return prefill_done < request.prompt.size(); }
  };

  void Pump();        // Admit + launch the next step if the device is idle.
  void AdmitWaiting();
  void LaunchStep();
  void CompleteStepForSeqs(const std::vector<Sequence*>& step_seqs,
                           const std::vector<uint64_t>& counts);
  void FinishSequence(Sequence& seq, Status status);
  void MaybeInsertCache(Sequence& seq);

  // Block-level automatic prefix caching (vLLM-style): prompts are hashed in
  // kPageTokens-sized block chains; admission reuses the longest cached
  // block-prefix. Returns per-prefix chain hashes for the prompt's complete
  // blocks (capped so at least one prompt token is always computed fresh).
  static std::vector<uint64_t> BlockChainHashes(const std::vector<TokenId>& prompt);
  // Tries to reuse a cached prefix; fills kv/prefill_done/matched_blocks.
  bool TryCacheLookup(Sequence& seq);

  Simulator* sim_;
  BaselineOptions options_;
  Model model_;
  CostModel cost_;
  std::unique_ptr<Kvfs> kvfs_;
  std::unique_ptr<Device> device_;
  std::deque<CompletionRequest> waiting_;
  std::deque<SimTime> arrivals_;  // Parallel to waiting_.
  std::vector<std::unique_ptr<Sequence>> active_;
  // Chain-hash of the first k blocks -> path of a cached KV file covering at
  // least those blocks. Entries go stale when eviction drops the file; they
  // are pruned lazily on lookup.
  std::unordered_map<uint64_t, std::string> prefix_index_;
  uint64_t next_cache_id_ = 0;
  BaselineStats stats_;
};

}  // namespace symphony

#endif  // SRC_BASELINE_PROMPT_SERVER_H_
