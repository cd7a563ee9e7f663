// The paper's §5 evaluation workload: retrieval-augmented generation.
//
// "The application inputs a topic, fetches the relevant document, and
// generates an answer. There are 100 documents, each containing 3,000
// tokens." Topic popularity follows a Pareto-index-controlled distribution;
// requests arrive as a Poisson process.
//
// Two drivers run the identical workload:
//   * RunRagOnBaseline  — text-completion requests against a PromptServer
//     (vLLM-like or TGI-like), prompt = document + query.
//   * RunRagOnSymphony  — one LIP per request implementing the paper's
//     application-managed caching policy: keep the KV files of the top-K
//     most popular topics as named, shared KVFS files and fork them per
//     request; recompute (and drop) everything else.
#ifndef SRC_WORKLOAD_RAG_H_
#define SRC_WORKLOAD_RAG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/baseline/prompt_server.h"
#include "src/serve/cluster.h"
#include "src/serve/server.h"
#include "src/sim/stats.h"

namespace symphony {

// How a *prompt-serving* client lays out its completion request. Prefix
// caching can only reuse KV for a shared prefix:
//   kQueryFirst — the natural chat layout [instruction, query, document]:
//                 the per-request query defeats prefix reuse of the document
//                 (the situation PromptCache-style modular reuse targets).
//   kDocFirst   — [document, query]: maximally favorable to prefix caching
//                 (used by the ablation to show when vLLM-like catches up).
// Symphony LIPs always control their own context layout and use doc-first.
enum class PromptLayout {
  kQueryFirst,
  kDocFirst,
};

struct RagConfig {
  size_t num_docs = 100;
  uint32_t doc_tokens = 3000;
  uint32_t instruction_tokens = 16;  // Shared preamble (chat layout only).
  uint32_t query_tokens = 24;
  uint32_t answer_tokens = 32;
  PromptLayout baseline_layout = PromptLayout::kQueryFirst;
  double pareto_index = 1.0;    // Small = few topics dominate (§5).
  double request_rate = 2.0;    // Poisson arrivals per second.
  size_t num_requests = 200;
  size_t cache_top_k = 20;      // Symphony LIP policy: topics to retain.
  // Symphony LIP policy refinement (off by default; exercised by the
  // bench_kv_policy ablation): pin the KV of the hottest topics on-GPU so
  // they are never evicted/offloaded. Wasteful at flat popularity.
  size_t pin_top_k = 0;
  // Admission limit for concurrent request LIPs. Defaults to the baselines'
  // continuous-batching slot count; may be set higher for Symphony because
  // forked KV files share document pages, so concurrent requests on popular
  // topics have a much smaller private footprint than baseline sequences.
  size_t max_active = 16;
  uint64_t seed = 42;
};

// Deterministic synthetic corpus: document/query token streams are pure
// functions of (seed, topic, request id).
class RagCorpus {
 public:
  RagCorpus(const RagConfig& config, uint32_t vocab_size);

  size_t num_docs() const { return docs_.size(); }
  const std::vector<TokenId>& doc(size_t topic) const { return docs_[topic]; }

  // Per-request query tokens (start with a topic marker, then noise).
  std::vector<TokenId> MakeQuery(size_t topic, uint64_t request_id) const;

  // Baseline prompt in the given layout.
  std::vector<TokenId> MakePrompt(size_t topic, uint64_t request_id,
                                  PromptLayout layout) const;

 private:
  uint64_t seed_;
  uint32_t query_tokens_;
  uint32_t vocab_size_;
  std::vector<TokenId> instruction_;  // Shared preamble of every request.
  std::vector<std::vector<TokenId>> docs_;
};

struct RagRunResult {
  std::string system;
  double pareto_index = 0.0;
  double request_rate = 0.0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cache_hits = 0;
  uint64_t generated_tokens = 0;
  double duration_s = 0.0;
  double throughput_tok_s = 0.0;
  double mean_latency_per_token_ms = 0.0;
  double p99_latency_per_token_ms = 0.0;
  double mean_e2e_ms = 0.0;
  double gpu_utilization = 0.0;
  // Diagnostics (Symphony runs; zero for baselines).
  double mean_batch_size = 0.0;
  uint64_t batches = 0;
  uint64_t offloaded_pages = 0;
  uint64_t restored_pages = 0;
};

// Runs the workload to completion on a prompt server (vLLM/TGI-like).
RagRunResult RunRagOnBaseline(const RagConfig& config, BaselineOptions baseline);

// Runs the workload to completion on Symphony with the LIP caching policy.
// `server_options` lets callers pick batch policy etc.; model/hardware should
// match the baseline's for a fair comparison.
RagRunResult RunRagOnSymphony(const RagConfig& config, ServerOptions server_options);

// Runs the workload on a multi-replica cluster; requests route by the
// cluster's policy with the topic as the affinity key. The per-replica
// admission limit is config.max_active (so total concurrency scales with the
// replica count).
RagRunResult RunRagOnCluster(const RagConfig& config, ClusterOptions cluster_options);

}  // namespace symphony

#endif  // SRC_WORKLOAD_RAG_H_
