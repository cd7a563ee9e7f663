#include "src/workload/rag.h"

#include <algorithm>
#include <memory>

#include "src/common/hash.h"
#include "src/runtime/lip_context.h"
#include "src/sim/distributions.h"

namespace symphony {

namespace {

// Uniform word token derived from a hash chain.
TokenId WordTokenFromHash(uint64_t h, uint32_t vocab_size) {
  uint32_t words = vocab_size - static_cast<uint32_t>(kFirstWordToken);
  return kFirstWordToken + static_cast<TokenId>(Mix64(h) % words);
}

struct RequestRecord {
  SimTime arrival = 0;
  SimTime finish = 0;
  uint64_t generated = 0;
  bool cache_hit = false;
  bool ok = false;
};

RagRunResult Summarize(std::string system, const RagConfig& config,
                       const std::vector<RequestRecord>& records,
                       double gpu_utilization, SimTime end_time) {
  RagRunResult result;
  result.system = std::move(system);
  result.pareto_index = config.pareto_index;
  result.request_rate = config.request_rate;
  SampleSeries per_token_ms;
  SampleSeries e2e_ms;
  for (const RequestRecord& r : records) {
    if (!r.ok) {
      ++result.failed;
      continue;
    }
    ++result.completed;
    result.generated_tokens += r.generated;
    result.cache_hits += r.cache_hit ? 1 : 0;
    if (r.generated > 0) {
      per_token_ms.Add(ToMillis(r.finish - r.arrival) /
                       static_cast<double>(r.generated));
    }
    e2e_ms.Add(ToMillis(r.finish - r.arrival));
  }
  result.duration_s = ToSeconds(end_time);
  if (result.duration_s > 0) {
    result.throughput_tok_s =
        static_cast<double>(result.generated_tokens) / result.duration_s;
  }
  result.mean_latency_per_token_ms = per_token_ms.mean();
  result.p99_latency_per_token_ms = per_token_ms.Percentile(0.99);
  result.mean_e2e_ms = e2e_ms.mean();
  result.gpu_utilization = gpu_utilization;
  return result;
}

}  // namespace

RagCorpus::RagCorpus(const RagConfig& config, uint32_t vocab_size)
    : seed_(config.seed),
      query_tokens_(config.query_tokens),
      vocab_size_(vocab_size) {
  instruction_.reserve(kInstructionTokens);
  uint64_t ih = Mix64(seed_ ^ 0x1257ac710ULL);
  for (uint32_t i = 0; i < kInstructionTokens; ++i) {
    ih = Mix64(ih + i + 1);
    instruction_.push_back(WordTokenFromHash(ih, vocab_size_));
  }
  docs_.resize(config.num_docs);
  for (size_t topic = 0; topic < config.num_docs; ++topic) {
    std::vector<TokenId>& doc = docs_[topic];
    doc.reserve(config.doc_tokens);
    uint64_t h = Mix64(seed_ ^ (0xd0c0000ULL + topic));
    for (uint32_t i = 0; i < config.doc_tokens; ++i) {
      h = Mix64(h + i + 1);
      doc.push_back(WordTokenFromHash(h, vocab_size_));
    }
  }
}

std::vector<TokenId> RagCorpus::MakeQuery(size_t topic, uint64_t request_id) const {
  std::vector<TokenId> query;
  query.reserve(query_tokens_);
  // Topic marker token keeps queries for the same topic related.
  query.push_back(WordTokenFromHash(seed_ ^ (0x70b1cULL + topic), vocab_size_));
  uint64_t h = Mix64(seed_ ^ Mix64(0x9e3779b9ULL + request_id));
  for (uint32_t i = 1; i < query_tokens_; ++i) {
    h = Mix64(h + i);
    query.push_back(WordTokenFromHash(h, vocab_size_));
  }
  return query;
}

std::vector<TokenId> RagCorpus::MakePrompt(size_t topic, uint64_t request_id,
                                           PromptLayout layout) const {
  std::vector<TokenId> query = MakeQuery(topic, request_id);
  std::vector<TokenId> prompt;
  if (layout == PromptLayout::kDocFirst) {
    prompt = docs_[topic];
    prompt.insert(prompt.end(), query.begin(), query.end());
    return prompt;
  }
  prompt = instruction_;
  prompt.insert(prompt.end(), query.begin(), query.end());
  prompt.insert(prompt.end(), docs_[topic].begin(), docs_[topic].end());
  return prompt;
}

RagRunResult RunRagOnBaseline(const RagConfig& config, BaselineOptions baseline) {
  Simulator sim;
  PromptServer server(&sim, baseline);
  RagCorpus corpus(config, baseline.model.vocab_size);
  ParetoCatalog popularity(config.num_docs, config.pareto_index, config.seed + 1);
  PoissonProcess arrivals(config.request_rate, config.seed + 2);

  std::vector<RequestRecord> records(config.num_requests);

  SimTime when = 0;
  for (uint64_t i = 0; i < config.num_requests; ++i) {
    when += arrivals.NextGap();
    size_t topic = popularity.Next();
    sim.ScheduleAt(when, [&, i, topic] {
      records[i].arrival = sim.now();
      CompletionRequest request;
      request.id = i;
      request.prompt = corpus.MakePrompt(topic, i, config.baseline_layout);
      request.max_new_tokens = config.answer_tokens;
      request.stop_at_eos = false;  // Fixed-length answers for comparability.
      request.done = [&records, i](const CompletionResponse& response) {
        records[i].finish = response.finish_time;
        records[i].generated = response.tokens.size();
        records[i].cache_hit = response.cache_hit;
        records[i].ok = response.status.ok();
      };
      server.Submit(std::move(request));
    });
  }
  sim.Run();
  return Summarize(baseline.name, config, records, server.device().Utilization(),
                   sim.now());
}

namespace {

// The paper's §5 LIP: application-managed prompt caching. The application
// knows its topic popularity ranking and retains KV for the top-K topics as
// named shared files; other topics are computed and discarded.
LipProgram MakeRagLip(const RagCorpus* corpus, size_t topic, uint64_t request_id,
                      const RagConfig* config, RequestRecord* record) {
  return [=](LipContext& ctx) -> Task {
    std::string cache_path = "/cache/doc_" + std::to_string(topic);
    KvHandle kv{};
    bool hit = false;

    if (ctx.kv_exists(cache_path)) {
      StatusOr<KvHandle> shared = ctx.kv_open(cache_path);
      if (shared.ok()) {
        StatusOr<KvHandle> fork = ctx.kv_fork(*shared);
        (void)ctx.kv_close(*shared);
        if (fork.ok()) {
          kv = *fork;
          hit = true;
        }
      }
    }
    if (!hit) {
      StatusOr<KvHandle> fresh = ctx.kv_tmp();
      if (!fresh.ok()) {
        co_return;
      }
      kv = *fresh;
      StatusOr<std::vector<Distribution>> prefill =
          co_await ctx.pred(kv, corpus->doc(topic));
      if (!prefill.ok()) {
        co_return;
      }
      // Application policy: retain only the K most popular topics, and pin
      // the very hottest on-GPU so they are never offloaded.
      if (topic < config->cache_top_k && !ctx.kv_exists(cache_path)) {
        StatusOr<KvHandle> cache_copy = ctx.kv_fork(kv);
        if (cache_copy.ok()) {
          if (ctx.kv_link(*cache_copy, cache_path).ok()) {
            (void)ctx.kv_chmod(*cache_copy, kModeShared);
            if (topic < config->pin_top_k) {
              (void)ctx.kv_pin(*cache_copy);
            }
          }
          (void)ctx.kv_close(*cache_copy);
        }
      }
    }
    record->cache_hit = hit;

    std::vector<TokenId> query = corpus->MakeQuery(topic, request_id);
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, query);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Argmax();
    uint64_t generated = 0;
    while (generated < config->answer_tokens) {
      ++generated;  // `next` is the freshly generated token.
      if (generated >= config->answer_tokens) {
        break;
      }
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
      if (!d.ok()) {
        co_return;
      }
      next = d->back().Argmax();
    }
    record->generated = generated;
    record->ok = true;
    co_return;
  };
}

// RunRagOnSymphony and RunRagOnCluster admit at most config.max_active
// request LIPs per server and queue the rest FIFO without bound (latency
// includes the queue wait), mirroring the baselines' continuous-batching
// slot limit.
AdmissionOptions RagAdmission(const RagConfig& config) {
  AdmissionOptions admission;
  admission.enabled = true;
  admission.max_live_lips = static_cast<uint32_t>(config.max_active);
  admission.max_queue = SIZE_MAX;
  return admission;
}

// Request `id`'s LIP; its exit stamps the request's finish time.
SymphonyServer::LaunchSpec RagLaunchSpec(const RagCorpus* corpus, size_t topic,
                                         uint64_t id, const RagConfig* config,
                                         RequestRecord* record,
                                         const Simulator* sim) {
  SymphonyServer::LaunchSpec spec;
  spec.name = "rag-" + std::to_string(id);
  spec.program = MakeRagLip(corpus, topic, id, config, record);
  spec.on_exit = [record, sim](LipId) { record->finish = sim->now(); };
  return spec;
}

}  // namespace

RagRunResult RunRagOnSymphony(const RagConfig& config, ServerOptions server_options) {
  Simulator sim;
  server_options.admission = RagAdmission(config);
  SymphonyServer server(&sim, server_options);
  RagCorpus corpus(config, server_options.model.vocab_size);
  ParetoCatalog popularity(config.num_docs, config.pareto_index, config.seed + 1);
  PoissonProcess arrivals(config.request_rate, config.seed + 2);

  std::vector<RequestRecord> records(config.num_requests);
  SimTime when = 0;
  for (uint64_t i = 0; i < config.num_requests; ++i) {
    when += arrivals.NextGap();
    size_t topic = popularity.Next();
    sim.ScheduleAt(when, [&, i, topic] {
      records[i].arrival = sim.now();
      (void)server.Submit(
          RagLaunchSpec(&corpus, topic, i, &config, &records[i], &sim));
    });
  }
  sim.Run();
  RagRunResult result = Summarize("symphony", config, records,
                                  server.device().Utilization(), sim.now());
  result.mean_batch_size = server.device().batch_sizes().mean();
  result.batches = server.device().stats().batches;
  result.offloaded_pages = server.kvfs().stats().offloaded_pages;
  result.restored_pages = server.kvfs().stats().restored_pages;
  return result;
}

RagRunResult RunRagOnCluster(const RagConfig& config,
                             ClusterOptions cluster_options) {
  Simulator sim;
  cluster_options.server.admission = RagAdmission(config);
  SymphonyCluster cluster(&sim, cluster_options);
  RagCorpus corpus(config, cluster_options.server.model.vocab_size);
  ParetoCatalog popularity(config.num_docs, config.pareto_index, config.seed + 1);
  PoissonProcess arrivals(config.request_rate, config.seed + 2);

  std::vector<RequestRecord> records(config.num_requests);
  SimTime when = 0;
  for (uint64_t i = 0; i < config.num_requests; ++i) {
    when += arrivals.NextGap();
    size_t topic = popularity.Next();
    sim.ScheduleAt(when, [&, i, topic] {
      records[i].arrival = sim.now();
      (void)cluster.Submit(
          RagLaunchSpec(&corpus, topic, i, &config, &records[i], &sim),
          "doc_" + std::to_string(topic));
    });
  }
  sim.Run();

  size_t replicas = cluster.replica_count();
  double busy = 0.0;
  for (size_t r = 0; r < replicas; ++r) {
    busy += cluster.replica(r).device().Utilization();
  }
  RagRunResult result = Summarize(
      "cluster-x" + std::to_string(replicas), config, records,
      busy / static_cast<double>(replicas), sim.now());
  return result;
}

}  // namespace symphony
