#include "src/baseline/prompt_server.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace symphony {

namespace {

// Most prompt tokens a sequence prefills in one step.
constexpr uint64_t kPrefillChunk = 2048;

KvfsOptions BaselineKvfsOptions(const BaselineOptions& options, Simulator* sim,
                                const CostModel& cost) {
  KvfsOptions kv;
  uint64_t page_bytes =
      static_cast<uint64_t>(kPageTokens) * options.model.KvBytesPerToken();
  kv.gpu_page_budget = cost.DeviceKvBudgetBytes() / page_bytes;
  // Prompt servers keep all KV on-device; under pressure cached blocks are
  // dropped (vLLM semantics), never offloaded.
  kv.host_page_budget = 0;
  kv.eviction = EvictionMode::kDropLru;
  kv.clock = [sim] { return sim->now(); };
  return kv;
}

}  // namespace

PromptServer::PromptServer(Simulator* sim, BaselineOptions options)
    : sim_(sim),
      options_(std::move(options)),
      model_(options_.model),
      cost_(options_.model, options_.hardware),
      kvfs_(std::make_unique<Kvfs>(BaselineKvfsOptions(options_, sim, cost_))),
      device_(std::make_unique<Device>(sim, cost_)) {
  kvfs_->set_bytes_per_page(static_cast<uint64_t>(kPageTokens) *
                            options_.model.KvBytesPerToken());
}

std::vector<uint64_t> PromptServer::BlockChainHashes(
    const std::vector<TokenId>& prompt) {
  // At least the final prompt token must be computed fresh (its logits are
  // never cached), so cap the cacheable prefix at prompt.size() - 1 tokens.
  size_t cacheable = prompt.empty() ? 0 : prompt.size() - 1;
  size_t blocks = cacheable / kPageTokens;
  std::vector<uint64_t> hashes;
  hashes.reserve(blocks);
  uint64_t h = 0xa9c11u;
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t i = b * kPageTokens; i < (b + 1) * kPageTokens; ++i) {
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(prompt[i])));
    }
    hashes.push_back(h);
  }
  return hashes;
}

bool PromptServer::TryCacheLookup(Sequence& seq) {
  std::vector<uint64_t> hashes = BlockChainHashes(seq.request.prompt);
  for (size_t k = hashes.size(); k > 0; --k) {
    auto it = prefix_index_.find(hashes[k - 1]);
    if (it == prefix_index_.end()) {
      continue;
    }
    if (!kvfs_->Exists(it->second)) {
      prefix_index_.erase(it);  // Evicted since registration.
      continue;
    }
    OpenOptions open;
    open.requester = kAdminLip;
    StatusOr<KvHandle> cached = kvfs_->Open(it->second, open);
    if (!cached.ok()) {
      continue;
    }
    StatusOr<KvHandle> fork = kvfs_->Fork(*cached, kAdminLip);
    (void)kvfs_->Close(*cached);
    if (!fork.ok()) {
      continue;
    }
    uint64_t prefix_tokens = static_cast<uint64_t>(k) * kPageTokens;
    if (!kvfs_->Truncate(*fork, prefix_tokens).ok()) {
      (void)kvfs_->Close(*fork);
      continue;
    }
    seq.kv = *fork;
    seq.prefill_done = prefix_tokens;
    seq.matched_blocks = k;
    return true;
  }
  return false;
}

void PromptServer::Submit(CompletionRequest request) {
  ++stats_.submitted;
  if (waiting_.size() >= options_.max_queue) {
    ++stats_.failed;
    if (request.done) {
      CompletionResponse response;
      response.status = UnavailableError("queue full");
      response.id = request.id;
      response.arrival = sim_->now();
      response.finish_time = sim_->now();
      request.done(response);
    }
    return;
  }
  waiting_.push_back(std::move(request));
  arrivals_.push_back(sim_->now());
  Pump();
}

void PromptServer::AdmitWaiting() {
  while (!waiting_.empty() && active_.size() < options_.max_active) {
    CompletionRequest request = std::move(waiting_.front());
    waiting_.pop_front();
    SimTime arrival = arrivals_.front();
    arrivals_.pop_front();

    auto seq = std::make_unique<Sequence>();
    seq->request = std::move(request);
    seq->arrival = arrival;

    bool hit = false;
    if (options_.prefix_cache && seq->request.prompt.size() >= 2) {
      hit = TryCacheLookup(*seq);
      if (hit) {
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_misses;
      }
    }
    if (!hit) {
      StatusOr<KvHandle> fresh = kvfs_->CreateAnonymous(kAdminLip);
      if (!fresh.ok()) {
        FinishSequence(*seq, fresh.status());
        continue;
      }
      seq->kv = *fresh;
    }
    seq->cache_hit = hit;
    active_.push_back(std::move(seq));
  }
}

void PromptServer::Pump() {
  if (device_->busy()) {
    return;
  }
  AdmitWaiting();
  if (active_.empty()) {
    return;
  }
  LaunchStep();
}

void PromptServer::LaunchStep() {
  std::vector<WorkItem> items;
  std::vector<Sequence*> step_seqs;
  std::vector<uint64_t> counts;
  items.reserve(active_.size());

  for (std::unique_ptr<Sequence>& seq : active_) {
    uint64_t context = 0;
    StatusOr<uint64_t> length = kvfs_->Length(seq->kv);
    if (length.ok()) {
      context = *length;
    }
    uint64_t n;
    if (seq->Prefilling()) {
      n = std::min<uint64_t>(kPrefillChunk,
                             seq->request.prompt.size() - seq->prefill_done);
    } else {
      n = 1;
    }
    items.push_back(WorkItem{n, context});
    step_seqs.push_back(seq.get());
    counts.push_back(n);
  }

  uint64_t transfer_bytes = kvfs_->TakePendingTransferBytes();
  ++stats_.steps;
  device_->Execute(items, transfer_bytes,
                   [this, step_seqs = std::move(step_seqs),
                    counts = std::move(counts)]() mutable {
                     CompleteStepForSeqs(step_seqs, counts);
                     Pump();
                   });
}

void PromptServer::CompleteStepForSeqs(const std::vector<Sequence*>& step_seqs,
                                       const std::vector<uint64_t>& counts) {
  std::vector<Sequence*> finished;
  std::vector<Distribution> dists;
  for (size_t i = 0; i < step_seqs.size(); ++i) {
    Sequence* seq = step_seqs[i];
    uint64_t n = counts[i];

    // Tokens fed this step.
    std::vector<TokenId> fed;
    fed.reserve(n);
    if (seq->Prefilling()) {
      for (uint64_t j = 0; j < n; ++j) {
        fed.push_back(seq->request.prompt[seq->prefill_done + j]);
      }
    } else {
      fed.push_back(seq->next_decode_token);
    }

    // Append the fed tokens at the file's next positions; KVFS advances each
    // token once from the file's tail state and appends its distribution.
    dists.clear();
    Status append = kvfs_->AppendTokens(seq->kv, fed, model_, dists);
    if (!append.ok()) {
      FinishSequence(*seq, append);
      finished.push_back(seq);
      continue;
    }

    bool was_prefilling = seq->Prefilling();
    if (was_prefilling) {
      seq->prefill_done += n;
      if (seq->Prefilling()) {
        continue;  // More prompt chunks to go.
      }
      MaybeInsertCache(*seq);
    }

    // Sample the next token greedily from the distribution after the last
    // fed token.
    TokenId sampled = dists.back().Argmax();
    if (seq->first_token_time == 0) {
      seq->first_token_time = sim_->now();
    }
    if (sampled == kEosToken && seq->request.stop_at_eos) {
      FinishSequence(*seq, Status::Ok());
      finished.push_back(seq);
      continue;
    }
    seq->generated.push_back(sampled);
    if (seq->generated.size() >= seq->request.max_new_tokens) {
      FinishSequence(*seq, Status::Ok());
      finished.push_back(seq);
      continue;
    }
    seq->next_decode_token = sampled;
  }

  // Remove finished sequences from the active set.
  if (!finished.empty()) {
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&](const std::unique_ptr<Sequence>& seq) {
                                   return std::find(finished.begin(), finished.end(),
                                                    seq.get()) != finished.end();
                                 }),
                  active_.end());
  }
}

void PromptServer::MaybeInsertCache(Sequence& seq) {
  if (!options_.prefix_cache || seq.cache_inserted ||
      seq.request.prompt.size() < 2) {
    return;
  }
  seq.cache_inserted = true;
  std::vector<uint64_t> hashes = BlockChainHashes(seq.request.prompt);
  if (hashes.empty() || seq.matched_blocks >= hashes.size()) {
    return;  // Nothing longer than what the cache already covered.
  }
  StatusOr<KvHandle> fork = kvfs_->Fork(seq.kv, kAdminLip);
  if (!fork.ok()) {
    return;
  }
  uint64_t prefix_tokens = hashes.size() * kPageTokens;
  std::string path = "/apc/" + std::to_string(next_cache_id_++);
  Status st = kvfs_->Truncate(*fork, prefix_tokens);
  if (st.ok()) {
    st = kvfs_->Link(*fork, path);
  }
  (void)kvfs_->Close(*fork);  // Closed cache entries are LRU-evictable.
  if (!st.ok()) {
    SYMPHONY_LOG(kDebug) << options_.name
                         << " cache insert failed: " << st.ToString();
    return;
  }
  // Register every block-prefix of the entry so future prompts can match
  // partial prefixes (e.g. shared document, different query).
  for (size_t k = 1; k <= hashes.size(); ++k) {
    prefix_index_[hashes[k - 1]] = path;
  }
}

void PromptServer::FinishSequence(Sequence& seq, Status status) {
  if (seq.kv.valid()) {
    (void)kvfs_->Close(seq.kv);
    seq.kv = KvHandle{};
  }
  if (status.ok()) {
    ++stats_.completed;
  } else {
    ++stats_.failed;
  }
  if (seq.request.done) {
    CompletionResponse response;
    response.status = std::move(status);
    response.id = seq.request.id;
    response.tokens = seq.generated;
    response.arrival = seq.arrival;
    response.first_token_time = seq.first_token_time;
    response.finish_time = sim_->now();
    response.cache_hit = seq.cache_hit;
    seq.request.done(response);
  }
}

}  // namespace symphony
