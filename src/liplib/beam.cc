#include "src/liplib/beam.h"

#include <algorithm>
#include <memory>
#include <optional>

namespace symphony {

namespace {

// Candidates considered per beam per step (<= Distribution::kNumCandidates).
constexpr int kExpandPerBeam = 4;

struct Beam {
  KvHandle kv;
  // Distribution after the beam's last token; optional only so Beam is
  // default-constructible for container use.
  std::optional<Distribution> dist;
  double sum_logprob = 0.0;
  std::vector<TokenId> tokens;
};

struct Expansion {
  size_t parent;
  TokenId token;
  double sum_logprob;  // Parent score + this token's logprob.
};

}  // namespace

ValueTask<BeamResult> BeamSearch(LipContext& ctx, KvHandle prompt_kv,
                                 Distribution seed_dist, BeamOptions options) {
  BeamResult failure;
  if (options.width < 1) {
    failure.status = InvalidArgumentError("beam width must be >= 1");
    co_return failure;
  }

  std::vector<Beam> beams;
  {
    StatusOr<KvHandle> root = ctx.kv_fork(prompt_kv);
    if (!root.ok()) {
      failure.status = root.status();
      co_return failure;
    }
    beams.push_back(Beam{*root, seed_dist, 0.0, {}});
  }
  std::vector<BeamResult> finished;

  auto close_all = [&](std::vector<Beam>& set) {
    for (Beam& beam : set) {
      (void)ctx.kv_close(beam.kv);
    }
    set.clear();
  };

  for (int step = 0; step < options.max_steps && !beams.empty(); ++step) {
    // Gather candidate expansions across all beams.
    std::vector<Expansion> expansions;
    for (size_t b = 0; b < beams.size(); ++b) {
      std::vector<TokenId> cands = beams[b].dist->TopCandidates();
      int take = std::min<int>(kExpandPerBeam, static_cast<int>(cands.size()));
      for (int j = 0; j < take; ++j) {
        expansions.push_back(Expansion{
            b, cands[static_cast<size_t>(j)],
            beams[b].sum_logprob + beams[b].dist->LogProb(cands[static_cast<size_t>(j)])});
      }
    }
    std::stable_sort(expansions.begin(), expansions.end(),
                     [](const Expansion& a, const Expansion& b) {
                       return a.sum_logprob > b.sum_logprob;
                     });
    if (expansions.size() > static_cast<size_t>(options.width)) {
      expansions.resize(static_cast<size_t>(options.width));
    }

    // EOS expansions finish their sequence; the rest fork + extend, with the
    // preds issued from parallel threads so they share one GPU batch.
    auto next = std::make_shared<std::vector<Beam>>();
    std::vector<ThreadId> workers;
    bool fork_failed = false;
    for (const Expansion& expansion : expansions) {
      const Beam& parent = beams[expansion.parent];
      if (expansion.token == kEosToken) {
        BeamResult done;
        done.status = Status::Ok();
        done.tokens = parent.tokens;
        done.sum_logprob = expansion.sum_logprob;
        done.hit_eos = true;
        finished.push_back(std::move(done));
        continue;
      }
      StatusOr<KvHandle> fork = ctx.kv_fork(parent.kv);
      if (!fork.ok()) {
        fork_failed = true;
        break;
      }
      Beam child;
      child.kv = *fork;
      child.sum_logprob = expansion.sum_logprob;
      child.tokens = parent.tokens;
      child.tokens.push_back(expansion.token);
      size_t slot = next->size();
      next->push_back(std::move(child));
      TokenId token = expansion.token;
      KvHandle child_kv = (*next)[slot].kv;
      workers.push_back(
          ctx.spawn([child_kv, token, slot, next](LipContext& inner) -> Task {
            StatusOr<std::vector<Distribution>> d =
                co_await inner.pred1(child_kv, token);
            if (d.ok()) {
              (*next)[slot].dist = d->back();
            }
            co_return;
          }));
    }
    for (ThreadId worker : workers) {
      co_await ctx.join(worker);
    }
    close_all(beams);
    if (fork_failed) {
      close_all(*next);
      failure.status = ResourceExhaustedError("beam fork failed");
      co_return failure;
    }
    // Drop beams whose pred failed (dist unset).
    for (Beam& beam : *next) {
      if (beam.dist.has_value()) {
        beams.push_back(std::move(beam));
      } else {
        (void)ctx.kv_close(beam.kv);
      }
    }
    next->clear();
  }

  // Surviving active beams count as (unterminated) results.
  for (Beam& beam : beams) {
    BeamResult open;
    open.status = Status::Ok();
    open.tokens = beam.tokens;
    open.sum_logprob = beam.sum_logprob;
    finished.push_back(std::move(open));
  }
  close_all(beams);

  const BeamResult* best = nullptr;
  for (const BeamResult& candidate : finished) {
    if (candidate.tokens.empty()) {
      continue;
    }
    if (best == nullptr || candidate.MeanLogprob() > best->MeanLogprob()) {
      best = &candidate;
    }
  }
  if (best == nullptr) {
    failure.status = UnavailableError("beam search produced no sequences");
    co_return failure;
  }
  co_return *best;
}

}  // namespace symphony
