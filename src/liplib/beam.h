// LIP standard library: beam search.
//
// Classic beam search over the model's token distributions, implemented
// entirely with public LIP system calls: each beam is a KV file fork (so all
// beams share the prompt pages copy-on-write), per-step expansions run in
// parallel threads (so the batch scheduler fuses their preds into one GPU
// step), and pruned beams are simply closed.
#ifndef SRC_LIPLIB_BEAM_H_
#define SRC_LIPLIB_BEAM_H_

#include <vector>

#include "src/common/status.h"
#include "src/runtime/lip_context.h"
#include "src/runtime/task.h"

namespace symphony {

struct BeamOptions {
  int width = 4;
  int max_steps = 16;
};

struct BeamResult {
  Status status;
  std::vector<TokenId> tokens;
  double sum_logprob = 0.0;
  bool hit_eos = false;

  bool ok() const { return status.ok(); }
  double MeanLogprob() const {
    return tokens.empty() ? -1e30
                          : sum_logprob / static_cast<double>(tokens.size());
  }
};

// Expands from `prompt_kv` + `seed_dist` (the distribution after the prompt,
// i.e. `pred(prompt)->back()`); `prompt_kv` itself is never modified. The
// best sequence by mean log-probability is returned; all beam forks are
// closed before returning.
ValueTask<BeamResult> BeamSearch(LipContext& ctx, KvHandle prompt_kv,
                                 Distribution seed_dist, BeamOptions options);

}  // namespace symphony

#endif  // SRC_LIPLIB_BEAM_H_
