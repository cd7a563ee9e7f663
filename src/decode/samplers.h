// Token samplers operating on model Distributions.
//
// These are LIP-side building blocks (paper §2.3/§4.1): because pred returns
// the full next-token distribution, sampling strategy is program-defined, not
// baked into the serving system. Samplers are pure: the caller supplies the
// uniform variate, keeping LIP execution deterministic and replayable.
#ifndef SRC_DECODE_SAMPLERS_H_
#define SRC_DECODE_SAMPLERS_H_

#include <cstdint>

#include "src/model/distribution.h"
#include "src/model/tokenizer.h"

namespace symphony {

struct SamplerConfig {
  // 0 means greedy (argmax).
  double temperature = 1.0;
  // 0 disables top-k truncation.
  uint32_t top_k = 0;
  // 1.0 disables nucleus truncation.
  double top_p = 1.0;
};

// Samples one token according to config. `u` must be uniform in [0,1).
TokenId SampleToken(const Distribution& dist, const SamplerConfig& config, double u);

}  // namespace symphony

#endif  // SRC_DECODE_SAMPLERS_H_
