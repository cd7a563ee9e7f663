// The deterministic pseudo-LLM.
//
// Hidden state is a 64-bit rolling hash over (token, position) pairs, seeded
// by the model family. This reproduces exactly the reuse contract of a causal
// Transformer's KV cache: state after token t depends only on the tokens and
// positions at 0..t, so any system-level KV reuse is correct if and only if
// it yields bit-identical states — which tests can check directly.
#ifndef SRC_MODEL_MODEL_H_
#define SRC_MODEL_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/model/distribution.h"
#include "src/model/model_config.h"
#include "src/model/tokenizer.h"

namespace symphony {

// Hidden state type. kv files persist one HiddenState per token.
using HiddenState = uint64_t;

class Model {
 public:
  explicit Model(ModelConfig config) : config_(std::move(config)) {}

  const ModelConfig& config() const { return config_; }

  // State before any token has been consumed.
  HiddenState InitialState() const;

  // Consumes one (token, position) pair. Positions are absolute context
  // indices, as in the paper's pred(kv, tokens, positions) signature; the
  // same token at a different position yields a different state (RoPE-like).
  // The family seed enters only InitialState, so this is a pure function of
  // its arguments: KVFS re-derives a page's records with it.
  static HiddenState Advance(HiddenState state, TokenId token, int32_t position) {
    uint64_t ingredient = static_cast<uint64_t>(static_cast<uint32_t>(token)) |
                          (static_cast<uint64_t>(static_cast<uint32_t>(position)) << 32);
    return HashCombine(state, ingredient);
  }

  // Next-token distribution given the state *after* the last consumed token.
  Distribution Predict(HiddenState state) const;

  // Convenience: runs Advance over a span, returning the state after each
  // token. states[i] is the state after consuming tokens[0..i].
  std::vector<HiddenState> AdvanceSeq(HiddenState state,
                                      const std::vector<TokenId>& tokens,
                                      int32_t first_position) const;

 private:
  ModelConfig config_;
};

}  // namespace symphony

#endif  // SRC_MODEL_MODEL_H_
