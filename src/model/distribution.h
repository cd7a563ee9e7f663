// Next-token distribution of the deterministic pseudo-LLM.
//
// A Distribution is defined constructively from the model's hidden state
// (a 64-bit rolling context hash):
//   * K candidate tokens are drawn pseudo-randomly from the family seed, so
//     models of the same family (target + draft) propose the same candidates;
//   * candidate j gets score -j*kScoreDecay plus model-specific jitter, which
//     differentiates rankings across family members;
//   * every non-candidate token shares a constant floor score.
// Probabilities are the softmax of these scores, which keeps Prob(), Sample()
// and Argmax() exact and O(K) while Dense() stays available (O(vocab)) for
// tests and constrained decoding over small vocabularies.
//
// A Distribution holds only that definition: the state and a pointer to the
// model config, 16 bytes. Every accessor re-derives the sorted candidate
// table (draw, EOS boost, jitter, stable sort) once per call, so a
// distribution nobody reads costs nothing. That is the common case: pred
// returns one distribution per input token and a LIP usually reads only the
// last, so a 3,000-token prefill returns 2,999 that are never read. A caller
// that reads several values of one distribution pays for the table once per
// read: SampleToken's top-k/top-p branch (one Prob() per kept candidate,
// twice), beam search's candidate expansion (one LogProb() per candidate) and
// Generate's LogProb() of the sampled token.
//
// The same state always yields the same distribution — the property that
// makes KV-cache reuse verifiable end to end.
#ifndef SRC_MODEL_DISTRIBUTION_H_
#define SRC_MODEL_DISTRIBUTION_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/model/model_config.h"
#include "src/model/tokenizer.h"

namespace symphony {

class Distribution {
 public:
  static constexpr int kNumCandidates = 16;
  static constexpr double kScoreDecay = 0.35;
  static constexpr double kFloorScore = -18.0;

  // `config` must outlive the distribution.
  Distribution(uint64_t state, const ModelConfig* config)
      : state_(state), config_(config) {
    assert(config != nullptr);
  }

  uint64_t state() const { return state_; }

  // Highest-probability token.
  TokenId Argmax() const;

  // Exact probability of `token` at temperature 1.
  double Prob(TokenId token) const;
  double LogProb(TokenId token) const;

  // Samples with inverse-CDF using the caller-supplied uniform u in [0,1).
  // Taking u (not an Rng) keeps the model layer deterministic and lets the
  // sampler own randomness policy.
  TokenId Sample(double u, double temperature = 1.0) const;

  // Greedy over tokens satisfying `allowed`; scans candidates first, then the
  // vocabulary in a state-derived order. Returns kUnkToken if no token is
  // allowed (callers treat that as a grammar dead-end).
  TokenId GreedyMasked(const std::function<bool(TokenId)>& allowed) const;

  // Samples among *allowed candidates* (renormalized); falls back to
  // GreedyMasked's scan when no candidate is allowed.
  TokenId SampleMasked(double u, double temperature,
                       const std::function<bool(TokenId)>& allowed) const;

  // Candidate tokens in score order (rank 0 = Argmax).
  std::vector<TokenId> TopCandidates() const;

  // Full probability vector, length vocab_size. O(vocab); test/analysis use.
  std::vector<double> Dense() const;

  const ModelConfig& config() const { return *config_; }

 private:
  struct Entry {
    TokenId token;
    double score;  // Pre-temperature score.
  };
  using Entries = std::array<Entry, kNumCandidates>;

  // The candidate table, sorted by descending score.
  Entries Candidates() const;
  TokenId GreedyMaskedOver(const Entries& entries,
                           const std::function<bool(TokenId)>& allowed) const;
  double TailMass(double temperature) const;  // Total non-candidate weight.
  double CandidateWeight(double score, double temperature) const;

  uint64_t state_;
  const ModelConfig* config_;
};

static_assert(sizeof(Distribution) == 16,
              "a Distribution is its (state, config) definition only");

}  // namespace symphony

#endif  // SRC_MODEL_DISTRIBUTION_H_
