#include "src/model/distribution.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/hash.h"

namespace symphony {

namespace {

constexpr uint64_t kCandidateSalt = 0xc0ffee1234567891ULL;
constexpr uint64_t kEosSalt = 0xe05e05e05e05e05eULL;
constexpr uint64_t kTailSalt = 0x7a11aa55deadbeefULL;

}  // namespace

Distribution::Tokens Distribution::DrawTokens(int count) const {
  const uint32_t vocab = config_->vocab_size;
  assert(vocab > kNumCandidates * 2u);

  // Draw distinct candidate tokens from the *family* seed so sibling models
  // (target and draft) agree on the candidate set.
  Tokens tokens{};
  int filled = 0;
  uint64_t probe = state_ ^ Mix64(config_->family_seed ^ kCandidateSalt);
  while (filled < count) {
    probe = Mix64(probe + 0x9e3779b97f4a7c15ULL);
    TokenId t = static_cast<TokenId>(probe % vocab);
    auto drawn = tokens.begin() + filled;
    if (std::find(tokens.begin(), drawn, t) == drawn) {
      *drawn = t;
      ++filled;
    }
  }
  return tokens;
}

bool Distribution::EosBoosted() const {
  return (Mix64(state_ ^ kEosSalt) % 1000) < config_->eos_bias_permille;
}

double Distribution::RankScore(int j) const {
  double jitter = 0.0;
  if (config_->score_jitter > 0.0) {
    uint64_t h = Mix64(state_ ^ config_->jitter_seed ^
                       (static_cast<uint64_t>(j) * 0x9e3779b97f4a7c15ULL));
    jitter = (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5) * config_->score_jitter;
  }
  return -kScoreDecay * j + jitter;
}

Distribution::Entries Distribution::Candidates() const {
  Tokens tokens = DrawTokens(kNumCandidates);
  if (EosBoosted()) {
    // Promote EOS into rank 0 (replacing whatever was there, unless EOS is
    // already a candidate — then swap it up).
    auto existing = std::find(tokens.begin(), tokens.end(), kEosToken);
    if (existing != tokens.end()) {
      std::iter_swap(tokens.begin(), existing);
    } else {
      tokens[0] = kEosToken;
    }
  }

  // Score by rank with model-specific jitter, then sort descending so that
  // entries[0] is the argmax for THIS model (family members may disagree).
  // The insertion sort is stable: equal scores keep rank order.
  Entries entries{};
  for (int j = 0; j < kNumCandidates; ++j) {
    const Entry entry{tokens[static_cast<size_t>(j)], RankScore(j)};
    size_t k = static_cast<size_t>(j);
    for (; k > 0 && entries[k - 1].score < entry.score; --k) {
      entries[k] = entries[k - 1];
    }
    entries[k] = entry;
  }
  return entries;
}

double Distribution::CandidateWeight(double score, double temperature) const {
  return std::exp(score / temperature);
}

double Distribution::TailMass(double temperature) const {
  double tail_count =
      static_cast<double>(config_->vocab_size) - static_cast<double>(kNumCandidates);
  return tail_count * std::exp(kFloorScore / temperature);
}

TokenId Distribution::Argmax() const {
  // Rank j's jitter is (u - 0.5) * score_jitter with u < 1, so its score is
  // at most -j * kScoreDecay + score_jitter / 2, and ties go to the lower
  // rank. The scan stops at the first rank whose best case cannot beat the
  // best score so far; every later rank's best case is lower still.
  const double half_spread =
      config_->score_jitter > 0.0 ? 0.5 * config_->score_jitter : 0.0;
  int winner = 0;
  double best = RankScore(0);
  for (int j = 1; j < kNumCandidates && -kScoreDecay * j + half_spread > best; ++j) {
    double score = RankScore(j);
    if (score > best) {
      best = score;
      winner = j;
    }
  }
  const Tokens tokens = DrawTokens(winner + 1);
  const TokenId drawn = tokens[static_cast<size_t>(winner)];
  if (!EosBoosted()) {
    return drawn;
  }
  // The boost puts EOS at rank 0 and, when EOS was drawn at another rank,
  // rank 0's token there.
  if (winner == 0) {
    return kEosToken;
  }
  return drawn == kEosToken ? tokens[0] : drawn;
}

double Distribution::Prob(TokenId token) const {
  double z = TailMass(1.0);
  double token_weight = std::exp(kFloorScore);  // Default: tail token.
  for (const Entry& e : Candidates()) {
    double w = CandidateWeight(e.score, 1.0);
    z += w;
    if (e.token == token) {
      token_weight = w;
    }
  }
  if (token < 0 || static_cast<uint32_t>(token) >= config_->vocab_size) {
    return 0.0;
  }
  return token_weight / z;
}

double Distribution::LogProb(TokenId token) const { return std::log(Prob(token)); }

TokenId Distribution::Sample(double u, double temperature) const {
  assert(u >= 0.0 && u < 1.0);
  assert(temperature > 0.0);
  const Entries entries = Candidates();
  double weights[kNumCandidates];
  double z = TailMass(temperature);
  for (int j = 0; j < kNumCandidates; ++j) {
    weights[j] = CandidateWeight(entries[static_cast<size_t>(j)].score, temperature);
    z += weights[j];
  }
  double target = u * z;
  for (int j = 0; j < kNumCandidates; ++j) {
    if (target < weights[j]) {
      return entries[static_cast<size_t>(j)].token;
    }
    target -= weights[j];
  }
  // Tail: pick a pseudo-random non-candidate token derived from u's bits.
  uint64_t probe = Mix64(state_ ^ kTailSalt ^
                         static_cast<uint64_t>(target / std::exp(kFloorScore / temperature)));
  const uint32_t vocab = config_->vocab_size;
  for (;;) {
    probe = Mix64(probe + 1);
    TokenId t = static_cast<TokenId>(probe % vocab);
    bool is_candidate = false;
    for (const Entry& e : entries) {
      if (e.token == t) {
        is_candidate = true;
        break;
      }
    }
    if (!is_candidate) {
      return t;
    }
  }
}

TokenId Distribution::GreedyMasked(const std::function<bool(TokenId)>& allowed) const {
  return GreedyMaskedOver(Candidates(), allowed);
}

TokenId Distribution::GreedyMaskedOver(
    const Entries& entries, const std::function<bool(TokenId)>& allowed) const {
  for (const Entry& e : entries) {
    if (allowed(e.token)) {
      return e.token;
    }
  }
  // Deterministic vocabulary scan starting at a state-derived offset.
  const uint32_t vocab = config_->vocab_size;
  uint32_t start = static_cast<uint32_t>(Mix64(state_ ^ kTailSalt) % vocab);
  for (uint32_t i = 0; i < vocab; ++i) {
    TokenId t = static_cast<TokenId>((start + i) % vocab);
    if (allowed(t)) {
      return t;
    }
  }
  return kUnkToken;
}

TokenId Distribution::SampleMasked(double u, double temperature,
                                   const std::function<bool(TokenId)>& allowed) const {
  const Entries entries = Candidates();
  double weights[kNumCandidates];
  double z = 0.0;
  for (int j = 0; j < kNumCandidates; ++j) {
    const Entry& e = entries[static_cast<size_t>(j)];
    weights[j] = allowed(e.token) ? CandidateWeight(e.score, temperature) : 0.0;
    z += weights[j];
  }
  if (z <= 0.0) {
    return GreedyMaskedOver(entries, allowed);
  }
  double target = u * z;
  for (int j = 0; j < kNumCandidates; ++j) {
    if (weights[j] > 0.0 && target < weights[j]) {
      return entries[static_cast<size_t>(j)].token;
    }
    target -= weights[j];
  }
  return GreedyMaskedOver(entries, allowed);
}

std::vector<TokenId> Distribution::TopCandidates() const {
  std::vector<TokenId> out;
  out.reserve(kNumCandidates);
  for (const Entry& e : Candidates()) {
    out.push_back(e.token);
  }
  return out;
}

std::vector<double> Distribution::Dense() const {
  const uint32_t vocab = config_->vocab_size;
  double z = TailMass(1.0);
  double floor_w = std::exp(kFloorScore);
  const Entries entries = Candidates();
  double weights[kNumCandidates];
  for (int j = 0; j < kNumCandidates; ++j) {
    weights[j] = CandidateWeight(entries[static_cast<size_t>(j)].score, 1.0);
    z += weights[j];
  }
  std::vector<double> probs(vocab, floor_w / z);
  for (int j = 0; j < kNumCandidates; ++j) {
    probs[static_cast<size_t>(entries[static_cast<size_t>(j)].token)] = weights[j] / z;
  }
  return probs;
}

}  // namespace symphony
