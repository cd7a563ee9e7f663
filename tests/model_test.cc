// Tests for the deterministic pseudo-LLM: state evolution, distribution
// properties, cost model shape. These encode the invariants the whole
// serving stack depends on (prefix reuse == recompute).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/model/cost_model.h"
#include "src/model/distribution.h"
#include "src/model/model.h"
#include "src/model/model_config.h"

namespace symphony {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  Model model_{ModelConfig::Tiny()};
};

TEST_F(ModelTest, AdvanceIsDeterministic) {
  HiddenState a = model_.Advance(model_.InitialState(), 270, 0);
  HiddenState b = model_.Advance(model_.InitialState(), 270, 0);
  EXPECT_EQ(a, b);
}

TEST_F(ModelTest, StateDependsOnToken) {
  HiddenState a = model_.Advance(model_.InitialState(), 270, 0);
  HiddenState b = model_.Advance(model_.InitialState(), 271, 0);
  EXPECT_NE(a, b);
}

TEST_F(ModelTest, StateDependsOnPosition) {
  HiddenState a = model_.Advance(model_.InitialState(), 270, 0);
  HiddenState b = model_.Advance(model_.InitialState(), 270, 1);
  EXPECT_NE(a, b);
}

TEST_F(ModelTest, PrefixReuseEqualsRecompute) {
  // The central KV-cache invariant: continuing from a cached prefix state
  // produces the same states as recomputing the full sequence.
  std::vector<TokenId> prefix = {260, 261, 262, 263};
  std::vector<TokenId> suffix = {264, 265};

  std::vector<HiddenState> full_states = model_.AdvanceSeq(
      model_.InitialState(), {260, 261, 262, 263, 264, 265}, 0);

  std::vector<HiddenState> prefix_states =
      model_.AdvanceSeq(model_.InitialState(), prefix, 0);
  std::vector<HiddenState> resumed =
      model_.AdvanceSeq(prefix_states.back(), suffix,
                        static_cast<int32_t>(prefix.size()));

  EXPECT_EQ(full_states[3], prefix_states[3]);
  EXPECT_EQ(full_states[4], resumed[0]);
  EXPECT_EQ(full_states[5], resumed[1]);
}

TEST_F(ModelTest, DifferentFamiliesDiverge) {
  Model other(ModelConfig::Llama13B());
  EXPECT_NE(model_.InitialState(), other.InitialState());
}

TEST_F(ModelTest, PredictIsDeterministic) {
  HiddenState s = model_.Advance(model_.InitialState(), 270, 0);
  Distribution d1 = model_.Predict(s);
  Distribution d2 = model_.Predict(s);
  EXPECT_EQ(d1.Argmax(), d2.Argmax());
  EXPECT_EQ(d1.TopCandidates(), d2.TopCandidates());
}

class DistributionTest : public ::testing::Test {
 protected:
  ModelConfig config_ = ModelConfig::Tiny();
  Model model_{config_};

  Distribution DistAfter(std::vector<TokenId> tokens) {
    HiddenState s = model_.InitialState();
    int32_t pos = 0;
    for (TokenId t : tokens) {
      s = model_.Advance(s, t, pos++);
    }
    return model_.Predict(s);
  }
};

TEST_F(DistributionTest, DenseSumsToOne) {
  Distribution d = DistAfter({260, 300 % 256});
  std::vector<double> probs = d.Dense();
  ASSERT_EQ(probs.size(), config_.vocab_size);
  double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(DistributionTest, ProbMatchesDense) {
  Distribution d = DistAfter({261});
  std::vector<double> probs = d.Dense();
  for (TokenId t = 0; t < static_cast<TokenId>(config_.vocab_size); t += 7) {
    EXPECT_NEAR(d.Prob(t), probs[static_cast<size_t>(t)], 1e-12) << "token " << t;
  }
}

TEST_F(DistributionTest, ArgmaxMatchesDense) {
  for (TokenId seed_token = 260; seed_token < 280; ++seed_token) {
    Distribution d = DistAfter({seed_token});
    std::vector<double> probs = d.Dense();
    TokenId argmax = 0;
    for (TokenId t = 1; t < static_cast<TokenId>(probs.size()); ++t) {
      if (probs[static_cast<size_t>(t)] > probs[static_cast<size_t>(argmax)]) {
        argmax = t;
      }
    }
    EXPECT_EQ(d.Argmax(), argmax);
  }
}

TEST_F(DistributionTest, SampleMatchesDistribution) {
  Distribution d = DistAfter({262});
  Rng rng(1234);
  std::vector<int> counts(config_.vocab_size, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    TokenId t = d.Sample(rng.NextDouble());
    ASSERT_GE(t, 0);
    ASSERT_LT(t, static_cast<TokenId>(config_.vocab_size));
    ++counts[static_cast<size_t>(t)];
  }
  // Empirical frequency of the top candidates should match Prob().
  for (TokenId t : d.TopCandidates()) {
    double expected = d.Prob(t);
    double got = static_cast<double>(counts[static_cast<size_t>(t)]) / kN;
    EXPECT_NEAR(got, expected, 0.01) << "token " << t;
  }
}

TEST_F(DistributionTest, LowTemperatureSharpens) {
  Distribution d = DistAfter({263});
  Rng rng(99);
  int argmax_hits_cold = 0;
  int argmax_hits_hot = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    if (d.Sample(rng.NextDouble(), 0.1) == d.Argmax()) {
      ++argmax_hits_cold;
    }
    if (d.Sample(rng.NextDouble(), 3.0) == d.Argmax()) {
      ++argmax_hits_hot;
    }
  }
  EXPECT_GT(argmax_hits_cold, argmax_hits_hot);
  EXPECT_GT(argmax_hits_cold, kN * 9 / 10);
}

TEST_F(DistributionTest, GreedyMaskedRespectsMask) {
  Distribution d = DistAfter({264});
  TokenId only = 42;
  TokenId got = d.GreedyMasked([&](TokenId t) { return t == only; });
  EXPECT_EQ(got, only);
}

TEST_F(DistributionTest, GreedyMaskedPrefersBestAllowedCandidate) {
  Distribution d = DistAfter({265});
  std::vector<TokenId> cands = d.TopCandidates();
  // Disallow the argmax; expect the next-best candidate.
  TokenId got = d.GreedyMasked([&](TokenId t) { return t != cands[0]; });
  EXPECT_EQ(got, cands[1]);
}

TEST_F(DistributionTest, GreedyMaskedDeadEndReturnsUnk) {
  Distribution d = DistAfter({266});
  EXPECT_EQ(d.GreedyMasked([](TokenId) { return false; }), kUnkToken);
}

TEST_F(DistributionTest, SampleMaskedOnlyReturnsAllowed) {
  Distribution d = DistAfter({267});
  Rng rng(7);
  auto even = [](TokenId t) { return t % 2 == 0; };
  for (int i = 0; i < 1000; ++i) {
    TokenId t = d.SampleMasked(rng.NextDouble(), 1.0, even);
    EXPECT_EQ(t % 2, 0);
  }
}

TEST_F(DistributionTest, FamilyMembersShareCandidates) {
  // Target and draft (same family) must mostly agree on candidate sets for
  // speculative decoding to be interesting.
  Model target(ModelConfig::Llama13B());
  Model draft(ModelConfig::Llama1BDraft());
  ASSERT_EQ(target.InitialState(), draft.InitialState());
  HiddenState s = target.InitialState();
  int argmax_agree = 0;
  constexpr int kSteps = 300;
  for (int i = 0; i < kSteps; ++i) {
    Distribution dt = target.Predict(s);
    Distribution dd = draft.Predict(s);
    EXPECT_EQ(dt.state(), dd.state());
    if (dt.Argmax() == dd.Argmax()) {
      ++argmax_agree;
    }
    s = target.Advance(s, dt.Argmax(), i);
  }
  double agreement = static_cast<double>(argmax_agree) / kSteps;
  EXPECT_GT(agreement, 0.4);  // Correlated...
  EXPECT_LT(agreement, 0.99);  // ...but not identical.
}

TEST_F(DistributionTest, EosAppearsWithConfiguredBias) {
  ModelConfig biased = ModelConfig::Tiny();
  biased.eos_bias_permille = 200;  // 20% of steps boost EOS to the top.
  Model model(biased);
  HiddenState s = model.InitialState();
  int eos_top = 0;
  constexpr int kSteps = 2000;
  for (int i = 0; i < kSteps; ++i) {
    Distribution d = model.Predict(s);
    std::vector<TokenId> cands = d.TopCandidates();
    bool eos_candidate = false;
    for (TokenId t : cands) {
      if (t == kEosToken) {
        eos_candidate = true;
      }
    }
    if (eos_candidate) {
      ++eos_top;
    }
    s = model.Advance(s, static_cast<TokenId>(260 + (i % 40)), i);
  }
  EXPECT_NEAR(static_cast<double>(eos_top) / kSteps, 0.2, 0.05);
}

// Folds every accessor's output, over 500 states per model, into one hash.
// kDigest was recorded when each Distribution built its candidate table once
// at construction; deriving the table on demand must return the same bits.
TEST_F(DistributionTest, AccessorDigestMatchesParent) {
  constexpr uint64_t kDigest = 0x71664cd3addad2adULL;
  constexpr int kStates = 500;
  auto even = [](TokenId t) { return t % 2 == 0; };
  auto none = [](TokenId) { return false; };
  uint64_t h = 0;
  auto fold = [&h](uint64_t v) { h = HashCombine(h, v); };
  auto fold_token = [&fold](TokenId t) { fold(static_cast<uint32_t>(t)); };
  auto fold_double = [&fold](double v) { fold(std::bit_cast<uint64_t>(v)); };
  for (const ModelConfig& config :
       {ModelConfig::Tiny(), ModelConfig::Llama13B(), ModelConfig::Llama1BDraft()}) {
    Model model(config);
    const TokenId vocab = static_cast<TokenId>(config.vocab_size);
    HiddenState s = model.InitialState();
    for (int i = 0; i < kStates; ++i) {
      s = model.Advance(s, static_cast<TokenId>(Mix64(static_cast<uint64_t>(i)) %
                                                config.vocab_size),
                        i);
      Distribution d = model.Predict(s);
      fold_token(d.Argmax());
      std::vector<TokenId> cands = d.TopCandidates();
      std::vector<TokenId> probed = cands;
      for (TokenId t = static_cast<TokenId>(s % config.vocab_size);
           probed.size() < cands.size() + 2; t = (t + 1) % vocab) {
        if (std::find(cands.begin(), cands.end(), t) == cands.end()) {
          probed.push_back(t);  // A tail token.
        }
      }
      for (TokenId t : probed) {
        fold_token(t);
        fold_double(d.Prob(t));
        fold_double(d.LogProb(t));
      }
      for (double temperature : {0.5, 1.0, 2.0}) {
        for (double u : {0.0, 0.3, 0.7, 0.9999}) {
          fold_token(d.Sample(u, temperature));
          fold_token(d.SampleMasked(u, temperature, even));
        }
      }
      fold_token(d.GreedyMasked(even));
      fold_token(d.GreedyMasked(none));
      fold_token(d.SampleMasked(0.5, 1.0, none));
      if (config.vocab_size < 1000) {  // Dense() is O(vocab): Tiny only.
        for (double p : d.Dense()) {
          fold_double(p);
        }
      }
    }
  }
  EXPECT_EQ(h, kDigest);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModel cost_{ModelConfig::Llama13B()};
};

TEST_F(CostModelTest, EmptyBatchIsFree) {
  EXPECT_EQ(cost_.BatchTime({}), 0);
}

TEST_F(CostModelTest, DecodeStepIsMemoryBound) {
  // One decode token with 3000-token context: dominated by the weight pass
  // (~16ms at 2TB/s * 0.8 for 26GB).
  WorkItem item{1, 3000};
  SimDuration t = cost_.BatchTime(std::span<const WorkItem>(&item, 1));
  EXPECT_GT(t, Millis(10));
  EXPECT_LT(t, Millis(40));
}

TEST_F(CostModelTest, PrefillIsComputeBound) {
  // 3000-token prefill: ~0.5s of compute at 156 TFLOPS effective.
  WorkItem item{3000, 0};
  SimDuration t = cost_.BatchTime(std::span<const WorkItem>(&item, 1));
  EXPECT_GT(t, Millis(300));
  EXPECT_LT(t, Millis(800));
}

TEST_F(CostModelTest, BatchingAmortizesWeightPass) {
  // 8 decode tokens in one batch must be much cheaper than 8 separate steps.
  std::vector<WorkItem> batch(8, WorkItem{1, 1000});
  SimDuration batched = cost_.BatchTime(batch);
  WorkItem single{1, 1000};
  SimDuration sequential = 8 * cost_.BatchTime(std::span<const WorkItem>(&single, 1));
  EXPECT_LT(batched, sequential / 3);
}

TEST_F(CostModelTest, LongerContextCostsMore) {
  WorkItem short_ctx{1, 100};
  WorkItem long_ctx{1, 50000};
  EXPECT_LT(cost_.BatchTime(std::span<const WorkItem>(&short_ctx, 1)),
            cost_.BatchTime(std::span<const WorkItem>(&long_ctx, 1)));
}

TEST_F(CostModelTest, TransferTimeScalesWithBytes) {
  SimDuration small = cost_.TransferTime(1'000'000);
  SimDuration large = cost_.TransferTime(1'000'000'000);
  EXPECT_LT(small, large);
  // 1GB over 25GB/s ~= 40ms.
  EXPECT_NEAR(ToSeconds(large), 0.04, 0.005);
}

TEST_F(CostModelTest, ZeroByteNetworkTimeIsPropagationLatency) {
  // An empty message is still a packet: it pays the interconnect's
  // propagation latency even though it serializes in zero time.
  // (Regression: this used to return 0, letting empty-payload sends and
  // fully-deduped delta ships arrive instantaneously.)
  EXPECT_EQ(cost_.NetworkTime(0), cost_.hardware().interconnect_latency);
  EXPECT_GT(cost_.NetworkTime(1 << 20), cost_.NetworkTime(0));
}

TEST_F(CostModelTest, KvBudgetFitsRoughly50GB) {
  // 80GB - 26GB weights - 4GB activations = 50GB.
  EXPECT_NEAR(static_cast<double>(cost_.DeviceKvBudgetBytes()), 50e9, 1e9);
  // About 61k tokens at 0.82MB/token.
  EXPECT_GT(cost_.DeviceKvBudgetTokens(), 55'000u);
  EXPECT_LT(cost_.DeviceKvBudgetTokens(), 65'000u);
}

TEST_F(CostModelTest, CachedPrefillMuchCheaperThanFull) {
  // The Figure 3 asymmetry: generating 100 tokens on a cached 3000-token
  // prefix must be far cheaper than prefilling 3000 tokens first.
  WorkItem cached{100, 3000};
  WorkItem full{3100, 0};
  SimDuration cached_t = cost_.BatchTime(std::span<const WorkItem>(&cached, 1));
  SimDuration full_t = cost_.BatchTime(std::span<const WorkItem>(&full, 1));
  EXPECT_LT(cached_t * 5, full_t);
}

}  // namespace
}  // namespace symphony
