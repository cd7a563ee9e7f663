// Property-based tests (parameterized sweeps) on the core invariants:
//   * PagePool vs a reference model under random op sequences,
//   * KvFileData vs a reference vector under random append/truncate/clone,
//   * model state: shared prefix <=> shared state,
//   * Distribution axioms across many hidden states,
//   * regex engine differential-tested against std::regex,
//   * JSON machine against a generator of random valid documents.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/decode/json_machine.h"
#include "src/decode/regex.h"
#include "src/kvfs/kv_file.h"
#include "src/kvfs/page_pool.h"
#include "src/model/cost_model.h"
#include "src/model/model.h"
#include "src/model/tokenizer.h"
#include "tests/stress_seeds.h"

namespace symphony {
namespace {

std::vector<uint64_t> SeedRange(uint64_t begin, uint64_t end) {
  std::vector<uint64_t> seeds;
  for (uint64_t s = begin; s < end; ++s) {
    seeds.push_back(s);
  }
  return seeds;
}

// ---------------------------------------------------------------------------
// PagePool: random alloc/ref/unref/move sequences vs a reference model.
// ---------------------------------------------------------------------------

class PagePoolPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagePoolPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  constexpr uint64_t kGpuBudget = 24;
  constexpr uint64_t kHostBudget = 24;
  PagePool pool(kGpuBudget, kHostBudget);

  struct RefPage {
    uint32_t refcount;
    Tier tier;
  };
  std::map<PageId, RefPage> reference;
  auto used_in = [&](Tier tier) {
    uint64_t n = 0;
    for (const auto& [id, page] : reference) {
      if (page.tier == tier) {
        ++n;
      }
    }
    return n;
  };

  for (int step = 0; step < 2000; ++step) {
    switch (rng.NextBounded(4)) {
      case 0: {  // Allocate.
        Tier tier = rng.NextBounded(2) == 0 ? Tier::kGpu : Tier::kHost;
        uint64_t budget = tier == Tier::kGpu ? kGpuBudget : kHostBudget;
        StatusOr<PageId> page = pool.Allocate(tier);
        if (used_in(tier) >= budget) {
          EXPECT_FALSE(page.ok());
        } else {
          ASSERT_TRUE(page.ok());
          EXPECT_EQ(reference.count(*page), 0u);
          reference[*page] = RefPage{1, tier};
        }
        break;
      }
      case 1: {  // Ref a random live page.
        if (reference.empty()) {
          break;
        }
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(reference.size()));
        pool.Ref(it->first);
        ++it->second.refcount;
        break;
      }
      case 2: {  // Unref a random live page.
        if (reference.empty()) {
          break;
        }
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(reference.size()));
        pool.Unref(it->first);
        if (--it->second.refcount == 0) {
          reference.erase(it);
        }
        break;
      }
      case 3: {  // Move tiers.
        if (reference.empty()) {
          break;
        }
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(reference.size()));
        Tier target = it->second.tier == Tier::kGpu ? Tier::kHost : Tier::kGpu;
        uint64_t budget = target == Tier::kGpu ? kGpuBudget : kHostBudget;
        Status st = pool.MoveToTier(it->first, target);
        if (used_in(target) >= budget) {
          EXPECT_FALSE(st.ok());
        } else {
          ASSERT_TRUE(st.ok());
          it->second.tier = target;
        }
        break;
      }
    }
    // Invariants after every step.
    ASSERT_EQ(pool.stats().gpu_pages_used, used_in(Tier::kGpu));
    ASSERT_EQ(pool.stats().host_pages_used, used_in(Tier::kHost));
  }
  for (const auto& [id, page] : reference) {
    EXPECT_EQ(pool.refcount(id), page.refcount);
    EXPECT_EQ(pool.tier(id), page.tier);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagePoolPropertyTest,
                         ::testing::ValuesIn(StressSeeds({1, 2, 3, 17, 99, 12345}, 1)));

// ---------------------------------------------------------------------------
// KvFileData: random append/truncate/clone vs std::vector references.
// ---------------------------------------------------------------------------

class KvFilePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvFilePropertyTest, MatchesVectorReference) {
  Rng rng(GetParam());
  PagePool pool(1 << 14, 0);

  struct Pair {
    std::unique_ptr<KvFileData> file;
    std::vector<TokenRecord> reference;
  };
  std::vector<Pair> files;
  files.push_back(Pair{std::make_unique<KvFileData>(&pool), {}});

  int32_t next_pos = 0;
  for (int step = 0; step < 1500; ++step) {
    size_t idx = rng.NextBounded(files.size());
    Pair& target = files[idx];
    switch (rng.NextBounded(5)) {
      case 0:
      case 1: {  // Append 1..20 records.
        uint64_t n = 1 + rng.NextBounded(20);
        for (uint64_t i = 0; i < n; ++i) {
          TokenRecord rec{static_cast<TokenId>(260 + rng.NextBounded(40)),
                          next_pos, rng.NextU64()};
          ++next_pos;
          ASSERT_TRUE(target.file->Append(rec).ok());
          target.reference.push_back(rec);
        }
        break;
      }
      case 2: {  // Truncate to a random length.
        if (target.reference.empty()) {
          break;
        }
        uint64_t keep = rng.NextBounded(target.reference.size() + 1);
        ASSERT_TRUE(target.file->Truncate(keep).ok());
        target.reference.resize(keep);
        break;
      }
      case 3: {  // Clone into a new file (cap population).
        if (files.size() >= 8) {
          break;
        }
        Pair clone{std::make_unique<KvFileData>(&pool), target.reference};
        ASSERT_TRUE(clone.file->CloneFrom(*target.file).ok());
        files.push_back(std::move(clone));
        break;
      }
      case 4: {  // Drop a file entirely (keep at least one).
        if (files.size() <= 1) {
          break;
        }
        files[idx] = std::move(files.back());
        files.pop_back();
        break;
      }
    }
    // Spot-check a random file against its reference.
    const Pair& check = files[rng.NextBounded(files.size())];
    ASSERT_EQ(check.file->length(), check.reference.size());
    if (!check.reference.empty()) {
      uint64_t i = rng.NextBounded(check.reference.size());
      StatusOr<TokenRecord> rec = check.file->At(i);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(rec->token, check.reference[i].token);
      EXPECT_EQ(rec->position, check.reference[i].position);
      EXPECT_EQ(rec->state, check.reference[i].state);
      EXPECT_EQ(*check.file->TailState(), check.reference.back().state);
    }
  }

  // Full verification and teardown balance.
  for (const Pair& pair : files) {
    for (size_t i = 0; i < pair.reference.size(); ++i) {
      EXPECT_EQ(pair.file->At(i)->state, pair.reference[i].state);
    }
  }
  files.clear();
  EXPECT_EQ(pool.stats().gpu_pages_used, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvFilePropertyTest,
                         ::testing::ValuesIn(StressSeeds({5, 6, 7, 8, 4242}, 2)));

// ---------------------------------------------------------------------------
// Model state: shared prefix <=> shared state.
// ---------------------------------------------------------------------------

class ModelStatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelStatePropertyTest, SharedPrefixSharedState) {
  Rng rng(GetParam());
  Model model(ModelConfig::Tiny());
  // Two random sequences sharing a random-length prefix.
  size_t prefix_len = 1 + rng.NextBounded(30);
  size_t total_len = prefix_len + 1 + rng.NextBounded(30);

  std::vector<TokenId> a;
  std::vector<TokenId> b;
  for (size_t i = 0; i < total_len; ++i) {
    TokenId t = static_cast<TokenId>(260 + rng.NextBounded(40));
    a.push_back(t);
    if (i < prefix_len) {
      b.push_back(t);
    } else {
      // Guarantee divergence at the first post-prefix position.
      TokenId other = static_cast<TokenId>(260 + rng.NextBounded(40));
      if (i == prefix_len && other == t) {
        other = static_cast<TokenId>(260 + ((other - 260 + 1) % 40));
      }
      b.push_back(other);
    }
  }

  std::vector<HiddenState> sa = model.AdvanceSeq(model.InitialState(), a, 0);
  std::vector<HiddenState> sb = model.AdvanceSeq(model.InitialState(), b, 0);
  for (size_t i = 0; i < prefix_len; ++i) {
    ASSERT_EQ(sa[i], sb[i]) << "prefix position " << i;
  }
  // Once diverged, states never re-coincide (hash collision ~ 2^-64).
  for (size_t i = prefix_len; i < total_len; ++i) {
    EXPECT_NE(sa[i], sb[i]) << "post-divergence position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelStatePropertyTest,
                         ::testing::ValuesIn(StressSeeds(SeedRange(100, 120), 3)));

// ---------------------------------------------------------------------------
// Distribution axioms across many states.
// ---------------------------------------------------------------------------

class DistributionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistributionPropertyTest, AxiomsHold) {
  Model model(ModelConfig::Tiny());
  Rng rng(GetParam());
  HiddenState state = model.InitialState();
  for (int step = 0; step < 40; ++step) {
    state = model.Advance(state, static_cast<TokenId>(260 + rng.NextBounded(40)),
                          step);
    Distribution dist = model.Predict(state);

    // Probabilities sum to 1 and Argmax dominates.
    std::vector<double> dense = dist.Dense();
    double total = 0.0;
    TokenId dense_argmax = 0;
    for (TokenId t = 0; t < static_cast<TokenId>(dense.size()); ++t) {
      ASSERT_GE(dense[static_cast<size_t>(t)], 0.0);
      total += dense[static_cast<size_t>(t)];
      if (dense[static_cast<size_t>(t)] > dense[static_cast<size_t>(dense_argmax)]) {
        dense_argmax = t;
      }
    }
    ASSERT_NEAR(total, 1.0, 1e-9);
    ASSERT_EQ(dist.Argmax(), dense_argmax);

    // Candidates are distinct and in descending probability order.
    std::vector<TokenId> cands = dist.TopCandidates();
    for (size_t i = 1; i < cands.size(); ++i) {
      ASSERT_GE(dist.Prob(cands[i - 1]), dist.Prob(cands[i]));
      for (size_t j = 0; j < i; ++j) {
        ASSERT_NE(cands[i], cands[j]);
      }
    }

    // Inverse-CDF sampling is monotone in u over the candidate region and
    // always in-vocabulary.
    for (double u : {0.0, 0.3, 0.7, 0.9999}) {
      TokenId t = dist.Sample(u);
      ASSERT_GE(t, 0);
      ASSERT_LT(t, static_cast<TokenId>(dense.size()));
    }
    ASSERT_EQ(dist.Sample(0.0), dist.Argmax());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributionPropertyTest,
                         ::testing::ValuesIn(StressSeeds({11, 22, 33, 44}, 4)));

// ---------------------------------------------------------------------------
// Regex engine: differential test against std::regex (ECMAScript).
// ---------------------------------------------------------------------------

struct RegexDiffCase {
  const char* pattern;
  const char* alphabet;  // Generation alphabet for random strings.
};

class RegexDifferentialTest : public ::testing::TestWithParam<RegexDiffCase> {};

TEST_P(RegexDifferentialTest, AgreesWithStdRegex) {
  const RegexDiffCase& c = GetParam();
  StatusOr<std::unique_ptr<Dfa>> dfa = CompileRegex(c.pattern);
  ASSERT_TRUE(dfa.ok()) << c.pattern;
  std::regex reference(c.pattern, std::regex::ECMAScript);

  std::string alphabet = c.alphabet;
  Rng rng(Fnv1a(c.pattern));
  int agreements_positive = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    size_t len = rng.NextBounded(12);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s += alphabet[rng.NextBounded(alphabet.size())];
    }
    bool ours = (*dfa)->Matches(s);
    bool theirs = std::regex_match(s, reference);
    ASSERT_EQ(ours, theirs) << "pattern=" << c.pattern << " input=\"" << s << "\"";
    if (ours) {
      ++agreements_positive;
    }
  }
  // The alphabet is chosen so some strings match; an all-negative run would
  // mean the test exercised nothing.
  EXPECT_GT(agreements_positive, 0) << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, RegexDifferentialTest,
    ::testing::Values(RegexDiffCase{"a*b", "ab"}, RegexDiffCase{"(a|b)*", "abc"},
                      RegexDiffCase{"a+(b|c)?a", "abc"},
                      RegexDiffCase{"[a-c]{2,4}", "abcd"},
                      RegexDiffCase{"a.c", "abc"},
                      RegexDiffCase{"\\d{1,3}", "0123x"},
                      RegexDiffCase{"(ab)+c?", "abc"},
                      RegexDiffCase{"x[^y]*y", "xyz"},
                      RegexDiffCase{"\\w\\s\\w", "a b"},
                      RegexDiffCase{"(a|bb)*(c|dd)", "abcd"}));

// ---------------------------------------------------------------------------
// JSON machine: random valid documents are accepted, with all prefixes alive.
// ---------------------------------------------------------------------------

std::string RandomJson(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.NextBounded(4) : rng.NextBounded(6)) {
    case 0:
      return std::to_string(static_cast<int64_t>(rng.NextBounded(2000)) - 1000);
    case 1:
      return rng.NextBounded(2) == 0 ? "true" : "false";
    case 2:
      return "null";
    case 3: {
      std::string s = "\"";
      size_t n = rng.NextBounded(6);
      for (size_t i = 0; i < n; ++i) {
        s += static_cast<char>('a' + rng.NextBounded(26));
      }
      return s + "\"";
    }
    case 4: {  // Array.
      std::string s = "[";
      size_t n = rng.NextBounded(4);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) {
          s += ", ";
        }
        s += RandomJson(rng, depth - 1);
      }
      return s + "]";
    }
    default: {  // Object.
      std::string s = "{";
      size_t n = rng.NextBounded(3);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) {
          s += ", ";
        }
        s += "\"k" + std::to_string(i) + "\": " + RandomJson(rng, depth - 1);
      }
      return s + "}";
    }
  }
}

class JsonPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonPropertyTest, ValidDocumentsAcceptedWithLivePrefixes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string doc = RandomJson(rng, 3);
    JsonMachine machine;
    for (size_t i = 0; i < doc.size(); ++i) {
      ASSERT_TRUE(machine.Feed(doc[i]))
          << "died at " << i << " of: " << doc;
    }
    EXPECT_TRUE(machine.Done()) << doc;
  }
}

TEST_P(JsonPropertyTest, StructuralCorruptionDetected) {
  Rng rng(GetParam() + 1);
  int rejected = 0;
  int trials = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string doc = RandomJson(rng, 3);
    // Appending a closing brace to a complete doc must fail (trailing junk).
    JsonMachine machine;
    if (!machine.FeedAll(doc) || !machine.Done()) {
      continue;
    }
    ++trials;
    if (!machine.Feed('}') || !machine.Done()) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, trials);  // Every trailing '}' must break completeness.
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonPropertyTest,
                         ::testing::ValuesIn(StressSeeds({51, 52, 53}, 5)));

// ---------------------------------------------------------------------------
// Tokenizer: decode(encode(s)) == whitespace-normalized s, for fuzzed input.
// ---------------------------------------------------------------------------

class TokenizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerPropertyTest, RoundTripNormalizesWhitespace) {
  Rng rng(GetParam());
  Tokenizer tokenizer(32000);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789_!?.wwwww   ";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    size_t words = rng.NextBounded(8);
    for (size_t w = 0; w < words; ++w) {
      size_t len = 1 + rng.NextBounded(6);
      for (size_t i = 0; i < len; ++i) {
        text += charset[rng.NextBounded(charset.size())];
      }
      text += ' ';
    }
    // Reference normalization: collapse whitespace runs, trim.
    std::string normalized;
    bool in_space = true;
    for (char c : text) {
      bool is_space = c == ' ' || c == '\t' || c == '\n';
      if (is_space) {
        if (!in_space) {
          normalized += ' ';
        }
        in_space = true;
      } else {
        normalized += c;
        in_space = false;
      }
    }
    while (!normalized.empty() && normalized.back() == ' ') {
      normalized.pop_back();
    }
    EXPECT_EQ(tokenizer.Decode(tokenizer.Encode(text)), normalized)
        << "input: [" << text << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerPropertyTest,
                         ::testing::ValuesIn(StressSeeds({61, 62, 63}, 6)));

// ---------------------------------------------------------------------------
// Cost model: monotonicity and superadditivity-of-batching properties.
// ---------------------------------------------------------------------------

class CostModelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostModelPropertyTest, MonotoneInWorkAndBatchingNeverHurts) {
  Rng rng(GetParam());
  CostModel cost(ModelConfig::Llama13B());
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t new_tokens = 1 + rng.NextBounded(4000);
    uint64_t context = rng.NextBounded(20000);

    // More new tokens never costs less.
    WorkItem a{new_tokens, context};
    WorkItem b{new_tokens + 1 + rng.NextBounded(500), context};
    ASSERT_LE(cost.BatchTime(std::span<const WorkItem>(&a, 1)),
              cost.BatchTime(std::span<const WorkItem>(&b, 1)));

    // Longer context never costs less.
    WorkItem c{new_tokens, context + 1 + rng.NextBounded(5000)};
    ASSERT_LE(cost.BatchTime(std::span<const WorkItem>(&a, 1)),
              cost.BatchTime(std::span<const WorkItem>(&c, 1)));

    // One fused batch never costs more than running the items separately.
    WorkItem d{1 + rng.NextBounded(200), rng.NextBounded(4000)};
    std::vector<WorkItem> fused = {a, d};
    ASSERT_LE(cost.BatchTime(fused),
              cost.BatchTime(std::span<const WorkItem>(&a, 1)) +
                  cost.BatchTime(std::span<const WorkItem>(&d, 1)));
  }
}

TEST_P(CostModelPropertyTest, TransferTimeIsLinearish) {
  Rng rng(GetParam());
  CostModel cost(ModelConfig::Llama13B());
  for (int trial = 0; trial < 100; ++trial) {
    uint64_t bytes = 1 + rng.NextBounded(1000000000);
    ASSERT_LE(cost.TransferTime(bytes), cost.TransferTime(bytes * 2));
    // Latency term bounded: doubling bytes at most doubles time.
    ASSERT_LE(cost.TransferTime(bytes * 2), 2 * cost.TransferTime(bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelPropertyTest,
                         ::testing::ValuesIn(StressSeeds({71, 72}, 7)));

}  // namespace
}  // namespace symphony
