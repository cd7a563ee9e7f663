// Tests for the RAG workload: corpus determinism and end-to-end driver runs
// on all three systems, including the headline comparison shape on a scaled
// down configuration (the full Figure 3 sweep lives in bench/).
#include <gtest/gtest.h>

#include "src/workload/rag.h"

namespace symphony {
namespace {

RagConfig SmallConfig() {
  RagConfig config;
  config.num_docs = 10;
  config.doc_tokens = 300;
  config.query_tokens = 8;
  config.answer_tokens = 16;
  config.num_requests = 30;
  config.request_rate = 5.0;
  config.cache_top_k = 3;
  config.pareto_index = 0.7;
  return config;
}

TEST(RagCorpusTest, Deterministic) {
  RagConfig config = SmallConfig();
  RagCorpus a(config, 32000);
  RagCorpus b(config, 32000);
  EXPECT_EQ(a.doc(3), b.doc(3));
  EXPECT_EQ(a.MakeQuery(3, 17), b.MakeQuery(3, 17));
}

TEST(RagCorpusTest, DocsDifferAcrossTopics) {
  RagCorpus corpus(SmallConfig(), 32000);
  EXPECT_NE(corpus.doc(0), corpus.doc(1));
}

TEST(RagCorpusTest, QueriesShareTopicMarker) {
  RagCorpus corpus(SmallConfig(), 32000);
  EXPECT_EQ(corpus.MakeQuery(2, 5)[0], corpus.MakeQuery(2, 99)[0]);
  EXPECT_NE(corpus.MakeQuery(2, 5)[0], corpus.MakeQuery(3, 5)[0]);
}

TEST(RagCorpusTest, DocFirstPromptIsDocPlusQuery) {
  RagConfig config = SmallConfig();
  RagCorpus corpus(config, 32000);
  std::vector<TokenId> prompt = corpus.MakePrompt(1, 7, PromptLayout::kDocFirst);
  EXPECT_EQ(prompt.size(), config.doc_tokens + config.query_tokens);
  EXPECT_EQ(prompt[0], corpus.doc(1)[0]);
  EXPECT_EQ(prompt[config.doc_tokens], corpus.MakeQuery(1, 7)[0]);
}

TEST(RagCorpusTest, QueryFirstPromptStartsWithSharedInstruction) {
  RagConfig config = SmallConfig();
  RagCorpus corpus(config, 32000);
  std::vector<TokenId> a = corpus.MakePrompt(1, 7, PromptLayout::kQueryFirst);
  std::vector<TokenId> b = corpus.MakePrompt(2, 8, PromptLayout::kQueryFirst);
  EXPECT_EQ(a.size(), RagCorpus::kInstructionTokens + config.query_tokens +
                          config.doc_tokens);
  // Shared instruction prefix, divergent afterwards.
  for (uint32_t i = 0; i < RagCorpus::kInstructionTokens; ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
  EXPECT_NE(std::vector<TokenId>(a.begin() + RagCorpus::kInstructionTokens, a.end()),
            std::vector<TokenId>(b.begin() + RagCorpus::kInstructionTokens, b.end()));
}

class RagDriverTest : public ::testing::Test {
 protected:
  static BaselineOptions TinyBaseline(bool cache) {
    BaselineOptions o = cache ? PromptServer::VllmLike() : PromptServer::TgiLike();
    o.model = ModelConfig::Tiny();
    return o;
  }
  static ServerOptions TinySymphony() {
    ServerOptions o;
    o.model = ModelConfig::Tiny();
    return o;
  }
};

TEST_F(RagDriverTest, BaselineCompletesAllRequests) {
  RagConfig config = SmallConfig();
  RagRunResult result = RunRagOnBaseline(config, TinyBaseline(true));
  EXPECT_EQ(result.completed, config.num_requests);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.throughput_tok_s, 0.0);
  EXPECT_GT(result.mean_latency_per_token_ms, 0.0);
  EXPECT_EQ(result.system, "vllm-like");
}

TEST_F(RagDriverTest, SymphonyCompletesAllRequests) {
  RagConfig config = SmallConfig();
  RagRunResult result = RunRagOnSymphony(config, TinySymphony());
  EXPECT_EQ(result.completed, config.num_requests);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.throughput_tok_s, 0.0);
  EXPECT_EQ(result.system, "symphony");
}

TEST_F(RagDriverTest, SymphonyGetsCacheHitsOnPopularTopics) {
  RagConfig config = SmallConfig();
  config.pareto_index = 0.4;  // Strong skew: most requests hit the top-3.
  RagRunResult result = RunRagOnSymphony(config, TinySymphony());
  EXPECT_GT(result.cache_hits, config.num_requests / 3);
}

TEST_F(RagDriverTest, RunsAreReproducible) {
  RagConfig config = SmallConfig();
  RagRunResult a = RunRagOnSymphony(config, TinySymphony());
  RagRunResult b = RunRagOnSymphony(config, TinySymphony());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_DOUBLE_EQ(a.mean_latency_per_token_ms, b.mean_latency_per_token_ms);
  EXPECT_DOUBLE_EQ(a.throughput_tok_s, b.throughput_tok_s);
}

TEST_F(RagDriverTest, SkewedPopularityFavorsSymphonyOverTgi) {
  // Scaled-down Figure 3 sanity check with the full-size model: under strong
  // skew, Symphony's app-managed cache must beat the cacheless baseline on
  // latency per token.
  RagConfig config;
  config.num_docs = 20;
  config.doc_tokens = 800;
  config.query_tokens = 12;
  config.answer_tokens = 24;
  config.num_requests = 40;
  config.request_rate = 1.5;
  config.cache_top_k = 5;
  config.pareto_index = 0.4;

  RagRunResult symphony = RunRagOnSymphony(config, ServerOptions{});
  RagRunResult tgi = RunRagOnBaseline(config, PromptServer::TgiLike());

  EXPECT_EQ(symphony.failed, 0u);
  EXPECT_EQ(tgi.failed, 0u);
  EXPECT_LT(symphony.mean_latency_per_token_ms, tgi.mean_latency_per_token_ms);
}

}  // namespace
}  // namespace symphony
