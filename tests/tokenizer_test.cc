// Unit tests for the deterministic tokenizer.
#include <gtest/gtest.h>

#include <string>

#include "src/model/model_config.h"
#include "src/model/tokenizer.h"

namespace symphony {
namespace {

TEST(TokenizerTest, KnownWordsSingleToken) {
  Tokenizer tok(32000);
  std::vector<TokenId> ids = tok.Encode("w0 w1 w42");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], kFirstWordToken + 0);
  EXPECT_EQ(ids[1], kFirstWordToken + 1);
  EXPECT_EQ(ids[2], kFirstWordToken + 42);
}

TEST(TokenizerTest, RoundTripKnownWords) {
  Tokenizer tok(32000);
  std::string text = "w1 w2 w3 w999";
  EXPECT_EQ(tok.Decode(tok.Encode(text)), text);
}

TEST(TokenizerTest, UnknownWordFallsBackToBytes) {
  Tokenizer tok(32000);
  std::vector<TokenId> ids = tok.Encode("xyz!");
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], kFirstByteToken + 'x');
  EXPECT_EQ(ids[3], kFirstByteToken + '!');
  EXPECT_EQ(tok.Decode(ids), "xyz!");
}

TEST(TokenizerTest, MixedKnownAndUnknownRoundTrip) {
  Tokenizer tok(32000);
  std::string text = "w5 hello w6 world";
  EXPECT_EQ(tok.Decode(tok.Encode(text)), text);
}

TEST(TokenizerTest, WhitespaceNormalizes) {
  Tokenizer tok(32000);
  EXPECT_EQ(tok.Decode(tok.Encode("  w1\t\nw2  ")), "w1 w2");
}

TEST(TokenizerTest, EmptyInput) {
  Tokenizer tok(32000);
  EXPECT_TRUE(tok.Encode("").empty());
  EXPECT_EQ(tok.Decode({}), "");
}

TEST(TokenizerTest, SpecialsFrameAndAreSkippedOnDecode) {
  Tokenizer tok(32000);
  std::vector<TokenId> ids = tok.EncodeWithSpecials("w7");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.front(), kBosToken);
  EXPECT_EQ(ids.back(), kEosToken);
  EXPECT_EQ(tok.Decode(ids), "w7");
}

TEST(TokenizerTest, TokenToStringSpecials) {
  Tokenizer tok(32000);
  EXPECT_EQ(tok.TokenToString(kPadToken), "<pad>");
  EXPECT_EQ(tok.TokenToString(kBosToken), "<bos>");
  EXPECT_EQ(tok.TokenToString(kEosToken), "<eos>");
  EXPECT_EQ(tok.TokenToString(kUnkToken), "<unk>");
  EXPECT_EQ(tok.TokenToString(static_cast<TokenId>(tok.vocab_size()) + 5), "<invalid>");
}

TEST(TokenizerTest, AddWordUsesHeadroom) {
  Tokenizer tok(32000);
  StatusOr<TokenId> id = tok.AddWord("search_web");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(tok.LookupWord("search_web"), *id);
  std::vector<TokenId> ids = tok.Encode("search_web");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], *id);
}

TEST(TokenizerTest, AddWordIdempotent) {
  Tokenizer tok(32000);
  StatusOr<TokenId> a = tok.AddWord("mytool");
  StatusOr<TokenId> b = tok.AddWord("mytool");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TokenizerTest, AddWordRejectsWhitespace) {
  Tokenizer tok(32000);
  EXPECT_FALSE(tok.AddWord("two words").ok());
  EXPECT_FALSE(tok.AddWord("").ok());
}

TEST(TokenizerTest, SmallVocabFillsCompletely) {
  Tokenizer tok(300);  // Tiny config: 40 word slots, no headroom.
  EXPECT_EQ(tok.num_words(), 40u);
  EXPECT_FALSE(tok.AddWord("extra").ok());
}

TEST(TokenizerTest, TinyConfigVocabIsValid) {
  ModelConfig tiny = ModelConfig::Tiny();
  Tokenizer tok(tiny.vocab_size);
  EXPECT_EQ(tok.Decode(tok.Encode("w0 w39")), "w0 w39");
}

// Procedural words are derived from their ids: every id round-trips, only the
// canonical spelling "w<index>" names a procedural word, and AddWord of one
// returns its existing id.
TEST(TokenizerTest, ProceduralWordsAreCanonicalDecimals) {
  auto word_of = [](size_t index) {
    std::string word = "w";
    word += std::to_string(index);
    return word;
  };
  for (const ModelConfig& config : {ModelConfig::Tiny(), ModelConfig::Llama13B()}) {
    Tokenizer tok(config.vocab_size);
    const size_t procedural = tok.num_words();
    for (size_t i = 0; i < procedural; ++i) {
      TokenId id = static_cast<TokenId>(kFirstWordToken + i);
      ASSERT_EQ(tok.TokenToString(id), word_of(i));
      ASSERT_EQ(tok.LookupWord(tok.TokenToString(id)), id);
    }
    for (const std::string& word : {std::string("w01"), std::string("w00"), std::string("w"),
                                     std::string("w-1"), std::string("w+1"), std::string("W1"),
                                     std::string("w1x"), word_of(procedural)}) {
      EXPECT_EQ(tok.LookupWord(word), kUnkToken) << word;
    }
    EXPECT_EQ(*tok.AddWord("w5"), 265);
    EXPECT_EQ(tok.num_words(), procedural);
  }
}

TEST(TokenizerTest, DeterministicAcrossInstances) {
  Tokenizer a(32000);
  Tokenizer b(32000);
  EXPECT_EQ(a.Encode("w1 w2 zzz"), b.Encode("w1 w2 zzz"));
}

}  // namespace
}  // namespace symphony
