// Deterministic word-level tokenizer with byte fallback.
//
// Layout of the id space:
//   0 PAD, 1 BOS, 2 EOS, 3 UNK,
//   4..259      byte tokens (fallback for out-of-vocabulary words),
//   260..V-1    word tokens: the procedural words "w0", "w1", ... first,
//               then the words AddWord registers.
//
// The procedural words are derived from their ids, not stored: "w" plus the
// canonical decimal of the index (no sign, no leading zeros). Only the words
// AddWord registers take memory.
//
// Encoding splits on ASCII whitespace; known words map to a single id and
// unknown words decompose into byte tokens. Decoding is the exact inverse, so
// Decode(Encode(s)) == canonical-whitespace(s), which tests rely on.
#ifndef SRC_MODEL_TOKENIZER_H_
#define SRC_MODEL_TOKENIZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace symphony {

using TokenId = int32_t;

inline constexpr TokenId kPadToken = 0;
inline constexpr TokenId kBosToken = 1;
inline constexpr TokenId kEosToken = 2;
inline constexpr TokenId kUnkToken = 3;
inline constexpr TokenId kFirstByteToken = 4;
inline constexpr TokenId kFirstWordToken = kFirstByteToken + 256;

class Tokenizer {
 public:
  // Builds a tokenizer whose word table is filled with procedurally generated
  // words ("w0", "w1", ...). For vocabularies larger than 512 words, 256
  // slots are left free for AddWord. vocab_size must be >= kFirstWordToken.
  explicit Tokenizer(uint32_t vocab_size);

  // Registers `word` (no whitespace) and returns its id; returns the existing
  // id if already present, procedural words included. Fails with
  // kResourceExhausted when the vocab is full and with kInvalidArgument if
  // `word` contains whitespace.
  StatusOr<TokenId> AddWord(std::string_view word);

  // Splits on whitespace; known words become word tokens, unknown words
  // decompose into byte tokens.
  std::vector<TokenId> Encode(std::string_view text) const;

  // Encode plus BOS/EOS framing.
  std::vector<TokenId> EncodeWithSpecials(std::string_view text) const;

  // Inverse of Encode. Byte-token runs are concatenated into one word.
  std::string Decode(const std::vector<TokenId>& tokens) const;

  // Single-token rendering; specials render as "<pad>" etc.
  std::string TokenToString(TokenId id) const;

  uint32_t vocab_size() const { return vocab_size_; }
  size_t num_words() const { return procedural_ + added_.size(); }

  // Id for a known word; kUnkToken sentinel absent.
  TokenId LookupWord(std::string_view word) const;

 private:
  // Index of `word` among the procedural words, if it is one.
  std::optional<uint32_t> ProceduralIndex(std::string_view word) const;

  uint32_t vocab_size_;
  uint32_t procedural_;  // Word i < procedural_ is "w<i>", id kFirstWordToken + i.
  std::vector<std::string> added_;  // added_[i] has id kFirstWordToken + procedural_ + i.
  std::unordered_map<std::string, TokenId> added_ids_;
};

}  // namespace symphony

#endif  // SRC_MODEL_TOKENIZER_H_
