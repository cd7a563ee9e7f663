#include "src/model/tokenizer.h"

#include <cassert>
#include <cctype>

namespace symphony {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}

bool ContainsSpace(std::string_view word) {
  for (char c : word) {
    if (IsSpace(c)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Tokenizer::Tokenizer(uint32_t vocab_size) : vocab_size_(vocab_size) {
  assert(vocab_size_ >= static_cast<uint32_t>(kFirstWordToken));
  uint32_t capacity = vocab_size_ - kFirstWordToken;
  // Leave headroom for caller-registered words (tool names, tags) when the
  // vocabulary is large enough to afford it.
  procedural_ = capacity > 512 ? capacity - 256 : capacity;
}

std::optional<uint32_t> Tokenizer::ProceduralIndex(std::string_view word) const {
  if (word.size() < 2 || word[0] != 'w' || (word[1] == '0' && word.size() > 2)) {
    return std::nullopt;
  }
  uint64_t index = 0;
  for (char c : word.substr(1)) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    index = index * 10 + static_cast<uint64_t>(c - '0');
    if (index >= procedural_) {  // Also bounds index, so it cannot overflow.
      return std::nullopt;
    }
  }
  return static_cast<uint32_t>(index);
}

StatusOr<TokenId> Tokenizer::AddWord(std::string_view word) {
  if (word.empty() || ContainsSpace(word)) {
    return InvalidArgumentError("word must be non-empty and whitespace-free");
  }
  TokenId existing = LookupWord(word);
  if (existing != kUnkToken) {
    return existing;
  }
  if (kFirstWordToken + num_words() >= vocab_size_) {
    return ResourceExhaustedError("vocabulary full");
  }
  TokenId id = static_cast<TokenId>(kFirstWordToken + num_words());
  added_.emplace_back(word);
  added_ids_.emplace(std::string(word), id);
  return id;
}

TokenId Tokenizer::LookupWord(std::string_view word) const {
  if (std::optional<uint32_t> index = ProceduralIndex(word)) {
    return static_cast<TokenId>(kFirstWordToken + *index);
  }
  auto it = added_ids_.find(std::string(word));
  return it == added_ids_.end() ? kUnkToken : it->second;
}

std::vector<TokenId> Tokenizer::Encode(std::string_view text) const {
  std::vector<TokenId> out;
  size_t i = 0;
  bool prev_was_bytes = false;
  while (i < text.size()) {
    while (i < text.size() && IsSpace(text[i])) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() && !IsSpace(text[i])) {
      ++i;
    }
    if (start == i) {
      break;
    }
    std::string_view word = text.substr(start, i - start);
    TokenId id = LookupWord(word);
    if (id != kUnkToken) {
      out.push_back(id);
      prev_was_bytes = false;
    } else {
      // Two byte-encoded words in a row need an explicit space byte, or the
      // runs would merge on decode.
      if (prev_was_bytes) {
        out.push_back(kFirstByteToken + static_cast<TokenId>(' '));
      }
      for (unsigned char c : word) {
        out.push_back(kFirstByteToken + static_cast<TokenId>(c));
      }
      prev_was_bytes = true;
    }
  }
  return out;
}

std::vector<TokenId> Tokenizer::EncodeWithSpecials(std::string_view text) const {
  std::vector<TokenId> out;
  out.push_back(kBosToken);
  std::vector<TokenId> body = Encode(text);
  out.insert(out.end(), body.begin(), body.end());
  out.push_back(kEosToken);
  return out;
}

std::string Tokenizer::TokenToString(TokenId id) const {
  switch (id) {
    case kPadToken:
      return "<pad>";
    case kBosToken:
      return "<bos>";
    case kEosToken:
      return "<eos>";
    case kUnkToken:
      return "<unk>";
    default:
      break;
  }
  if (id >= kFirstByteToken && id < kFirstWordToken) {
    return std::string(1, static_cast<char>(id - kFirstByteToken));
  }
  if (id >= kFirstWordToken) {
    size_t index = static_cast<size_t>(id - kFirstWordToken);
    if (index < procedural_) {
      // Not "w" + std::to_string(...): GCC 12 -O3 reports a false -Wrestrict.
      std::string word = "w";
      word += std::to_string(index);
      return word;
    }
    if (index - procedural_ < added_.size()) {
      return added_[index - procedural_];
    }
  }
  return "<invalid>";
}

std::string Tokenizer::Decode(const std::vector<TokenId>& tokens) const {
  std::string out;
  bool in_byte_run = false;
  for (TokenId id : tokens) {
    if (id == kBosToken || id == kEosToken || id == kPadToken) {
      in_byte_run = false;
      continue;
    }
    bool is_byte = id >= kFirstByteToken && id < kFirstWordToken;
    if (is_byte && in_byte_run) {
      out += static_cast<char>(id - kFirstByteToken);
      continue;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += TokenToString(id);
    in_byte_run = is_byte;
  }
  return out;
}

}  // namespace symphony
