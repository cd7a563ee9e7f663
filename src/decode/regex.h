// Regular-expression engine for constrained decoding.
//
// Compiles a regex to an NFA (Thompson construction), then to a DFA (subset
// construction). TokenConstraint lifts the character DFA to the token level:
// a token is allowed in a DFA state when consuming its surface string does
// not reach the dead state, and EOS is allowed exactly in accepting states.
// This is the same recipe production engines (Outlines, XGrammar) use; here
// it lets a LIP enforce output structure purely by masking the distributions
// pred returns (paper §2.3).
//
// Supported syntax: literals, '.', escapes (\d \D \w \W \s \S \n \t \\ and
// escaped punctuation), character classes [abc], [a-z], [^...], grouping
// (...), alternation '|', and the postfix operators * + ? {m} {m,} {m,n}.
// Matching is anchored (full-match semantics).
#ifndef SRC_DECODE_REGEX_H_
#define SRC_DECODE_REGEX_H_

#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/model/tokenizer.h"

namespace symphony {

using CharSet = std::bitset<256>;

// Deterministic finite automaton over bytes.
class Dfa {
 public:
  using StateId = uint32_t;
  static constexpr StateId kDead = 0xffffffffu;

  StateId start() const { return start_; }
  bool IsAccept(StateId state) const { return accept_[state]; }

  // Transition; kDead is absorbing.
  StateId Next(StateId state, unsigned char c) const {
    if (state == kDead) {
      return kDead;
    }
    return transitions_[state * 256 + c];
  }

  // Runs the DFA over `text` from `state`.
  StateId Run(StateId state, std::string_view text) const {
    for (unsigned char c : text) {
      state = Next(state, c);
      if (state == kDead) {
        break;
      }
    }
    return state;
  }

  // Full-match test from the start state.
  bool Matches(std::string_view text) const {
    StateId s = Run(start_, text);
    return s != kDead && IsAccept(s);
  }

  // True if no accepting state is reachable from `state` (useful to abort a
  // generation that can no longer satisfy the constraint).
  bool IsDeadEnd(StateId state) const {
    return state == kDead || !live_[state];
  }

 private:
  friend StatusOr<std::unique_ptr<Dfa>> CompileRegex(std::string_view pattern,
                                                     size_t max_states);

  StateId start_ = 0;
  std::vector<StateId> transitions_;  // num_states x 256.
  std::vector<bool> accept_;
  std::vector<bool> live_;  // Can reach an accepting state.
};

// Compiles `pattern`; fails with kInvalidArgument on syntax errors and
// kResourceExhausted if the DFA exceeds `max_states`.
StatusOr<std::unique_ptr<Dfa>> CompileRegex(std::string_view pattern,
                                            size_t max_states = 4096);

// Token-level view of a character DFA, bound to a tokenizer.
class TokenConstraint {
 public:
  // Both pointers must outlive the constraint.
  TokenConstraint(const Dfa* dfa, const Tokenizer* tokenizer)
      : dfa_(dfa), tokenizer_(tokenizer) {}

  Dfa::StateId start() const { return dfa_->start(); }

  // True if `token` may be emitted in `state`. EOS is allowed exactly when
  // the state accepts; other specials are never allowed.
  bool Allows(Dfa::StateId state, TokenId token) const;

  // State after emitting `token` (which must be allowed).
  Dfa::StateId Advance(Dfa::StateId state, TokenId token) const;

  bool IsAccept(Dfa::StateId state) const { return dfa_->IsAccept(state); }
  bool IsDeadEnd(Dfa::StateId state) const { return dfa_->IsDeadEnd(state); }

 private:
  // Token strings are interned per token id to avoid re-rendering.
  const std::string& TokenText(TokenId token) const;

  const Dfa* dfa_;
  const Tokenizer* tokenizer_;
  mutable std::unordered_map<TokenId, std::string> token_text_;
};

}  // namespace symphony

#endif  // SRC_DECODE_REGEX_H_
