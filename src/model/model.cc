#include "src/model/model.h"

#include "src/common/hash.h"

namespace symphony {

HiddenState Model::InitialState() const {
  return Mix64(config_.family_seed ^ 0x5ee0dULL);
}

Distribution Model::Predict(HiddenState state) const {
  return Distribution(state, &config_);
}

std::vector<HiddenState> Model::AdvanceSeq(HiddenState state,
                                           const std::vector<TokenId>& tokens,
                                           int32_t first_position) const {
  std::vector<HiddenState> states;
  states.reserve(tokens.size());
  int32_t pos = first_position;
  for (TokenId t : tokens) {
    state = Advance(state, t, pos++);
    states.push_back(state);
  }
  return states;
}

}  // namespace symphony
