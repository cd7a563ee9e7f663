#include "src/recovery/replayer.h"

#include <cassert>
#include <utility>
#include <vector>

namespace symphony {

SimDuration Replayer::ImportCost(const CostModel& cost, uint64_t tokens) {
  if (tokens == 0) {
    return 0;
  }
  // Transfers are page-granular: a partial tail page moves whole.
  uint64_t pages = (tokens + kPageTokens - 1) / kPageTokens;
  uint64_t bytes = pages * kPageTokens * cost.model().KvBytesPerToken();
  return cost.TransferTime(bytes);
}

SimDuration Replayer::RecomputeCost(const CostModel& cost, uint64_t tokens) {
  if (tokens == 0) {
    return 0;
  }
  // One prefill batch over the whole journaled context. Real replay may
  // split this across the original request boundaries (more kernel launches),
  // so this is a lower bound — which only ever biases the choice toward
  // recompute, the mode the estimate favors less often.
  std::vector<WorkItem> items{{tokens, 0}};
  return cost.BatchTime(items);
}

RecoveryMode Replayer::Choose(const CostModel& cost, uint64_t tokens) {
  if (tokens == 0) {
    return RecoveryMode::kRecompute;  // Nothing to import.
  }
  return ImportCost(cost, tokens) <= RecomputeCost(cost, tokens)
             ? RecoveryMode::kImportSnapshot
             : RecoveryMode::kRecompute;
}

ReplayOutcome Replayer::Replay(LipRuntime& runtime, const CostModel& cost,
                               const ModelConfig* config,
                               std::shared_ptr<SyscallJournal> journal,
                               LipProgram program, RecoveryMode mode,
                               std::function<void(LipId)> on_exit) {
  assert(journal != nullptr);
  ReplayOutcome outcome;
  outcome.journaled_pred_tokens = journal->pred_tokens();
  outcome.mode = mode == RecoveryMode::kAuto
                     ? Choose(cost, journal->pred_tokens())
                     : mode;
  outcome.lip = runtime.LaunchWithSeed(journal->name, journal->rng_seed,
                                       std::move(program), std::move(on_exit));
  runtime.SetQuota(outcome.lip, journal->quota);
  if (journal->deadline != 0) {
    runtime.SetDeadline(outcome.lip, journal->deadline);
  }
  runtime.EnableJournal(outcome.lip, journal);
  Status began = runtime.BeginReplay(outcome.lip, outcome.mode, config);
  assert(began.ok());
  (void)began;
  return outcome;
}

}  // namespace symphony
