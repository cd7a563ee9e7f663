// Microbenchmarks for the simulator core and recovery path (google-benchmark).
//
// Measures the real (host CPU) cost of the layers every simulated second
// leans on: event schedule and dispatch (a one-shot heap fill and drain, and
// a steady heap of 5,000 pending events), a greedy read of the next token
// (`Distribution::Argmax`, once per pred), a journal checkpoint into the
// snapshot store, the live-suffix size a delta migration ships, and one
// topology transfer. The journal rows use a journal shaped like the first
// checkpoint of a perfbench `agents` LIP, which is what every one of that
// workload's checkpoints is.
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/model/cost_model.h"
#include "src/model/distribution.h"
#include "src/model/model_config.h"
#include "src/net/topology.h"
#include "src/recovery/journal.h"
#include "src/sim/event_queue.h"
#include "src/store/journal_checkpoint.h"
#include "src/store/snapshot_store.h"

namespace symphony {
namespace {

void BM_ScheduleDispatch(benchmark::State& state) {
  const int64_t events = state.range(0);
  for (auto _ : state) {
    Simulator sim;
    uint64_t fired = 0;
    for (int64_t i = 0; i < events; ++i) {
      // Scattered times, so the queue does real heap work.
      sim.ScheduleAt((i * 7919) % events, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_ScheduleDispatch)->Arg(100000);

// A busy simulator's steady state: `range(0)` events pending, and each one,
// when it runs, schedules its chain's successor 2 us later, as the runtime's
// Ready does. Seven chains in eight capture 16 bytes, which std::function
// keeps in its local buffer; every eighth captures 48 bytes, which it
// allocates. One iteration dispatches one event.
struct SteadyChains {
  void Next(uint64_t chain, SimDuration delay) {
    if (chain % 8 != 0) {
      sim.ScheduleAfter(delay, [this, chain] { Fire(chain); });
    } else {
      std::array<uint64_t, 5> padded{chain};
      sim.ScheduleAfter(delay, [this, padded] { Fire(padded[0]); });
    }
  }
  void Fire(uint64_t chain) {
    ++fired;
    Next(chain, Micros(2));
  }

  Simulator sim;
  uint64_t fired = 0;
};

void BM_DispatchSteady(benchmark::State& state) {
  SteadyChains chains;
  for (int64_t c = 0; c < state.range(0); ++c) {
    chains.Next(static_cast<uint64_t>(c), c % 2000);
  }
  for (auto _ : state) {
    chains.sim.Step();
  }
  benchmark::DoNotOptimize(chains.fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchSteady)->Arg(5000);

// The greedy read a LIP makes of the last distribution of each pred.
void BM_Argmax(benchmark::State& state) {
  const ModelConfig config = ModelConfig::Llama13B();
  std::vector<Distribution> dists;
  for (uint64_t i = 0; i < 4096; ++i) {
    dists.emplace_back(Mix64(i + 1), &config);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const Distribution& d : dists) {
      sum += static_cast<uint64_t>(d.Argmax());
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dists.size()));
}
BENCHMARK(BM_Argmax);

JournalEntry Pred(uint32_t first, size_t tokens) {
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kPred;
  entry.start = static_cast<int32_t>(first);
  for (size_t i = 0; i < tokens; ++i) {
    entry.tokens.push_back(static_cast<TokenId>(260 + (first + i) % 1000));
    entry.states.push_back(0x9e3779b97f4a7c15ULL * (first + i + 1));
  }
  return entry;
}

// 64 entries, about 13.5 KB encoded: a 600-token prompt pred, then three
// turns of one-token decode preds, each turn ending in a tool result that
// the next turn's 120-token observation pred consumes.
SyscallJournal AgentsFirstCheckpoint() {
  SyscallJournal journal;
  journal.name = "agent";
  uint32_t position = 0;
  journal.Append("0", Pred(position, 600));
  position += 600;
  const size_t decode_per_turn[] = {24, 24, 10};
  for (int turn = 0; turn < 3; ++turn) {
    if (turn > 0) {
      journal.Append("0", Pred(position, 120));
      position += 120;
    }
    for (size_t i = 0; i < decode_per_turn[turn]; ++i) {
      journal.Append("0", Pred(position++, 1));
    }
    JournalEntry tool;
    tool.kind = JournalEntry::Kind::kTool;
    tool.payload = "obs 1234567890123456789" + std::to_string(turn);
    journal.Append("0", tool);
  }
  return journal;
}

void BM_CheckpointJournal(benchmark::State& state) {
  const SyscallJournal base = AgentsFirstCheckpoint();
  SnapshotStore store;
  for (auto _ : state) {
    state.PauseTiming();
    SyscallJournal journal = base;
    state.ResumeTiming();
    StatusOr<CheckpointOutcome> fold =
        CheckpointJournal(store, /*replica=*/0, /*model_fingerprint=*/7,
                          journal);
    benchmark::DoNotOptimize(fold);
    (void)store.Release(journal.checkpoint_key());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(JournalLiveBytes(base)));
}
BENCHMARK(BM_CheckpointJournal);

void BM_JournalLiveBytes(benchmark::State& state) {
  const SyscallJournal journal = AgentsFirstCheckpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(JournalLiveBytes(journal));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalLiveBytes);

void BM_TopologyTransfer(benchmark::State& state) {
  Simulator sim;
  CostModel cost(ModelConfig::Llama13B());
  NetworkTopology topology(&sim, &cost, /*faults=*/nullptr, /*trace=*/nullptr,
                           /*replicas=*/4);
  const std::string label = "hb:replica0";
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.Transfer(0, 1, 64, label));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyTransfer);

}  // namespace
}  // namespace symphony

BENCHMARK_MAIN();
