// `agents`: multi-turn tool-calling agents on 4 Llama-13B/A100 replicas with
// recovery, journal checkpointing and the control plane on, routed to the
// least-loaded replica. Each agent prefills ~600 tokens and runs three
// turns: ~24 decode tokens, a server-side lookup (lognormal, ~80 ms), then
// ~120 observation tokens; a final ~24-token answer follows the last turn.
// A share of the tasks are planner/worker pairs: the planner's first turn
// hands its plan to a worker LIP over cluster IPC instead of a tool. One
// replica crashes silently mid-run and heals later; the control plane
// detects it, fails its LIPs over by replay, and readmits it. An operator
// loop snapshots the cluster every 100 virtual ms. Load stays below what
// the fleet serves with one replica down.
//
// The only workload that writes journals all the time, replays them,
// moves bytes over the topology, and exercises tools and ctrl.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace symphony {
namespace perfbench {
namespace {

constexpr size_t kReplicas = 4;
constexpr double kRatePerS = 6.0;
constexpr double kWindowS = 170.0;
constexpr double kGuardWindows = 3.0;
constexpr double kPairShare = 0.2;
constexpr int kTurns = 3;
constexpr size_t kCrashReplica = 1;
constexpr double kCrashAtS = 60.0;
constexpr double kDownForS = 20.0;
constexpr int64_t kSnapshotPeriodMs = 100;
constexpr int64_t kToolMedianMs = 80;
constexpr double kToolSigma = 0.5;
constexpr int kPreambleTokens = 64;
constexpr Limits kLimits{/*ttft_ms=*/200.0, /*mean_itl_ms=*/25.0};

struct TaskSpec {
  bool pair = false;
  std::vector<TokenId> prompt;
  std::array<uint32_t, kTurns + 1> generate{};  // Per turn; [0] before turn 1.
  uint32_t worker_generate = 0;
};

struct AgentsState {
  uint64_t seed = 0;
  uint32_t vocab = 0;
  std::vector<TokenId> preamble;  // The worker's instructions.
  std::vector<TaskSpec> tasks;
  std::vector<Request> requests;
  std::vector<SimDuration> tool_waits;  // [request * kTurns + turn - 1]; -1 unset.
  size_t finished = 0;
};

std::string ToolArgs(uint64_t seed, size_t id, int turn) {
  std::string args = "s";
  args += std::to_string(seed);
  args += ".t";
  args += std::to_string(id);
  args += ".k";
  args += std::to_string(turn);
  return args;
}

// The lookup tool's answer: a pure function of its arguments, so the output
// check can re-derive every observation.
std::string ToolOutput(const std::string& args) {
  return "obs " + std::to_string(Mix64(Fnv1a(args)));
}

std::vector<TokenId> ObservationTokens(const std::string& output, uint32_t vocab) {
  uint64_t h = Fnv1a(output);
  size_t n = 96 + h % 49;
  std::vector<TokenId> tokens;
  for (size_t i = 0; i < n; ++i) {
    h = Mix64(h + i + 1);
    tokens.push_back(WordToken(h, vocab));
  }
  return tokens;
}

std::string Channel(size_t id, const char* what) {
  std::string channel = "task";
  channel += std::to_string(id);
  channel += '.';
  channel += what;
  return channel;
}

std::string Encode(const std::vector<TokenId>& tokens, size_t n) {
  std::string out;
  for (size_t i = 0; i < n && i < tokens.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(tokens[i]);
  }
  return out;
}

std::vector<TokenId> Decode(const std::string& message) {
  std::vector<TokenId> tokens;
  size_t start = 0;
  while (start < message.size()) {
    size_t end = message.find(',', start);
    if (end == std::string::npos) {
      end = message.size();
    }
    tokens.push_back(static_cast<TokenId>(std::stol(message.substr(start, end - start))));
    start = end + 1;
  }
  return tokens;
}

std::vector<TokenId> WorkerInput(const AgentsState& state,
                                 const std::vector<TokenId>& plan) {
  std::vector<TokenId> input = state.preamble;
  input.insert(input.end(), plan.begin(), plan.end());
  return input;
}

LipProgram MakeAgent(AgentsState* state, size_t id) {
  return [state, id](LipContext& ctx) -> Task {
    Stream& stream = state->requests[id].streams[0];
    ++stream.incarnations;
    NoteResume(id);
    const TaskSpec& task = state->tasks[id];
    StatusOr<KvHandle> kv = Timed(Layer::kKvfs, [&] { return ctx.kv_tmp(); });
    if (!kv.ok()) {
      co_return;
    }
    Cursor cursor{id, &stream};
    std::vector<Piece> first(1);
    first[0].input = task.prompt;
    first[0].generate = task.generate[0];
    Status status = co_await RunPieces(ctx, *kv, std::move(first), &cursor, false);
    for (int turn = 1; turn <= kTurns && status.ok(); ++turn) {
      std::vector<Piece> next(1);
      next[0].generate = task.generate[turn];
      if (turn == 1 && task.pair) {
        // Hand the plan to the worker and wait for its result.
        std::string plan_channel = Channel(id, "plan");
        std::string plan = Encode(stream.tokens, task.generate[0]);
        co_await ctx.send(plan_channel, std::move(plan));
        std::string result_channel = Channel(id, "result");
        std::string result = co_await ctx.recv(result_channel);
        NoteResume(id);
        next[0].input = Decode(result);
      } else {
        std::string args = ToolArgs(state->seed, id, turn);
        SimTime asked = ctx.now();
        StatusOr<std::string> output = co_await ctx.call_tool("search", args);
        NoteResume(id);
        SimDuration& wait = state->tool_waits[id * kTurns + turn - 1];
        if (wait < 0) {
          wait = ctx.now() - asked;
        }
        if (!output.ok()) {
          status = output.status();
          break;
        }
        next[0].input = ObservationTokens(*output, state->vocab);
      }
      status = co_await RunPieces(ctx, *kv, std::move(next), &cursor, true);
    }
    (void)Timed(Layer::kKvfs, [&] { return ctx.kv_close(*kv); });
    stream.finished = status.ok();
  };
}

LipProgram MakeWorker(AgentsState* state, size_t id) {
  return [state, id](LipContext& ctx) -> Task {
    Stream& stream = state->requests[id].streams[1];
    ++stream.incarnations;
    NoteResume(id);
    std::string plan_channel = Channel(id, "plan");
    std::string plan = co_await ctx.recv(plan_channel);
    NoteResume(id);
    StatusOr<KvHandle> kv = Timed(Layer::kKvfs, [&] { return ctx.kv_tmp(); });
    if (!kv.ok()) {
      co_return;
    }
    Cursor cursor{id, &stream};
    std::vector<Piece> work(1);
    work[0].input = WorkerInput(*state, Decode(plan));
    work[0].generate = state->tasks[id].worker_generate;
    Status status = co_await RunPieces(ctx, *kv, std::move(work), &cursor, false);
    if (status.ok()) {
      std::string result_channel = Channel(id, "result");
      std::string result = Encode(stream.tokens, state->tasks[id].worker_generate);
      co_await ctx.send(result_channel, std::move(result));
    }
    (void)Timed(Layer::kKvfs, [&] { return ctx.kv_close(*kv); });
    stream.finished = status.ok();
  };
}

ToolSpec LookupTool() {
  ToolSpec spec;
  spec.name = "search";
  spec.description = "lognormal-latency lookup whose answer depends only on its args";
  spec.handler = [](const std::string& args, Rng& rng) {
    return Timed(Layer::kTool, [&] {
      double factor = std::exp(kToolSigma * rng.NextGaussian());
      SimDuration latency = static_cast<SimDuration>(
          static_cast<double>(Millis(kToolMedianMs)) * factor);
      return ToolInvocation{latency, Status::Ok(), ToolOutput(args)};
    });
  };
  return spec;
}

}  // namespace

int RunAgents(const RunOptions& options) {
  Report report;
  report.workload = "agents";
  report.seed = options.seed;
  report.traced = options.trace;
  report.window_s = kWindowS;
  report.guard_s = kWindowS * kGuardWindows;

  Simulator sim;
  TraceRecorder trace;
  // Declared before the cluster, which runs LIPs that point into them.
  AgentsState state;
  FaultPlan faults(options.seed);
  faults.CrashReplicaAt(kCrashReplica, DurationFromSeconds(kCrashAtS),
                        DurationFromSeconds(kDownForS));
  Fleet fleet;
  ClusterOptions cluster_options;
  cluster_options.replicas = kReplicas;
  cluster_options.routing = RoutingPolicy::kLeastLoaded;
  cluster_options.enable_recovery = true;
  cluster_options.checkpoint_journals = true;
  cluster_options.ctrl.enabled = true;
  cluster_options.server.fault_plan = &faults;
  if (options.trace) {
    cluster_options.server.trace = &trace;
  }
  cluster_options.configure_replica = [&fleet](SymphonyServer& server, size_t slot) {
    (void)server.tools().Register(LookupTool());
    fleet.Add(server, slot);
  };
  SymphonyCluster cluster(&sim, cluster_options);

  state.seed = options.seed;
  state.vocab = cluster_options.server.model.vocab_size;
  Rng inputs(Mix64(options.seed ^ 0xa6e17ULL));
  for (int i = 0; i < kPreambleTokens; ++i) {
    state.preamble.push_back(WordToken(inputs.NextU64(), state.vocab));
  }
  std::vector<SimTime> due =
      PoissonArrivals(Mix64(options.seed ^ 0xa441ULL), kRatePerS, kWindowS);
  // Exactly kPairShare of the tasks are pairs, at seeded positions, so the
  // offered work does not drift with the seed.
  std::vector<uint8_t> pair(due.size(), 0);
  std::fill_n(pair.begin(), std::llround(kPairShare * static_cast<double>(due.size())), 1);
  for (size_t i = pair.size(); i > 1; --i) {
    std::swap(pair[i - 1], pair[inputs.NextBounded(i)]);
  }
  for (size_t i = 0; i < due.size(); ++i) {
    TaskSpec task;
    task.pair = pair[i] != 0;
    size_t prompt = 480 + inputs.NextBounded(241);
    for (size_t t = 0; t < prompt; ++t) {
      task.prompt.push_back(WordToken(inputs.NextU64(), state.vocab));
    }
    for (uint32_t& n : task.generate) {
      n = 18 + static_cast<uint32_t>(inputs.NextBounded(13));
    }
    task.worker_generate = 18 + static_cast<uint32_t>(inputs.NextBounded(13));
    state.tasks.push_back(std::move(task));
  }
  state.requests.resize(due.size());
  state.tool_waits.assign(due.size() * kTurns, -1);
  for (size_t i = 0; i < due.size(); ++i) {
    Request& request = state.requests[i];
    request.due = due[i];
    request.streams.resize(state.tasks[i].pair ? 2 : 1);
    sim.ScheduleAt(due[i], [&, i] {
      probe().Mark(kArrival);
      state.requests[i].launched = sim.now();
      for (size_t s = 0; s < state.requests[i].streams.size(); ++s) {
        LipProgram program = s == 0 ? MakeAgent(&state, i) : MakeWorker(&state, i);
        std::string name = "task" + std::to_string(i);
        if (s == 1) {
          name += ".worker";
        }
        Timed(Layer::kLaunch, [&] {
          cluster.Launch(std::move(name), "", std::move(program), [&state, &sim, i, s](LipId) {
                           Request& r = state.requests[i];
                           r.NoteExit(s, sim.now());
                           if (r.exit >= 0) {
                             ++state.finished;
                           }
                         });
        });
      }
    });
  }
  std::function<void()> operator_tick = [&] {
    probe().Mark(kOperator);
    Timed(Layer::kSnapshot, [&] { (void)cluster.Snapshot(); });
    if (state.finished < state.requests.size()) {
      sim.ScheduleAfter(Millis(kSnapshotPeriodMs), operator_tick);
    }
  };
  sim.ScheduleAt(Millis(kSnapshotPeriodMs), operator_tick);

  if (!Drive(report, sim, fleet, options)) {
    return 0;
  }
  report.e2e = Summarize(state.requests, kLimits, DurationFromSeconds(kWindowS));
  report.output_mismatches = CheckOutputs(
      cluster.replica(0).model(), state.requests, [&](size_t i, size_t s) {
        const TaskSpec& task = state.tasks[i];
        const Request& r = state.requests[i];
        if (s == 1) {
          std::vector<TokenId> plan(r.streams[0].tokens.begin(),
                                    r.streams[0].tokens.begin() + task.generate[0]);
          return std::vector<Piece>{Piece{WorkerInput(state, plan), task.worker_generate}};
        }
        std::vector<Piece> script{Piece{task.prompt, task.generate[0]}};
        for (int turn = 1; turn <= kTurns; ++turn) {
          std::vector<TokenId> input =
              turn == 1 && task.pair
                  ? r.streams[1].tokens
                  : ObservationTokens(ToolOutput(ToolArgs(state.seed, i, turn)),
                                      state.vocab);
          script.push_back(Piece{std::move(input), task.generate[turn]});
        }
        return script;
      });
  AddLayerMetrics(report, fleet, &cluster, state.requests);
  std::vector<double> waits;
  for (SimDuration w : state.tool_waits) {
    if (w >= 0) {
      waits.push_back(ToMillis(w));
    }
  }
  report.layers["tools.wait_p99_ms"] = Percentile(waits, 0.99);

  // Phases around the crash, by due time.
  const ControlPlaneStats& ctrl = cluster.control_plane()->stats();
  SimTime crash_at = DurationFromSeconds(kCrashAtS);
  SimTime readmit_at = ctrl.last_readmission_at;
  if (ctrl.dead_declared == 0 || ctrl.readmissions == 0) {
    report.errors.push_back("the crashed replica was not detected and readmitted");
  }
  report.phases = {{"before_crash"}, {"crash_to_readmission"}, {"after_readmission"}};
  for (const Request& r : state.requests) {
    Phase& phase = report.phases[r.due < crash_at                       ? 0
                                 : readmit_at < 0 || r.due < readmit_at ? 1
                                                                        : 2];
    ++phase.offered;
    phase.succeeded += r.Succeeded() ? 1 : 0;
    phase.failed += r.Finished() && !r.Succeeded() ? 1 : 0;
  }
  report.notes["ctrl.readmitted_at_s"] = ToSeconds(readmit_at);
  report.notes["serve.snapshot_lips_completed"] =
      static_cast<double>(cluster.Snapshot().lips_completed);
  WriteTraces(options.trace_dir, report, trace);
  return Finish(report, state.requests);
}

}  // namespace perfbench
}  // namespace symphony
