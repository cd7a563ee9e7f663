// Integration tests for SymphonyServer: full LIPs exercising pred + KVFS +
// tools + scheduling through the composed public API, including the
// Figure 2 program shape (parallel generation over a forked prefix) and the
// §4.3 offload-on-I/O policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/decode/samplers.h"
#include "src/serve/server.h"

namespace symphony {
namespace {

ServerOptions TinyOptions() {
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  return options;
}

TEST(ServerTest, QuickstartGreedyGeneration) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  std::string output;
  server.Launch("quickstart", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Argmax();
    for (int i = 0; i < 8 && next != kEosToken; ++i) {
      output += ctx.tokenizer().TokenToString(next) + " ";
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
      if (!d.ok()) {
        co_return;
      }
      next = d->back().Argmax();
    }
    co_return;
  });
  sim.Run();
  EXPECT_FALSE(output.empty());
}

// An exited LIP is reaped to its exit record: the runtime drops its journal
// and its threads' program closures, and LipDone, Output, DeadlineExpired,
// GetUsage and ThreadDone keep the values they had at exit.
TEST(ServerTest, FinishedLipKeepsOnlyItsExitRecord) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  LipRuntime& runtime = server.runtime();
  auto sentinel = std::make_shared<int>(1);
  std::weak_ptr<int> sentinel_ref = sentinel;
  ThreadId child = 0;
  struct ExitRecord {
    bool done = false;
    std::string output;
    bool expired = false;
    uint64_t pred_tokens = 0;
    bool child_done = false;
  };
  ExitRecord at_exit;
  auto record = [&](LipId lip) {
    return ExitRecord{runtime.LipDone(lip), runtime.Output(lip),
                      runtime.DeadlineExpired(lip),
                      runtime.GetUsage(lip).pred_tokens,
                      runtime.ThreadDone(child)};
  };
  LipId lip = server.Launch(
      "reaped",
      [sentinel = std::move(sentinel), &child](LipContext& ctx) -> Task {
        KvHandle kv = *ctx.kv_tmp();
        StatusOr<std::vector<Distribution>> d =
            co_await ctx.pred(kv, ctx.tokenizer().Encode("w1 w2 w3"));
        ctx.emit(d.ok() ? "pred " : "failed ");
        child = ctx.spawn([](LipContext& c) -> Task {
          co_await c.sleep(Millis(1));
          c.emit("child ");
        });
        co_await ctx.join(child);
        // The deadline fires meanwhile and closes `kv`.
        co_await ctx.sleep(Millis(50));
        StatusOr<std::vector<Distribution>> late =
            co_await ctx.pred1(*ctx.kv_tmp(), 5);
        ctx.emit(late.status().code() == StatusCode::kDeadlineExceeded
                     ? "expired"
                     : "live");
        ctx.emit(*sentinel == 1 ? "" : "?");
      },
      [&](LipId id) { at_exit = record(id); });
  auto journal = std::make_shared<SyscallJournal>();
  std::weak_ptr<SyscallJournal> journal_ref = journal;
  runtime.EnableJournal(lip, std::move(journal));
  runtime.SetDeadline(lip, Millis(30));
  sim.Run();

  EXPECT_TRUE(journal_ref.expired());
  EXPECT_TRUE(sentinel_ref.expired());
  EXPECT_EQ(runtime.Journal(lip), nullptr);
  EXPECT_EQ(runtime.live_lips(), 0u);
  EXPECT_TRUE(at_exit.done);
  EXPECT_EQ(at_exit.output, "pred child expired");
  EXPECT_TRUE(at_exit.expired);
  EXPECT_EQ(at_exit.pred_tokens, 3u);  // The rejected pred is not charged.
  EXPECT_TRUE(at_exit.child_done);
  ExitRecord now = record(lip);
  EXPECT_EQ(now.done, at_exit.done);
  EXPECT_EQ(now.output, at_exit.output);
  EXPECT_EQ(now.expired, at_exit.expired);
  EXPECT_EQ(now.pred_tokens, at_exit.pred_tokens);
  EXPECT_EQ(now.child_done, at_exit.child_done);
}

TEST(ServerTest, GenerationIsReproducible) {
  auto run_once = [] {
    Simulator sim;
    SymphonyServer server(&sim, TinyOptions());
    std::string output;
    server.Launch("repro", [&](LipContext& ctx) -> Task {
      KvHandle kv = *ctx.kv_tmp();
      std::vector<TokenId> prompt = ctx.tokenizer().Encode("w5 w6");
      StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
      if (!dists.ok()) {
        co_return;
      }
      SamplerConfig cfg;
      cfg.temperature = 0.8;
      TokenId next = SampleToken(dists->back(), cfg, ctx.uniform());
      for (int i = 0; i < 10 && next != kEosToken; ++i) {
        output += ctx.tokenizer().TokenToString(next);
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = SampleToken(d->back(), cfg, ctx.uniform());
      }
      co_return;
    });
    sim.Run();
    return output;
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ServerTest, Figure2ParallelGenerationSharedPrefix) {
  // The paper's example program: load a shared prefix, fork it per query,
  // generate in parallel threads, join.
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());

  int completed_branches = 0;
  uint64_t cow_copies_at_end = 0;
  server.Launch("fig2", [&](LipContext& ctx) -> Task {
    // Build the "system prompt" KV once.
    KvHandle prefix = *ctx.kv_create("/kv/sys_msg");
    std::vector<TokenId> sys = ctx.tokenizer().Encode("w0 w1 w2 w3 w4 w5");
    (void)co_await ctx.pred(prefix, sys);

    std::vector<std::vector<TokenId>> suffixes = {
        ctx.tokenizer().Encode("w10"), ctx.tokenizer().Encode("w11"),
        ctx.tokenizer().Encode("w12")};
    for (const std::vector<TokenId>& suffix : suffixes) {
      ctx.spawn([&, suffix](LipContext& inner) -> Task {
        StatusOr<KvHandle> kv = inner.kv_fork(prefix);
        if (!kv.ok()) {
          co_return;
        }
        StatusOr<std::vector<Distribution>> dists =
            co_await inner.pred(*kv, suffix);
        if (!dists.ok()) {
          co_return;
        }
        TokenId t = dists->back().Argmax();
        for (int step = 0; step < 6 && t != kEosToken; ++step) {
          StatusOr<std::vector<Distribution>> d = co_await inner.pred1(*kv, t);
          if (!d.ok()) {
            co_return;
          }
          t = d->back().Argmax();
        }
        ++completed_branches;
        co_return;
      });
    }
    co_await ctx.join_all();
    cow_copies_at_end = server.kvfs().pool().stats().cow_copies;
    co_return;
  });
  sim.Run();
  EXPECT_EQ(completed_branches, 3);
  // Branches shared the prefix pages; only divergent tails were copied.
  EXPECT_GT(cow_copies_at_end, 0u);
  EXPECT_LE(cow_copies_at_end, 3u);
}

TEST(ServerTest, ToolCallsRunServerSide) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Calculator("calc", Millis(2))).ok());
  std::string result;
  SimTime finished_at = 0;
  server.Launch("agent", [&](LipContext& ctx) -> Task {
    StatusOr<std::string> out = co_await ctx.call_tool("calc", "21 * 2");
    if (out.ok()) {
      result = *out;
    }
    finished_at = ctx.now();
    co_return;
  });
  sim.Run();
  EXPECT_EQ(result, "42");
  EXPECT_GE(finished_at, Millis(2));
}

TEST(ServerTest, SlowToolIoTriggersKvOffload) {
  Simulator sim;
  ServerOptions options = TinyOptions();
  options.offload_kv_on_tool_io = true;
  options.min_io_for_offload = Millis(5);
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("slow", Millis(50))).ok());

  server.Launch("io", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3 w4");
    (void)co_await ctx.pred(kv, prompt);
    (void)co_await ctx.call_tool("slow", "x");
    // KV was offloaded during the call; the next pred restores it.
    (void)co_await ctx.pred1(kv, 260);
    co_return;
  });
  sim.Run();
  EXPECT_GT(server.kvfs().stats().offloaded_pages, 0u);
  EXPECT_GT(server.kvfs().stats().restored_pages, 0u);
}

TEST(ServerTest, FastToolIoDoesNotOffload) {
  Simulator sim;
  ServerOptions options = TinyOptions();
  options.min_io_for_offload = Millis(5);
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("fast", Micros(100))).ok());
  server.Launch("io", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2");
    (void)co_await ctx.pred(kv, prompt);
    (void)co_await ctx.call_tool("fast", "x");
    co_return;
  });
  sim.Run();
  EXPECT_EQ(server.kvfs().stats().offloaded_pages, 0u);
}

TEST(ServerTest, MultiAgentIpcPipeline) {
  // Two LIPs cooperating through a channel: a "researcher" fetches and a
  // "writer" consumes, all server-side.
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Lookup("fetch", Millis(10))).ok());

  std::string writer_saw;
  server.Launch("researcher", [&](LipContext& ctx) -> Task {
    StatusOr<std::string> doc = co_await ctx.call_tool("fetch", "topic");
    // Named lvalue: GCC 12 double-destroys conditional-operator temporaries
    // inside a co_await operand (use-after-free in the delivered bytes).
    std::string findings = doc.ok() ? *doc : "error";
    co_await ctx.send("findings", std::move(findings));
    co_return;
  });
  server.Launch("writer", [&](LipContext& ctx) -> Task {
    writer_saw = co_await ctx.recv("findings");
    co_return;
  });
  sim.Run();
  EXPECT_EQ(writer_saw.substr(0, 3), "doc");
}

TEST(ServerTest, NamedKvPersistsAcrossLips) {
  // A LIP builds a named KV file; a later LIP reuses it without recompute.
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());

  uint64_t prefill_batches = 0;
  server.Launch("builder", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_create("/cache/doc", kModeShared);
    std::vector<TokenId> doc = ctx.tokenizer().Encode("w1 w2 w3 w4 w5 w6 w7 w8");
    (void)co_await ctx.pred(kv, doc);
    (void)ctx.kv_close(kv);
    co_return;
  });
  sim.Run();
  prefill_batches = server.device().stats().batches;

  uint64_t reuse_len = 0;
  server.Launch("reuser", [&](LipContext& ctx) -> Task {
    StatusOr<KvHandle> shared = ctx.kv_open("/cache/doc");
    if (!shared.ok()) {
      co_return;
    }
    StatusOr<KvHandle> mine = ctx.kv_fork(*shared);
    if (!mine.ok()) {
      co_return;
    }
    reuse_len = *ctx.kv_len(*mine);
    (void)co_await ctx.pred1(*mine, 260);
    co_return;
  });
  sim.Run();
  EXPECT_EQ(reuse_len, 8u);
  // Reuse needed exactly one more batch (the single decode step).
  EXPECT_EQ(server.device().stats().batches, prefill_batches + 1);
}

TEST(ServerTest, AclIsolatesTenants) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  Status intruder_status;
  server.Launch("tenant-a", [&](LipContext& ctx) -> Task {
    (void)ctx.kv_create("/private/a");  // kModePrivate by default.
    co_return;
  });
  sim.Run();
  server.Launch("tenant-b", [&](LipContext& ctx) -> Task {
    StatusOr<KvHandle> stolen = ctx.kv_open("/private/a");
    intruder_status = stolen.status();
    co_return;
  });
  sim.Run();
  EXPECT_EQ(intruder_status.code(), StatusCode::kPermissionDenied);
}

// ---- Channel digest ----------------------------------------------------

std::string ChannelName(uint64_t index) { return "ch" + std::to_string(index); }

// One seeded run of a standalone server's channels: 1–4 producers and 1–4
// consumers on 1–3 channels, each starting at a random instant in the first
// 2 ms. A producer sends 1–6 messages to random channels with a random pause
// after each; a consumer receives 1–5 times on random channels, so some
// receives are never satisfied; one consumer in four is detached at a random
// instant, often while parked. The delivery log, every LIP's done flag and
// output, the runtime's IPC and scheduling counters and the final time fold
// into one hash.
uint64_t ChannelDigest(uint64_t seed) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  Rng rng(seed);
  uint64_t digest = 0;
  auto fold = [&digest](uint64_t value) {
    digest = HashCombine(digest, value);
  };
  uint64_t producers = 1 + rng.NextBounded(4);
  uint64_t consumers = 1 + rng.NextBounded(4);
  uint64_t channels = 1 + rng.NextBounded(3);
  std::vector<LipId> lips(producers + consumers, kNoLip);
  auto launch_at = [&](size_t index, SimTime start, LipProgram program) {
    sim.ScheduleAt(start, [&server, &lips, index,
                           program = std::move(program)] {
      lips[index] = server.Launch("lip" + std::to_string(index), program);
    });
  };
  for (uint64_t p = 0; p < producers; ++p) {
    std::vector<std::pair<uint64_t, SimDuration>> sends(1 + rng.NextBounded(6));
    for (auto& [channel, pause] : sends) {
      channel = rng.NextBounded(channels);
      pause = rng.NextBounded(4) == 0
                  ? 0
                  : static_cast<SimDuration>(rng.NextBounded(Micros(500)));
    }
    SimTime start = static_cast<SimTime>(rng.NextBounded(Millis(2)));
    launch_at(p, start, [p, sends](LipContext& ctx) -> Task {
      for (size_t i = 0; i < sends.size(); ++i) {
        std::string message = "p" + std::to_string(p) + "." + std::to_string(i);
        co_await ctx.send(ChannelName(sends[i].first), std::move(message));
        co_await ctx.sleep(sends[i].second);
      }
    });
  }
  for (uint64_t c = 0; c < consumers; ++c) {
    std::vector<uint64_t> recvs(1 + rng.NextBounded(5));
    for (uint64_t& channel : recvs) {
      channel = rng.NextBounded(channels);
    }
    size_t index = producers + c;
    SimTime start = static_cast<SimTime>(rng.NextBounded(Millis(2)));
    launch_at(index, start, [&fold, c, recvs](LipContext& ctx) -> Task {
      for (uint64_t channel : recvs) {
        std::string message = co_await ctx.recv(ChannelName(channel));
        fold(c);
        fold(channel);
        fold(Fnv1a(message));
        fold(static_cast<uint64_t>(ctx.now()));
        ctx.emit(message + ";");
      }
    });
    if (rng.NextBounded(4) == 0) {
      // Scheduled after the launch, so the LIP exists even at its start.
      SimTime detach_at =
          start + static_cast<SimTime>(rng.NextBounded(Millis(3)));
      sim.ScheduleAt(detach_at, [&server, &lips, &fold, index] {
        fold(static_cast<uint64_t>(
            server.runtime().Detach(lips[index]).code()));
      });
    }
  }
  sim.Run();
  for (LipId lip : lips) {
    fold(server.runtime().LipDone(lip) ? 1 : 0);
    fold(Fnv1a(server.runtime().Output(lip)));
  }
  const RuntimeStats& stats = server.runtime().stats();
  fold(stats.ipc_messages);
  fold(stats.context_switches);
  fold(stats.lips_completed);
  fold(static_cast<uint64_t>(sim.now()));
  return digest;
}

// Pins a standalone server's channel semantics: FIFO delivery, FIFO waiters,
// messages queued before their first receiver, receives that never complete,
// and detached consumers whose parked receives must not swallow a message.
// The expected value was recorded while a standalone runtime kept its own
// channel table; which implementation serves the channels may change, what
// they deliver may not.
TEST(ChannelDigestTest, MatchesParent) {
  uint64_t digest = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    digest = HashCombine(digest, ChannelDigest(seed));
  }
  EXPECT_EQ(digest, 0x436774c50272a425ULL);
}

}  // namespace
}  // namespace symphony
