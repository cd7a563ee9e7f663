// Tests for the LIP runtime: launch/exit lifecycle, threads (spawn, join,
// join_all, yield), sleep, IPC channels, kv syscalls through LipContext, and
// process-exit resource cleanup.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/kvfs/kvfs.h"
#include "src/model/cost_model.h"
#include "src/net/ipc_fabric.h"
#include "src/runtime/lip_context.h"
#include "src/runtime/runtime.h"
#include "src/sim/event_queue.h"

namespace symphony {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : kvfs_(MakeKvfsOptions()),
        fabric_(&sim_, &cost_, nullptr, nullptr),
        runtime_(&sim_, &kvfs_) {
    fabric_.AttachReplica(0, &runtime_);
  }

  static KvfsOptions MakeKvfsOptions() {
    KvfsOptions o;
    o.gpu_page_budget = 64;
    o.host_page_budget = 64;
    return o;
  }

  Simulator sim_;
  Kvfs kvfs_;
  // Channel syscalls go through a fabric; one replica never transfers.
  CostModel cost_{ModelConfig::Tiny()};
  IpcFabric fabric_;
  LipRuntime runtime_;
};

TEST_F(RuntimeTest, LaunchRunsToCompletion) {
  LipId lip = runtime_.Launch("hello", [](LipContext& ctx) -> Task {
    ctx.emit("hello world");
    co_return;
  });
  EXPECT_FALSE(runtime_.LipDone(lip));
  sim_.Run();
  EXPECT_TRUE(runtime_.LipDone(lip));
  EXPECT_EQ(runtime_.Output(lip), "hello world");
  EXPECT_EQ(runtime_.live_lips(), 0u);
  EXPECT_EQ(runtime_.stats().lips_completed, 1u);
}

TEST_F(RuntimeTest, OnExitCallbackFires) {
  bool exited = false;
  LipId expected = runtime_.Launch(
      "cb", [](LipContext&) -> Task { co_return; },
      [&](LipId lip_arg) {
        exited = true;
        EXPECT_EQ(lip_arg, 2u);  // First lip id after kAdminLip.
        (void)lip_arg;
      });
  (void)expected;
  sim_.Run();
  EXPECT_TRUE(exited);
}

TEST_F(RuntimeTest, SleepAdvancesVirtualTime) {
  SimTime woke_at = -1;
  LipId lip = runtime_.Launch("sleeper", [&](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(250));
    woke_at = ctx.now();
    co_return;
  });
  (void)lip;
  sim_.Run();
  EXPECT_GE(woke_at, Millis(250));
  EXPECT_LT(woke_at, Millis(251));
}

TEST_F(RuntimeTest, SpawnAndJoin) {
  std::vector<int> order;
  runtime_.Launch("parent", [&](LipContext& ctx) -> Task {
    ThreadId child = ctx.spawn([&](LipContext& inner) -> Task {
      co_await inner.sleep(Millis(10));
      order.push_back(1);
      co_return;
    });
    co_await ctx.join(child);
    order.push_back(2);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(runtime_.stats().threads_spawned, 2u);
}

TEST_F(RuntimeTest, JoinFinishedThreadIsImmediate) {
  bool done = false;
  runtime_.Launch("parent", [&](LipContext& ctx) -> Task {
    ThreadId child = ctx.spawn([](LipContext&) -> Task { co_return; });
    co_await ctx.sleep(Millis(5));  // Child finishes long before.
    co_await ctx.join(child);
    // A second child takes the first one's freed slot, and the first id
    // still reads as finished while the second is alive.
    ThreadId second = ctx.spawn([](LipContext& inner) -> Task {
      co_await inner.sleep(Millis(5));
    });
    EXPECT_NE(second, child);
    EXPECT_TRUE(runtime_.ThreadDone(child));
    EXPECT_FALSE(runtime_.ThreadDone(second));
    const SimTime before = ctx.now();
    co_await ctx.join(child);
    EXPECT_EQ(ctx.now(), before);
    co_await ctx.join(second);
    EXPECT_GE(ctx.now(), before + Millis(5));
    done = true;
    co_return;
  });
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(RuntimeTest, JoinAllWaitsForEveryChild) {
  int finished_children = 0;
  bool parent_resumed_after_all = false;
  runtime_.Launch("parent", [&](LipContext& ctx) -> Task {
    for (int i = 1; i <= 5; ++i) {
      ctx.spawn([&, i](LipContext& inner) -> Task {
        co_await inner.sleep(Millis(i * 10));
        ++finished_children;
        co_return;
      });
    }
    co_await ctx.join_all();
    parent_resumed_after_all = (finished_children == 5);
    co_return;
  });
  sim_.Run();
  EXPECT_TRUE(parent_resumed_after_all);
}

TEST_F(RuntimeTest, ProcessEndsWhenAllThreadsEnd) {
  // Main returns immediately; a detached child keeps the process alive.
  SimTime exit_time = -1;
  LipId lip = runtime_.Launch(
      "detached",
      [&](LipContext& ctx) -> Task {
        ctx.spawn([](LipContext& inner) -> Task {
          co_await inner.sleep(Millis(100));
          co_return;
        });
        co_return;  // Main exits first.
      },
      [&](LipId) { exit_time = sim_.now(); });
  (void)lip;
  sim_.Run();
  EXPECT_GE(exit_time, Millis(100));
}

TEST_F(RuntimeTest, YieldInterleavesThreads) {
  std::string trace;
  runtime_.Launch("interleave", [&](LipContext& ctx) -> Task {
    ThreadId a = ctx.spawn([&](LipContext& inner) -> Task {
      trace += 'a';
      co_await inner.yield();
      trace += 'A';
      co_return;
    });
    ThreadId b = ctx.spawn([&](LipContext& inner) -> Task {
      trace += 'b';
      co_await inner.yield();
      trace += 'B';
      co_return;
    });
    co_await ctx.join(a);
    co_await ctx.join(b);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(trace, "abAB");  // FIFO interleaving, not aAbB.
}

TEST_F(RuntimeTest, ChannelSendThenRecv) {
  std::string got;
  runtime_.Launch("producer", [&](LipContext& ctx) -> Task {
    co_await ctx.send("chan", "payload");
    co_return;
  });
  runtime_.Launch("consumer", [&](LipContext& ctx) -> Task {
    got = co_await ctx.recv("chan");
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(got, "payload");
}

TEST_F(RuntimeTest, ChannelRecvBlocksUntilSend) {
  std::string got;
  SimTime recv_time = -1;
  runtime_.Launch("consumer", [&](LipContext& ctx) -> Task {
    got = co_await ctx.recv("late");
    recv_time = ctx.now();
    co_return;
  });
  runtime_.Launch("producer", [&](LipContext& ctx) -> Task {
    co_await ctx.sleep(Millis(40));
    co_await ctx.send("late", "eventually");
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(got, "eventually");
  EXPECT_GE(recv_time, Millis(40));
}

TEST_F(RuntimeTest, ChannelFifoAcrossMessages) {
  std::vector<std::string> got;
  runtime_.Launch("producer", [&](LipContext& ctx) -> Task {
    co_await ctx.send("q", "one");
    co_await ctx.send("q", "two");
    co_await ctx.send("q", "three");
    co_return;
  });
  runtime_.Launch("consumer", [&](LipContext& ctx) -> Task {
    for (int i = 0; i < 3; ++i) {
      got.push_back(co_await ctx.recv("q"));
    }
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(RuntimeTest, KvSyscallsThroughContext) {
  Status result;
  runtime_.Launch("kvuser", [&](LipContext& ctx) -> Task {
    StatusOr<KvHandle> h = ctx.kv_create("/kv/mine");
    if (!h.ok()) {
      result = h.status();
      co_return;
    }
    std::vector<TokenRecord> recs;
    for (int i = 0; i < 5; ++i) {
      recs.push_back(TokenRecord{static_cast<TokenId>(300 + i), i, 77u});
    }
    Status append = ctx.runtime_for_testing()->kvfs()->Append(*h, recs);
    if (!append.ok()) {
      result = append;
      co_return;
    }
    StatusOr<uint64_t> len = ctx.kv_len(*h);
    if (!len.ok() || *len != 5) {
      result = InternalError("bad length");
      co_return;
    }
    result = ctx.kv_close(*h);
    co_return;
  });
  sim_.Run();
  EXPECT_TRUE(result.ok()) << result;
  EXPECT_TRUE(kvfs_.Exists("/kv/mine"));
}

TEST_F(RuntimeTest, ProcessExitClosesLeakedHandles) {
  runtime_.Launch("leaker", [&](LipContext& ctx) -> Task {
    StatusOr<KvHandle> tmp = ctx.kv_tmp();  // Anonymous, never closed.
    (void)tmp;
    co_return;
  });
  sim_.Run();
  // The anonymous file was reclaimed at exit: all pages free, no live files
  // other than none.
  EXPECT_EQ(kvfs_.pool().stats().gpu_pages_used, 0u);
  EXPECT_TRUE(kvfs_.ListAll().empty());
}

TEST_F(RuntimeTest, ForkThroughContextIsCow) {
  uint64_t pages_after_fork = 0;
  runtime_.Launch("forker", [&](LipContext& ctx) -> Task {
    KvHandle base = *ctx.kv_create("/kv/base");
    std::vector<TokenRecord> recs(20, TokenRecord{300, 0, 1u});
    for (int i = 0; i < 20; ++i) {
      recs[static_cast<size_t>(i)].position = i;
    }
    (void)runtime_.kvfs()->Append(base, recs);
    StatusOr<KvHandle> fork = ctx.kv_fork(base);
    pages_after_fork = kvfs_.pool().stats().gpu_pages_used;
    (void)fork;
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(pages_after_fork, 2u);  // 20 tokens = 2 pages, shared by fork.
}

TEST_F(RuntimeTest, KvStatReportsThroughContext) {
  KvFileInfo info;
  runtime_.Launch("stat", [&](LipContext& ctx) -> Task {
    KvHandle h = *ctx.kv_create("/kv/statme", kModeShared);
    std::vector<TokenRecord> recs(5);
    for (int i = 0; i < 5; ++i) {
      recs[static_cast<size_t>(i)] = TokenRecord{260, i, 1u};
    }
    (void)ctx.runtime_for_testing()->kvfs()->Append(h, recs);
    info = *ctx.kv_stat(h);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(info.path, "/kv/statme");
  EXPECT_EQ(info.length, 5u);
  EXPECT_EQ(info.mode, kModeShared);
}

TEST_F(RuntimeTest, KvListFiltersByReadability) {
  std::vector<std::string> alice_sees;
  std::vector<std::string> bob_sees;
  runtime_.Launch("alice", [&](LipContext& ctx) -> Task {
    (void)ctx.kv_create("/kv/private", kModePrivate);
    (void)ctx.kv_create("/kv/shared", kModeShared);
    co_await ctx.send("ready", "go");
    alice_sees = ctx.kv_list("/kv/");
    co_return;
  });
  runtime_.Launch("bob", [&](LipContext& ctx) -> Task {
    (void)co_await ctx.recv("ready");
    bob_sees = ctx.kv_list("/kv/");
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(alice_sees,
            (std::vector<std::string>{"/kv/private", "/kv/shared"}));
  EXPECT_EQ(bob_sees, (std::vector<std::string>{"/kv/shared"}));
}

TEST_F(RuntimeTest, PredWithoutServiceFails) {
  Status pred_status;
  runtime_.Launch("nopred", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred1(kv, 300);
    pred_status = dists.status();
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(pred_status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, PredEmptyTokensFailsEarly) {
  Status pred_status;
  runtime_.Launch("empty", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, std::vector<TokenId>{});
    pred_status = dists.status();
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(pred_status.code(), StatusCode::kInvalidArgument);
}

TEST_F(RuntimeTest, ToolWithoutServiceFails) {
  Status tool_status;
  runtime_.Launch("notool", [&](LipContext& ctx) -> Task {
    StatusOr<std::string> out = co_await ctx.call_tool("weather", "nyc");
    tool_status = out.status();
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(tool_status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, LipRngIsDeterministicPerLip) {
  std::vector<uint64_t> first_run;
  std::vector<uint64_t> second_run;
  auto program = [](std::vector<uint64_t>* out) {
    return [out](LipContext& ctx) -> Task {
      for (int i = 0; i < 4; ++i) {
        out->push_back(ctx.rand64());
      }
      co_return;
    };
  };
  runtime_.Launch("rng", program(&first_run));
  sim_.Run();

  Simulator sim2;
  Kvfs kvfs2(MakeKvfsOptions());
  LipRuntime runtime2(&sim2, &kvfs2);
  runtime2.Launch("rng", program(&second_run));
  sim2.Run();

  EXPECT_EQ(first_run, second_run);
}

TEST_F(RuntimeTest, ResumeOverheadChargesTime) {
  Simulator sim2;
  Kvfs kvfs2(MakeKvfsOptions());
  RuntimeOptions options;
  options.resume_overhead = Millis(1);
  LipRuntime runtime2(&sim2, &kvfs2, options);
  runtime2.Launch("spinner", [](LipContext& ctx) -> Task {
    for (int i = 0; i < 9; ++i) {
      co_await ctx.yield();
    }
    co_return;
  });
  sim2.Run();
  // 1 initial resume + 9 yields = 10 resumes at 1ms each.
  EXPECT_EQ(sim2.now(), Millis(10));
}

TEST_F(RuntimeTest, ManyLipsAllComplete) {
  constexpr int kLips = 200;
  for (int i = 0; i < kLips; ++i) {
    runtime_.Launch("worker", [i](LipContext& ctx) -> Task {
      co_await ctx.sleep(Millis(i % 17));
      ctx.emit("x");
      co_return;
    });
  }
  sim_.Run();
  EXPECT_EQ(runtime_.stats().lips_completed, static_cast<uint64_t>(kLips));
  EXPECT_EQ(runtime_.live_lips(), 0u);
}

}  // namespace
}  // namespace symphony
