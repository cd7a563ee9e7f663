// LipContext: the system-call surface a LIP programs against.
//
// This is the paper's LIP API (Figure 2): kv_* calls manage KV cache files,
// pred runs model computation, spawn/join provide threads, call_tool and
// send/recv provide external interaction and IPC. Asynchronous calls return
// awaitables (`co_await ctx.pred(...)`).
//
// Naming note: LIP-facing system calls deliberately use snake_case to mirror
// the paper's API (kv_open, pred, ...), the same way a libc surface would;
// everything behind the boundary follows the project's normal style.
#ifndef SRC_RUNTIME_LIP_CONTEXT_H_
#define SRC_RUNTIME_LIP_CONTEXT_H_

#include <coroutine>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/kvfs.h"
#include "src/model/distribution.h"
#include "src/runtime/pred_service.h"
#include "src/runtime/runtime.h"
#include "src/runtime/task.h"

namespace symphony {

class LipContext {
 public:
  LipContext(LipRuntime* runtime, LipId lip) : runtime_(runtime), lip_(lip) {}

  LipContext(const LipContext&) = delete;
  LipContext& operator=(const LipContext&) = delete;

  LipId id() const { return lip_; }
  SimTime now() const { return runtime_->simulator()->now(); }
  const Tokenizer& tokenizer() const { return *runtime_->tokenizer(); }

  // ---- KV cache file system calls (synchronous) ------------------------

  // Opens an existing KV file for reading (and optionally writing).
  StatusOr<KvHandle> kv_open(std::string_view path, bool write = false);

  // Creates (or opens) a named KV file for writing.
  StatusOr<KvHandle> kv_create(std::string_view path,
                               uint8_t mode = kModePrivate);

  // Creates an unnamed scratch file, reclaimed on close.
  StatusOr<KvHandle> kv_tmp();

  Status kv_close(KvHandle handle);
  Status kv_remove(std::string_view path);
  bool kv_exists(std::string_view path) const;

  // Copy-on-write clone of the file (shares pages until they diverge).
  StatusOr<KvHandle> kv_fork(KvHandle handle);

  // New file containing the records at `indices` (strictly increasing).
  StatusOr<KvHandle> kv_extract(KvHandle handle, std::span<const uint64_t> indices);

  // New file containing the concatenation of the sources.
  StatusOr<KvHandle> kv_merge(std::span<const KvHandle> handles);

  StatusOr<uint64_t> kv_len(KvHandle handle) const;
  StatusOr<TokenRecord> kv_read(KvHandle handle, uint64_t index);
  Status kv_truncate(KvHandle handle, uint64_t new_length);
  Status kv_lock(KvHandle handle);
  Status kv_unlock(KvHandle handle);
  Status kv_pin(KvHandle handle);
  Status kv_unpin(KvHandle handle);
  Status kv_link(KvHandle handle, std::string_view path);
  Status kv_chmod(KvHandle handle, uint8_t mode);

  // Moves the file's pages to host memory (application-directed placement,
  // e.g. before a long idle period). The next pred on the file restores it
  // on-device automatically, paying the PCIe transfer.
  Status kv_offload(KvHandle handle);

  // Metadata of an open file (length, residency, mode, owner, ...).
  StatusOr<KvFileInfo> kv_stat(KvHandle handle) const;

  // Names under `prefix` this LIP could open for reading.
  std::vector<std::string> kv_list(std::string_view prefix) const;

  // ---- Asynchronous system calls (co_await these) ----------------------

  class PredAwaitable {
   public:
    PredAwaitable(LipRuntime* runtime, KvHandle kv, std::vector<TokenId> tokens,
                  int32_t start, Status early_error)
        : runtime_(runtime), kv_(kv), tokens_(std::move(tokens)), start_(start) {
      if (!early_error.ok()) {
        result_.status = std::move(early_error);
        ready_ = true;
      }
    }
    bool await_ready() const { return ready_; }
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      runtime_->SubmitPred(runtime_->current_thread(), kv_, std::move(tokens_),
                           start_, &result_);
    }
    StatusOr<std::vector<Distribution>> await_resume() {
      if (!result_.status.ok()) {
        return result_.status;
      }
      return std::move(result_.dists);
    }

   private:
    LipRuntime* runtime_;
    KvHandle kv_;
    std::vector<TokenId> tokens_;
    int32_t start_;
    PredResult result_;
    bool ready_ = false;
  };

  // Appends `tokens` at the end of `kv`: token i goes at position
  // length + i, the only placement the scheduler accepts.
  PredAwaitable pred(KvHandle kv, std::vector<TokenId> tokens);

  // Single-token decode step.
  PredAwaitable pred1(KvHandle kv, TokenId token);

  // Variadic convenience: co_await ctx.pred_tokens(kv, 260, 261, 262).
  // Exists because GCC (through at least 12.x) cannot persist an
  // initializer-list array temporary across a co_await suspension point, so
  // `co_await ctx.pred(kv, {260, 261})` fails to compile; this form builds
  // the vector outside the coroutine's full expression.
  template <typename... Tokens>
  PredAwaitable pred_tokens(KvHandle kv, Tokens... tokens) {
    std::vector<TokenId> toks;
    toks.reserve(sizeof...(tokens));
    (toks.push_back(static_cast<TokenId>(tokens)), ...);
    return pred(kv, std::move(toks));
  }

  class SleepAwaitable {
   public:
    SleepAwaitable(LipRuntime* runtime, SimDuration duration)
        : runtime_(runtime), duration_(duration) {}
    bool await_ready() const { return duration_ <= 0; }
    void await_suspend(std::coroutine_handle<> frame);
    void await_resume() {}

   private:
    LipRuntime* runtime_;
    SimDuration duration_;
  };

  SleepAwaitable sleep(SimDuration duration) {
    return SleepAwaitable(runtime_, duration);
  }

  class ToolAwaitable {
   public:
    ToolAwaitable(LipRuntime* runtime, std::string tool, std::string args)
        : runtime_(runtime), tool_(std::move(tool)), args_(std::move(args)) {}
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      runtime_->SubmitTool(runtime_->current_thread(), tool_, args_, &result_);
    }
    StatusOr<std::string> await_resume() {
      if (!result_.status.ok()) {
        return result_.status;
      }
      return std::move(result_.output);
    }

   private:
    LipRuntime* runtime_;
    std::string tool_;
    std::string args_;
    ToolResult result_;
  };

  // Executes a function/tool call server-side (§2.2, §4.3): no client round
  // trip; the thread blocks and Symphony may offload its KV while waiting.
  ToolAwaitable call_tool(std::string tool, std::string args) {
    return ToolAwaitable(runtime_, std::move(tool), std::move(args));
  }

  // ---- Threads ----------------------------------------------------------

  ThreadId spawn(LipProgram program) {
    return runtime_->SpawnThread(lip_, std::move(program));
  }

  class JoinAwaitable {
   public:
    JoinAwaitable(LipRuntime* runtime, ThreadId target)
        : runtime_(runtime), target_(target) {}
    bool await_ready() const { return runtime_->ThreadDone(target_); }
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      runtime_->BlockCurrent();
      runtime_->AddJoiner(target_, runtime_->current_thread());
    }
    void await_resume() {}

   private:
    LipRuntime* runtime_;
    ThreadId target_;
  };

  JoinAwaitable join(ThreadId thread) { return JoinAwaitable(runtime_, thread); }

  class JoinAllAwaitable {
   public:
    JoinAllAwaitable(LipRuntime* runtime, LipId lip)
        : runtime_(runtime), lip_(lip) {}
    bool await_ready() const { return false; }  // Checked inside AddJoinAllWaiter.
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      runtime_->BlockCurrent();
      runtime_->AddJoinAllWaiter(lip_, runtime_->current_thread());
    }
    void await_resume() {}

   private:
    LipRuntime* runtime_;
    LipId lip_;
  };

  // Waits until every other thread in this LIP has finished.
  JoinAllAwaitable join_all() { return JoinAllAwaitable(runtime_, lip_); }

  class YieldAwaitable {
   public:
    explicit YieldAwaitable(LipRuntime* runtime) : runtime_(runtime) {}
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      ThreadId self = runtime_->current_thread();
      runtime_->BlockCurrent();
      runtime_->Ready(self);
    }
    void await_resume() {}

   private:
    LipRuntime* runtime_;
  };

  YieldAwaitable yield() { return YieldAwaitable(runtime_); }

  // ---- IPC ---------------------------------------------------------------

  // send is a (potentially) blocking syscall: on a credit-bounded channel
  // with no credits left the sender parks FIFO until the consumer frees one
  // (backpressure). await_ready completes the common case — an unbounded
  // channel, an available credit, or a replay-suppressed send — without
  // suspending. Dropping the awaitable without co_await silently skips the
  // send, hence [[nodiscard]] on the factory below.
  //
  // Toolchain caveat (applies to every awaitable here): GCC 12 double-
  // destroys conditional-operator temporaries inside a co_await operand, so
  // write `std::string m = c ? a : b; co_await ctx.send(ch, std::move(m));`
  // rather than passing the ternary directly.
  class SendAwaitable {
   public:
    SendAwaitable(LipRuntime* runtime, std::string channel, std::string message)
        : runtime_(runtime),
          channel_(std::move(channel)),
          message_(std::move(message)) {}
    bool await_ready() {
      return runtime_->ChannelTrySend(channel_, &message_);
    }
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      runtime_->BlockCurrent();
      runtime_->ChannelAddSendWaiter(channel_, runtime_->current_thread(),
                                     &message_);
    }
    void await_resume() {}

   private:
    LipRuntime* runtime_;
    std::string channel_;
    std::string message_;
  };

  [[nodiscard]] SendAwaitable send(std::string channel, std::string message) {
    return SendAwaitable(runtime_, std::move(channel), std::move(message));
  }

  class RecvAwaitable {
   public:
    RecvAwaitable(LipRuntime* runtime, std::string channel)
        : runtime_(runtime), channel_(std::move(channel)) {}
    bool await_ready() {
      ready_ = runtime_->ChannelTryRecv(channel_, &message_);
      return ready_;
    }
    void await_suspend(std::coroutine_handle<> frame) {
      runtime_->SetResumePoint(frame);
      runtime_->BlockCurrent();
      runtime_->ChannelAddWaiter(channel_, runtime_->current_thread(), &message_);
    }
    std::string await_resume() { return std::move(message_); }

   private:
    LipRuntime* runtime_;
    std::string channel_;
    std::string message_;
    bool ready_ = false;
  };

  RecvAwaitable recv(std::string channel) {
    return RecvAwaitable(runtime_, std::move(channel));
  }

  // ---- Misc ---------------------------------------------------------------

  // Appends to the LIP's output stream (the "print" of Figure 2).
  void emit(std::string_view text) { runtime_->Emit(lip_, text); }

  // Per-LIP deterministic randomness for sampling.
  double uniform() { return runtime_->LipRng(lip_).NextDouble(); }
  uint64_t rand64() { return runtime_->LipRng(lip_).NextU64(); }

  // This LIP's resource consumption so far (pred tokens, tool calls,
  // threads, KV pages).
  LipUsage usage() const { return runtime_->GetUsage(lip_); }

  LipRuntime* runtime_for_testing() { return runtime_; }

 private:
  // `handle`, tracked for closing at exit when the call returned one.
  StatusOr<KvHandle> Tracked(StatusOr<KvHandle> handle);

  LipRuntime* runtime_;
  LipId lip_;
};

}  // namespace symphony

#endif  // SRC_RUNTIME_LIP_CONTEXT_H_
