#include "src/serve/server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/hash.h"
#include "src/net/ipc_fabric.h"

namespace symphony {

namespace {

// Tool retry backoff cap and jitter (see ToolRetryOptions).
constexpr SimDuration kToolBackoffCap = Millis(500);
constexpr double kToolBackoffJitter = 0.2;
// EWMA smoothing for the per-LIP service-time estimate (admission).
constexpr double kServiceEwmaAlpha = 0.2;

std::unique_ptr<BatchPolicy> MakePolicy(const ServerOptions& options) {
  switch (options.batch_policy) {
    case BatchPolicyKind::kEager:
      return std::make_unique<EagerPolicy>();
    case BatchPolicyKind::kSizeTimeout:
      return std::make_unique<SizeTimeoutPolicy>(options.batch_target_size,
                                                 options.batch_timeout);
    case BatchPolicyKind::kPoissonAdaptive:
      return std::make_unique<PoissonAdaptivePolicy>(options.batch_max_wait);
  }
  return std::make_unique<EagerPolicy>();
}

KvfsOptions MakeKvfsOptions(const ServerOptions& options, Simulator* sim,
                            const CostModel& cost) {
  KvfsOptions kv;
  uint64_t page_bytes =
      static_cast<uint64_t>(kPageTokens) * options.model.KvBytesPerToken();
  kv.gpu_page_budget = cost.DeviceKvBudgetBytes() / page_bytes;
  kv.host_page_budget = options.hardware.host_bytes / page_bytes;
  kv.eviction = options.eviction;
  kv.clock = [sim] { return sim->now(); };
  return kv;
}

}  // namespace

// Executes tools from the registry with the full failure-semantics stack:
// per-tool circuit breaker, injected faults (FaultPlan), per-attempt
// timeouts, and exponential-backoff retries of transient failures. While a
// LIP waits out a slow call its KV files are offloaded to host memory (§4.3)
// and restored lazily by the next pred. Only the final result of the loop
// reaches the runtime (and thus the syscall journal), so a recovered LIP
// replays exactly the failures it observed.
class SymphonyServer::ServerToolService : public ToolService {
 public:
  ServerToolService(SymphonyServer* server)
      : server_(server),
        jitter_rng_(Mix64(server->options_.tool_seed ^ 0x7e7a11ULL)) {}

  void Invoke(LipId lip, ThreadId thread, const std::string& tool,
              const std::string& args,
              std::function<void(ToolResult)> complete) override {
    (void)thread;
    // The calling LIP's tool-call ordinal (the runtime charges usage before
    // invoking us): the replay-invariant identity FaultPlan keys on.
    uint64_t ordinal = server_->runtime_->GetUsage(lip).tool_calls;
    Attempt(lip, tool, args, ordinal, 1, std::move(complete));
  }

  const ToolServiceStats& stats() const { return stats_; }

  const CircuitBreaker* breaker(const std::string& tool) const {
    auto it = breakers_.find(tool);
    return it == breakers_.end() ? nullptr : &it->second;
  }

 private:
  void Attempt(LipId lip, const std::string& tool, const std::string& args,
               uint64_t ordinal, uint32_t attempt,
               std::function<void(ToolResult)> complete) {
    Simulator* sim = server_->sim_;
    const ServerOptions& options = server_->options_;
    ++stats_.attempts;
    CircuitBreaker& breaker =
        breakers_.try_emplace(tool, options.breaker).first->second;
    if (options.breaker.enabled && !breaker.Allow(sim->now())) {
      // Open breaker: fail instantly without paying tool latency. Still
      // eligible for retry — the backoff may outlast the cooldown.
      ++stats_.breaker_rejections;
      FailOrRetry(lip, tool, args, ordinal, attempt,
                  UnavailableError("circuit open for tool '" + tool + "'"),
                  std::move(complete));
      return;
    }
    StatusOr<ToolInvocation> run = server_->tools_->Run(tool, args);
    if (!run.ok()) {
      // Registry errors (unknown tool) are caller errors: permanent, and
      // invisible to the breaker. Deliver after a scheduler turn, never
      // synchronously.
      ++stats_.failures;
      sim->ScheduleAt(sim->now(),
                      [complete = std::move(complete), st = run.status()] {
                        complete(ToolResult{st, ""});
                      });
      return;
    }
    ToolInvocation invocation = std::move(*run);
    FaultDecision fault;
    if (options.fault_plan != nullptr) {
      fault = options.fault_plan->OnToolCall(tool, sim->now(), args, ordinal,
                                             attempt);
    }
    SimDuration latency = invocation.latency;
    if (fault.latency_factor != 1.0) {
      latency = static_cast<SimDuration>(static_cast<double>(latency) *
                                         fault.latency_factor);
    }
    Status outcome = !fault.status.ok() ? fault.status : invocation.status;
    if (options.tool_retry.call_timeout > 0 &&
        latency > options.tool_retry.call_timeout) {
      // The caller gives up at the timeout; the (simulated) backend work is
      // abandoned. This is how latency-tail faults convert into retries.
      latency = options.tool_retry.call_timeout;
      ++stats_.timeouts;
      outcome = DeadlineExceededError("tool '" + tool + "' timed out");
    }
    if (outcome.ok() && options.offload_kv_on_tool_io &&
        latency >= options.min_io_for_offload) {
      server_->kvfs_->OffloadOwnedBy(lip);
    }
    if (options.trace != nullptr) {
      options.trace->Span("tools", tool, sim->now(), latency);
    }
    sim->ScheduleAfter(
        latency, [this, lip, tool, args, ordinal, attempt,
                  outcome = std::move(outcome),
                  output = std::move(invocation.output),
                  complete = std::move(complete)]() mutable {
          CircuitBreaker& b =
              breakers_.try_emplace(tool, server_->options_.breaker)
                  .first->second;
          if (outcome.ok()) {
            b.RecordSuccess();
            complete(ToolResult{std::move(outcome), std::move(output)});
            return;
          }
          if (IsTransientError(outcome.code())) {
            b.RecordFailure(server_->sim_->now());
          }
          FailOrRetry(lip, tool, args, ordinal, attempt, std::move(outcome),
                      std::move(complete));
        });
  }

  void FailOrRetry(LipId lip, const std::string& tool, const std::string& args,
                   uint64_t ordinal, uint32_t attempt, Status why,
                   std::function<void(ToolResult)> complete) {
    const ToolRetryOptions& retry = server_->options_.tool_retry;
    Simulator* sim = server_->sim_;
    if (attempt >= retry.max_attempts || !IsTransientError(why.code())) {
      ++stats_.failures;
      sim->ScheduleAt(sim->now(),
                      [complete = std::move(complete), why = std::move(why)] {
                        complete(ToolResult{std::move(why), ""});
                      });
      return;
    }
    ++stats_.retries;
    SimDuration backoff = retry.backoff_base;
    for (uint32_t i = 1; i < attempt && backoff < kToolBackoffCap; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, kToolBackoffCap);
    backoff += static_cast<SimDuration>(static_cast<double>(backoff) *
                                        kToolBackoffJitter *
                                        jitter_rng_.NextDouble());
    sim->ScheduleAfter(backoff, [this, lip, tool, args, ordinal, attempt,
                                 complete = std::move(complete)]() mutable {
      Attempt(lip, tool, args, ordinal, attempt + 1, std::move(complete));
    });
  }

  SymphonyServer* server_;
  Rng jitter_rng_;
  std::unordered_map<std::string, CircuitBreaker> breakers_;
  ToolServiceStats stats_;
};

SymphonyServer::SymphonyServer(Simulator* sim, ServerOptions options,
                               IpcFabric* fabric, size_t replica)
    : sim_(sim), options_(std::move(options)), fabric_(fabric),
      replica_(replica) {
  CostModel cost(options_.model, options_.hardware);
  model_ = std::make_unique<Model>(options_.model);
  tokenizer_ = std::make_unique<Tokenizer>(options_.model.vocab_size);
  kvfs_ = std::make_unique<Kvfs>(MakeKvfsOptions(options_, sim_, cost));
  kvfs_->set_bytes_per_page(static_cast<uint64_t>(kPageTokens) *
                            options_.model.KvBytesPerToken());
  device_ = std::make_unique<Device>(sim_, cost);
  scheduler_ = std::make_unique<InferenceScheduler>(
      sim_, kvfs_.get(), model_.get(), device_.get(), MakePolicy(options_),
      options_.scheduler);
  tools_ = std::make_unique<ToolRegistry>(options_.tool_seed);
  tool_service_ = std::make_unique<ServerToolService>(this);
  runtime_ = std::make_unique<LipRuntime>(sim_, kvfs_.get(), options_.runtime);
  runtime_->set_pred_service(scheduler_.get());
  runtime_->set_tool_service(tool_service_.get());
  runtime_->set_tokenizer(tokenizer_.get());
  if (options_.trace != nullptr) {
    device_->set_trace(options_.trace);
    runtime_->set_trace(options_.trace);
  }
  if (options_.fault_plan != nullptr) {
    options_.fault_plan->ArmKvPressure(sim_, kvfs_.get());
  }
  if (fabric_ == nullptr) {
    // A standalone server's one-replica fabric, with its own single-switch
    // topology that nothing ever crosses. No fault plan or trace:
    // slow-consumer windows and "net" instants belong to a cluster's fabric.
    owned_fabric_ = std::make_unique<IpcFabric>(
        sim_, &device_->cost_model(), nullptr, nullptr);
    fabric_ = owned_fabric_.get();
  }
  fabric_->AttachReplica(replica_, runtime_.get());
}

SymphonyServer::~SymphonyServer() = default;

LipId SymphonyServer::Launch(std::string name, LipProgram program,
                             std::function<void(LipId)> on_exit) {
  return runtime_->Launch(std::move(name), std::move(program), std::move(on_exit));
}

LipId SymphonyServer::LaunchWithQuota(std::string name, LipQuota quota,
                                      LipProgram program,
                                      std::function<void(LipId)> on_exit) {
  LipId lip =
      runtime_->Launch(std::move(name), std::move(program), std::move(on_exit));
  // The program's first resume happens on a later simulator dispatch, so the
  // quota is in force before any of its system calls run.
  runtime_->SetQuota(lip, quota);
  return lip;
}

Status SymphonyServer::ImportNamedSnapshot(const KvFileSnapshot& snapshot) {
  if (snapshot.path.empty()) {
    return InvalidArgumentError("snapshot has no path");
  }
  if (kvfs_->Exists(snapshot.path)) {
    return AlreadyExistsError("kv file exists: " + snapshot.path);
  }
  SYMPHONY_ASSIGN_OR_RETURN(KvHandle handle,
                            kvfs_->ImportSnapshot(snapshot, kAdminLip));
  Status linked = kvfs_->Link(handle, snapshot.path);
  if (!linked.ok()) {
    (void)kvfs_->Close(handle);  // Reclaims the orphaned anonymous file.
    return linked;
  }
  // Closing leaves the named file in place for LIPs to open; the snapshot's
  // mode (applied by ImportSnapshot) governs who may.
  return kvfs_->Close(handle);
}

SymphonyServer::AdmitResult SymphonyServer::Submit(LaunchSpec spec) {
  AdmitResult result;  // OK unless shed below.
  const AdmissionOptions& admission = options_.admission;
  SimTime expire = spec.deadline > 0 ? sim_->now() + spec.deadline : SimTime{0};
  if (admission.enabled) {
    ++admission_stats_.submitted;
  }
  if (!admission.enabled || live_admitted_ < admission.max_live_lips) {
    result.lip = LaunchAdmitted(std::move(spec), expire);
    return result;
  }
  size_t depth = admission_queue_depth();
  SimDuration projected = ProjectedQueueDelay(depth);
  if (depth >= admission.max_queue) {
    ++admission_stats_.rejected_full;
    result.status = UnavailableError("admission queue full");
    result.retry_after = projected;
    return result;
  }
  if (spec.deadline > 0 && projected > spec.deadline) {
    // The request would very likely blow its deadline waiting; shedding it
    // now is cheaper for everyone than serving it late (goodput over
    // throughput).
    ++admission_stats_.rejected_deadline;
    result.status =
        UnavailableError("projected queue delay exceeds request deadline");
    result.retry_after = projected;
    return result;
  }
  uint32_t priority = std::min(spec.priority, kPriorityLevels - 1);
  admission_queue_[priority].push_back(QueuedLaunch{std::move(spec), expire});
  ++admission_stats_.queued;
  result.queued = true;
  return result;
}

LipId SymphonyServer::LaunchAdmitted(LaunchSpec spec, SimTime abs_deadline) {
  bool tracked = options_.admission.enabled;
  if (tracked) {
    ++live_admitted_;
    ++admission_stats_.admitted;
  }
  SimTime start = sim_->now();
  auto user_exit = std::move(spec.on_exit);
  auto on_exit = [this, tracked, start,
                  user_exit = std::move(user_exit)](LipId lip) {
    if (tracked) {
      double service_s = ToSeconds(sim_->now() - start);
      service_ewma_s_ = service_ewma_s_ == 0.0
                            ? service_s
                            : (1.0 - kServiceEwmaAlpha) * service_ewma_s_ +
                                  kServiceEwmaAlpha * service_s;
      --live_admitted_;
    }
    if (user_exit) {
      user_exit(lip);
    }
    if (tracked) {
      AdmitFromQueue();
    }
  };
  LipId lip = launcher_ ? launcher_(std::move(spec.name),
                                   std::move(spec.program), std::move(on_exit))
                        : Launch(std::move(spec.name), std::move(spec.program),
                                 std::move(on_exit));
  if (abs_deadline > 0) {
    runtime_->SetDeadline(lip, abs_deadline);
  }
  return lip;
}

std::optional<SymphonyServer::QueuedLaunch> SymphonyServer::PopQueued() {
  for (auto& queue : admission_queue_) {
    while (!queue.empty()) {
      QueuedLaunch item = std::move(queue.front());
      queue.pop_front();
      if (item.expire == 0 || sim_->now() < item.expire) {
        return item;
      }
      // Its deadline passed while it waited: launching now would only burn
      // decode steps on a guaranteed-late answer.
      ++admission_stats_.shed_expired;
    }
  }
  return std::nullopt;
}

void SymphonyServer::AdmitFromQueue() {
  // A halted replica's queue waits for the cluster to take it (TakeQueued).
  while (!runtime_->halted() &&
         live_admitted_ < options_.admission.max_live_lips) {
    std::optional<QueuedLaunch> item = PopQueued();
    if (!item) {
      return;
    }
    (void)LaunchAdmitted(std::move(item->spec), item->expire);
  }
}

std::vector<SymphonyServer::LaunchSpec> SymphonyServer::TakeQueued() {
  std::vector<LaunchSpec> specs;
  while (std::optional<QueuedLaunch> item = PopQueued()) {
    if (item->expire > 0) {
      item->spec.deadline = item->expire - sim_->now();
    }
    specs.push_back(std::move(item->spec));
  }
  return specs;
}

SimDuration SymphonyServer::ProjectedQueueDelay(size_t depth) const {
  double service_s =
      service_ewma_s_ > 0.0
          ? service_ewma_s_
          : ToSeconds(options_.admission.initial_service_estimate);
  uint32_t slots = std::max<uint32_t>(options_.admission.max_live_lips, 1);
  return DurationFromSeconds(service_s * static_cast<double>(depth + 1) /
                             static_cast<double>(slots)) +
         fabric_->BackpressureDelay(replica_);
}

size_t SymphonyServer::admission_queue_depth() const {
  size_t depth = 0;
  for (const auto& queue : admission_queue_) {
    depth += queue.size();
  }
  return depth;
}

const ToolServiceStats& SymphonyServer::tool_stats() const {
  return tool_service_->stats();
}

const CircuitBreaker* SymphonyServer::tool_breaker(
    const std::string& tool) const {
  return tool_service_->breaker(tool);
}

}  // namespace symphony
