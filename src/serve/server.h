// SymphonyServer: the composed LLM-serving operating system (paper §4).
//
// Wires together the LIP runtime (processes/threads), KVFS (KV cache as
// files), the simulated GPU device with its cost model, the two-level
// scheduler (thread scheduler in the runtime + batch inference scheduler),
// and the server-side tool registry. This is the top of the public API: a
// client constructs a server around a Simulator and Launches LIPs.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/faults/fault_plan.h"
#include "src/gpu/device.h"
#include "src/kvfs/kvfs.h"
#include "src/model/cost_model.h"
#include "src/model/model.h"
#include "src/model/tokenizer.h"
#include "src/runtime/lip_context.h"
#include "src/runtime/runtime.h"
#include "src/sched/batch_policy.h"
#include "src/sched/inference_scheduler.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"
#include "src/tools/circuit_breaker.h"
#include "src/tools/tool_registry.h"

namespace symphony {

class IpcFabric;

enum class BatchPolicyKind {
  kEager,
  kSizeTimeout,
  kPoissonAdaptive,
};

// Failure handling for one tool syscall at the server boundary. The retry
// loop runs entirely server-side: only the FINAL result of a tool syscall is
// journaled, so a recovered LIP replays the failures it actually observed
// rather than re-rolling them.
struct ToolRetryOptions {
  // Per-attempt timeout: an attempt whose (possibly fault-stretched) latency
  // exceeds this fails with kDeadlineExceeded at the timeout instead of
  // waiting out the tail. 0 disables.
  SimDuration call_timeout = 0;
  uint32_t max_attempts = 3;  // Total attempts; 1 = no retries.
  // Backoff before attempt n+1: base * 2^(n-1), capped at 500 ms, plus a
  // uniform jitter of up to 20% of the backoff (de-synchronizes retry storms
  // across LIPs).
  SimDuration backoff_base = Millis(10);
};

// Admission control for LIP launches (paper §6: the server is a shared,
// multi-tenant OS — overload must degrade goodput gracefully, not cliff).
// Disabled by default: Submit then launches unconditionally.
struct AdmissionOptions {
  bool enabled = false;
  // Admitted LIPs allowed to run concurrently; further launches queue.
  uint32_t max_live_lips = 8;
  // Bounded wait queue across all priority classes; beyond it, shed.
  size_t max_queue = 64;
  // Optimistic prior for the per-LIP service-time EWMA that drives
  // deadline-aware rejection.
  SimDuration initial_service_estimate = Millis(500);
};

struct ToolServiceStats {
  uint64_t attempts = 0;   // Tool attempts, including breaker rejections.
  uint64_t retries = 0;    // Attempts that were retried after a backoff.
  uint64_t timeouts = 0;   // Attempts cut off by call_timeout.
  uint64_t failures = 0;   // Final (post-retry) failures delivered to LIPs.
  uint64_t breaker_rejections = 0;  // Attempts rejected by an open breaker.
};

struct AdmissionStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;           // Launched, immediately or from the queue.
  uint64_t queued = 0;
  uint64_t rejected_full = 0;      // Shed: queue at capacity.
  uint64_t rejected_deadline = 0;  // Shed: projected delay past the deadline.
  uint64_t shed_expired = 0;       // Dropped at dequeue: deadline passed.
};

struct ServerOptions {
  ModelConfig model = ModelConfig::Llama13B();
  HardwareConfig hardware = HardwareConfig::A100();
  RuntimeOptions runtime;
  InferenceSchedulerOptions scheduler;
  BatchPolicyKind batch_policy = BatchPolicyKind::kEager;
  // SizeTimeout parameters (when selected).
  size_t batch_target_size = 16;
  SimDuration batch_timeout = Millis(5);
  // PoissonAdaptive parameter (when selected).
  SimDuration batch_max_wait = Millis(20);
  // KVFS eviction when the device KV budget fills.
  EvictionMode eviction = EvictionMode::kOffloadLru;
  // Optional execution trace (non-owning; must outlive the server). Records
  // GPU batch spans, LIP lifetime spans, and tool-call spans; dump with
  // TraceRecorder::WriteChromeJson for chrome://tracing / Perfetto.
  TraceRecorder* trace = nullptr;
  // §4.3: offload a LIP's KV to host while it blocks on slow tool I/O.
  bool offload_kv_on_tool_io = true;
  SimDuration min_io_for_offload = Millis(5);
  uint64_t tool_seed = 1234;
  // Failure semantics at the tool syscall boundary.
  ToolRetryOptions tool_retry;
  CircuitBreakerOptions breaker;
  // Admission control / load shedding for Submit().
  AdmissionOptions admission;
  // Optional fault injection (non-owning; must outlive the server). Tool
  // attempts consult it; KV pressure windows are armed at construction; in a
  // cluster each replica shares the plan and SymphonyCluster arms its
  // replica-kill schedule. See src/faults/fault_plan.h.
  FaultPlan* fault_plan = nullptr;
};

class SymphonyServer {
 public:
  // The server's channels run on `fabric` as replica `replica`: a cluster
  // passes its shared fabric and the slot index. With no fabric the server
  // builds a one-replica fabric of its own.
  SymphonyServer(Simulator* sim, ServerOptions options = {},
                 IpcFabric* fabric = nullptr, size_t replica = 0);
  ~SymphonyServer();

  SymphonyServer(const SymphonyServer&) = delete;
  SymphonyServer& operator=(const SymphonyServer&) = delete;

  // Starts a LIP; see LipRuntime::Launch.
  LipId Launch(std::string name, LipProgram program,
               std::function<void(LipId)> on_exit = nullptr);

  // Starts a LIP with resource limits enforced at the system-call boundary
  // (paper §6: resource accounting for untrusted programs).
  LipId LaunchWithQuota(std::string name, LipQuota quota, LipProgram program,
                        std::function<void(LipId)> on_exit = nullptr);

  // ---- Admission-controlled launches -----------------------------------

  static constexpr uint32_t kPriorityLevels = 3;

  struct LaunchSpec {
    std::string name;
    LipProgram program;
    std::function<void(LipId)> on_exit;
    // Completion budget relative to submission; 0 = none. Enforced as a
    // per-LIP deadline (LipRuntime::SetDeadline) once launched, and used for
    // deadline-aware rejection while queued.
    SimDuration deadline = 0;
    // 0 = highest. Clamped to kPriorityLevels - 1.
    uint32_t priority = 1;
    // Fresh context tokens the LIP will prefill up front (0 = unknown or
    // small). The server ignores it; a disaggregated cluster's router steers
    // qualifying launches to its prefill-role replicas (see ClusterOptions).
    uint64_t prefill_hint_tokens = 0;
  };

  struct AdmitResult {
    Status status;       // OK: running or queued. kUnavailable: shed.
    LipId lip = kNoLip;  // Set when launched immediately.
    bool queued = false;
    // Backpressure hint on rejection: projected time until the system could
    // plausibly take this request.
    SimDuration retry_after = 0;
  };

  // Launches through admission control (no-op passthrough when disabled).
  // Queued entries launch highest-priority-first, FIFO within a class, as
  // running admitted LIPs exit; entries whose deadline passes while queued
  // are shed at dequeue (their on_exit never fires).
  AdmitResult Submit(LaunchSpec spec);

  // How Submit starts what it admits (unset: Launch). A cluster installs its
  // placement path, so a replica's admissions are journaled like Launches.
  using Launcher = std::function<LipId(std::string, LipProgram,
                                       std::function<void(LipId)>)>;
  void set_launcher(Launcher launcher) { launcher_ = std::move(launcher); }

  // Empties the admission queue for re-admission elsewhere (the replica died
  // or is draining), in dequeue order, each deadline rebased to the time
  // left; entries already past it are shed (shed_expired).
  std::vector<LaunchSpec> TakeQueued();

  // Materializes a cluster-shared KV snapshot as a named file on this
  // replica (cross-replica prefix warming, src/store). Pages land on the
  // host tier; the first pred that reads the file pays PCIe, not prefill.
  // kAlreadyExists when the path is already present — the warm was a no-op.
  Status ImportNamedSnapshot(const KvFileSnapshot& snapshot);

  // Component access.
  Simulator* simulator() { return sim_; }
  Kvfs& kvfs() { return *kvfs_; }
  LipRuntime& runtime() { return *runtime_; }
  Device& device() { return *device_; }
  InferenceScheduler& scheduler() { return *scheduler_; }
  ToolRegistry& tools() { return *tools_; }
  const Model& model() const { return *model_; }
  const Tokenizer& tokenizer() const { return *tokenizer_; }
  const ServerOptions& options() const { return options_; }

  // Failure-semantics observability.
  const ToolServiceStats& tool_stats() const;
  const AdmissionStats& admission_stats() const { return admission_stats_; }
  // Breaker for `tool`, or nullptr before its first invocation.
  const CircuitBreaker* tool_breaker(const std::string& tool) const;
  size_t admission_queue_depth() const;
  // Projected wait for a request joining the admission queue right now —
  // the control plane's load signal for elastic scaling decisions.
  SimDuration ProjectedAdmissionDelay() const {
    return ProjectedQueueDelay(admission_queue_depth());
  }

 private:
  class ServerToolService;

  struct QueuedLaunch {
    LaunchSpec spec;
    SimTime expire = 0;  // Absolute deadline; 0 = never expires.
  };

  // Launches an admission-tracked LIP with an absolute deadline (0 = none).
  LipId LaunchAdmitted(LaunchSpec spec, SimTime abs_deadline);
  // The next queued launch, highest priority first and FIFO within a class;
  // entries whose deadline passed while they waited are shed on the way.
  std::optional<QueuedLaunch> PopQueued();
  // Fills free run slots from the wait queues.
  void AdmitFromQueue();
  // Projected wait for a request joining behind `depth` queued entries,
  // plus the fabric's credit backpressure for this replica
  // (IpcFabric::BackpressureDelay): a replica whose senders are parked for
  // credits advertises longer waits, so a cluster's Submit reroute tier
  // steers new work to less-congested replicas.
  SimDuration ProjectedQueueDelay(size_t depth) const;

  Simulator* sim_;
  ServerOptions options_;
  std::unique_ptr<Model> model_;
  std::unique_ptr<Tokenizer> tokenizer_;
  std::unique_ptr<Kvfs> kvfs_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<InferenceScheduler> scheduler_;
  std::unique_ptr<ToolRegistry> tools_;
  std::unique_ptr<ServerToolService> tool_service_;
  // Declared before runtime_ so they outlive it: the runtime's channel
  // syscalls go through the fabric. owned_fabric_ is set only when the
  // constructor was given no fabric.
  std::unique_ptr<IpcFabric> owned_fabric_;
  IpcFabric* fabric_;
  size_t replica_;
  std::unique_ptr<LipRuntime> runtime_;

  // Admission control state.
  std::array<std::deque<QueuedLaunch>, kPriorityLevels> admission_queue_;
  uint32_t live_admitted_ = 0;
  double service_ewma_s_ = 0.0;  // 0 = no completions yet; use the prior.
  AdmissionStats admission_stats_;
  Launcher launcher_;
};

}  // namespace symphony

#endif  // SRC_SERVE_SERVER_H_
