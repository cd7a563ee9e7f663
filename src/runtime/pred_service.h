// The boundary between the LIP runtime and the batch inference scheduler.
//
// pred is the paper's single system call for model computation (§4.1). The
// runtime converts a thread's pred syscall into a PredRequest and hands it to
// a PredService; the inference scheduler (src/sched) batches requests and
// executes them on the simulated GPU, invoking each request's completion
// callback in virtual time.
#ifndef SRC_RUNTIME_PRED_SERVICE_H_
#define SRC_RUNTIME_PRED_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/types.h"
#include "src/model/distribution.h"
#include "src/sim/time.h"

namespace symphony {

using ThreadId = uint64_t;

struct PredResult {
  Status status;
  // One next-token distribution per input token (paper: "returns a list of
  // next token distributions for each input token"). Each is a 16-byte
  // (state, config) value that derives its candidates only when read, so a
  // prefill whose LIP reads only the last one pays for no others.
  std::vector<Distribution> dists;
};

struct PredRequest {
  LipId lip = kNoLip;
  ThreadId thread = 0;
  KvHandle kv;
  // Token i is placed at absolute position positions[i]. The executor
  // enforces strict continuation: positions[i] == kv file length + i.
  std::vector<TokenId> tokens;
  std::vector<int32_t> positions;
  SimTime submit_time = 0;
  // Times this request was bounced for lack of device memory (scheduler
  // bookkeeping for preemption-style retry).
  uint32_t memory_retries = 0;
  // Chunked-prefill bookkeeping (scheduler-owned). When the scheduler splits
  // a large prefill into position-contiguous chunks, the re-queued
  // continuation keeps the original submit_time/lip/kv context, counts the
  // tokens already executed in chunk_done, and accumulates the per-token
  // distributions of earlier chunks in chunk_dists so the final chunk can
  // deliver one result bit-identical to unchunked execution.
  uint64_t chunk_done = 0;
  std::shared_ptr<std::vector<Distribution>> chunk_dists;
  std::function<void(PredResult)> complete;
};

class PredService {
 public:
  virtual ~PredService() = default;

  // Takes ownership of the request. On validation failure the implementation
  // must still deliver the error through request.complete.
  virtual void Submit(PredRequest request) = 0;

  // Cancels every queued or retry-pending request belonging to `lip`,
  // completing each with kDeadlineExceeded. Used by per-LIP deadline expiry;
  // requests already inside a running batch finish normally. Optional.
  virtual void CancelLip(LipId lip) { (void)lip; }
};

// The runtime's hook surface for external I/O (tool calls). The serving
// layer implements this; it also gives the server visibility for the §4.3
// optimization (offload a blocked thread's KV to host while it waits).
struct ToolResult {
  Status status;
  std::string output;
};

class ToolService {
 public:
  virtual ~ToolService() = default;
  virtual void Invoke(LipId lip, ThreadId thread, const std::string& tool,
                      const std::string& args,
                      std::function<void(ToolResult)> complete) = 0;
};

}  // namespace symphony

#endif  // SRC_RUNTIME_PRED_SERVICE_H_
