// Shared vocabulary types for KVFS.
#ifndef SRC_KVFS_TYPES_H_
#define SRC_KVFS_TYPES_H_

#include <cstdint>
#include <limits>

#include "src/model/model.h"
#include "src/model/tokenizer.h"

namespace symphony {

// Identity of a LIP process, used for KVFS ownership and access control.
using LipId = uint32_t;
inline constexpr LipId kNoLip = 0;      // Reserved: "nobody".
inline constexpr LipId kAdminLip = 1;   // Superuser: bypasses ACL checks.

// Per-LIP resource limits (paper §6: "resource accounting" for untrusted
// programs). Defaults are unlimited; the admin LIP is never limited. Each
// limit is enforced where it is spent: the runtime checks the first three at
// the system-call boundary, and KVFS checks the page limit on every page run
// and fork (Kvfs::SetPageQuota).
struct LipQuota {
  uint64_t max_pred_tokens = UINT64_MAX;  // Total tokens across all preds.
  uint64_t max_tool_calls = UINT64_MAX;
  uint32_t max_threads = UINT32_MAX;      // Threads spawned over the lifetime.
  uint64_t max_kv_pages = UINT64_MAX;     // Page references held in KVFS.
};

using PageId = uint32_t;
using FileId = uint32_t;
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();
inline constexpr FileId kInvalidFile = std::numeric_limits<FileId>::max();

// Tokens per KV page (PagedAttention-style granularity).
inline constexpr uint32_t kPageTokens = 16;

// Where a page's tensors physically live.
enum class Tier : uint8_t {
  kGpu = 0,   // On-device HBM: usable by pred directly.
  kHost = 1,  // Offloaded to host DRAM: must be restored before pred.
};

// One token's cached entry: the token, its absolute position, and the model
// hidden state *after* consuming it (the stand-in for its K/V tensors).
struct TokenRecord {
  TokenId token = kPadToken;
  int32_t position = 0;
  HiddenState state = 0;
};

// POSIX-flavored permission bits (owner/other × read/write).
enum KvMode : uint8_t {
  kOwnerRead = 1 << 0,
  kOwnerWrite = 1 << 1,
  kOtherRead = 1 << 2,
  kOtherWrite = 1 << 3,
};
inline constexpr uint8_t kModePrivate = kOwnerRead | kOwnerWrite;
inline constexpr uint8_t kModeShared = kModePrivate | kOtherRead;
inline constexpr uint8_t kModePublic = kModeShared | kOtherWrite;

// An open-file handle. Generation counts detect use-after-close.
struct KvHandle {
  uint32_t slot = std::numeric_limits<uint32_t>::max();
  uint32_t generation = 0;

  bool valid() const { return slot != std::numeric_limits<uint32_t>::max(); }
};

}  // namespace symphony

#endif  // SRC_KVFS_TYPES_H_
