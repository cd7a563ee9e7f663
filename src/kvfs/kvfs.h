// KVFS: the KV-cache file system (paper §4.2).
//
// KVFS treats KV caches as files: they persist beyond a LIP's lifetime, can
// be shared across LIPs, and are manipulated with POSIX-like calls plus the
// specialized fork/extract/merge operations. Pages live in a tiered PagePool
// (GPU + host); when the GPU tier fills, an eviction policy picks victim
// files to offload or drop.
//
// Time/cost separation: KVFS never consumes virtual time itself. Operations
// that imply data movement (offload, restore, eviction) accumulate
// `pending_transfer_bytes`, which the serving layer drains and converts into
// simulated PCIe time. This keeps policy (here) and timing (gpu::Device)
// decoupled.
#ifndef SRC_KVFS_KVFS_H_
#define SRC_KVFS_KVFS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/kv_file.h"
#include "src/kvfs/page_pool.h"
#include "src/kvfs/types.h"
#include "src/model/model.h"
#include "src/sim/time.h"

namespace symphony {

// What to do when the GPU tier is full and a new page is needed.
enum class EvictionMode {
  kNone,        // Fail the allocation with kResourceExhausted.
  kDropLru,     // Free the least-recently-used eligible file entirely.
  kOffloadLru,  // Move the LRU eligible file's pages to the host tier
                // (falls back to dropping when the host tier is full too).
};

struct KvfsOptions {
  uint64_t gpu_page_budget = 4096;
  uint64_t host_page_budget = 16384;
  EvictionMode eviction = EvictionMode::kOffloadLru;
  // Virtual clock for LRU bookkeeping; defaults to a monotonic counter.
  std::function<SimTime()> clock;
};

struct OpenOptions {
  LipId requester = kNoLip;
  bool read = true;
  bool write = false;
  bool create = false;    // Create if missing.
  bool exclusive = false; // With create: fail if the path already exists.
  uint8_t create_mode = kModePrivate;
};

// Snapshot of one file's metadata, for introspection and eviction policies.
struct KvFileInfo {
  FileId id = kInvalidFile;
  std::string path;  // Empty for anonymous files.
  LipId owner = kNoLip;
  uint8_t mode = 0;
  uint64_t length = 0;
  uint64_t gpu_pages = 0;
  uint64_t host_pages = 0;
  bool pinned = false;
  bool locked = false;
  uint32_t open_count = 0;
  // Cumulative non-admin Open() calls on the path over the file's lifetime:
  // the cluster's prefix-sharing pass uses this as its hotness signal (its
  // own admin export opens don't count).
  uint64_t opens_total = 0;
  SimTime last_access = 0;
};

struct KvfsStats {
  uint64_t opens = 0;
  uint64_t forks = 0;
  uint64_t extracts = 0;
  uint64_t merges = 0;
  uint64_t evicted_files = 0;
  uint64_t dropped_files = 0;
  uint64_t offloaded_pages = 0;
  uint64_t restored_pages = 0;
  uint64_t acl_denials = 0;
  uint64_t snapshot_exports = 0;
  uint64_t snapshot_imports = 0;
  uint64_t imported_tokens = 0;  // Records written via Import{Records,Snapshot}.
};

// Portable, replica-independent copy of one KV file's logical contents
// (checkpoint/restore, src/recovery). TokenRecords are pure data — token,
// position, hidden state — so a snapshot can be imported into any replica's
// KVFS and the pages rematerialized there.
struct KvFileSnapshot {
  std::string path;  // Empty for anonymous files.
  uint8_t mode = kModePrivate;
  std::vector<TokenRecord> records;
};

class Kvfs {
 public:
  explicit Kvfs(KvfsOptions options);

  Kvfs(const Kvfs&) = delete;
  Kvfs& operator=(const Kvfs&) = delete;

  // ---- Namespace operations -------------------------------------------

  // Opens (optionally creating) the file at `path`.
  StatusOr<KvHandle> Open(std::string_view path, const OpenOptions& options);

  // Creates an unnamed file, visible only through the returned handle; it is
  // reclaimed when the handle closes.
  StatusOr<KvHandle> CreateAnonymous(LipId requester);

  Status Close(KvHandle handle);

  // Unlinks the path. Pages are reclaimed when the last handle closes.
  Status Remove(std::string_view path, LipId requester);

  // Gives the file at `path` a (new) name visible to other LIPs. Source must
  // be open by `handle` whose requester owns the file.
  Status Link(KvHandle handle, std::string_view path);

  bool Exists(std::string_view path) const;
  // Sorted names under `prefix` that `requester` may read (every one for
  // admin, the default).
  std::vector<std::string> List(std::string_view prefix,
                                LipId requester = kAdminLip) const;

  // ---- Data-plane operations ------------------------------------------

  // Copy-on-write clone (paper's kv_fork): shares all pages, O(#pages).
  StatusOr<KvHandle> Fork(KvHandle source, LipId requester);

  // New file holding copies of the records at `indices` (context pruning).
  // Indices must be strictly increasing.
  StatusOr<KvHandle> Extract(KvHandle source, std::span<const uint64_t> indices,
                             LipId requester);

  // New file holding the concatenation of the sources' records.
  StatusOr<KvHandle> Merge(std::span<const KvHandle> sources, LipId requester);

  Status Append(KvHandle handle, std::span<const TokenRecord> records);

  // pred's append: token i goes at position length + i, in a record whose
  // state is Model::Advance of the state before, starting from the file's
  // tail state (the model's initial state when the file is empty). Appends
  // each token's distribution, `model.Predict` of its state, to `dists`.
  // Records are staged one page run at a time on the stack. Atomic like
  // Append: any error truncates both the file and `dists` back to their
  // lengths on entry. Each token is advanced once, here, so the chain check
  // of its page has no state to verify.
  Status AppendTokens(KvHandle handle, std::span<const TokenId> tokens,
                      const Model& model, std::vector<Distribution>& dists);

  // ---- Snapshot export/import (checkpoint/restore, src/recovery) -------

  // Copies the file's logical contents into a portable snapshot.
  StatusOr<KvFileSnapshot> ExportSnapshot(KvHandle handle) const;

  // Materializes `snapshot` as a new anonymous file owned by `requester`,
  // with pages allocated in `tier` (host by default: the restore path pays
  // PCIe lazily, when a pred first needs the file on-device).
  StatusOr<KvHandle> ImportSnapshot(const KvFileSnapshot& snapshot,
                                    LipId requester, Tier tier = Tier::kHost);

  // Bulk-appends records into an existing file with pages in `tier`.
  // Atomic like Append, but host-tier imports skip GPU eviction pressure.
  Status ImportRecords(KvHandle handle, std::span<const TokenRecord> records,
                       Tier tier);

  StatusOr<TokenRecord> Read(KvHandle handle, uint64_t index);
  StatusOr<uint64_t> Length(KvHandle handle) const;
  StatusOr<HiddenState> TailState(KvHandle handle) const;
  Status Truncate(KvHandle handle, uint64_t new_length);

  // ---- Concurrency & policy controls ----------------------------------

  // Exclusive write lock. Only one holder; the holder's other handles to the
  // same file may still write. Locked files are eviction-exempt.
  Status Lock(KvHandle handle);
  Status Unlock(KvHandle handle);

  // Pinned files are never chosen as eviction victims.
  Status Pin(KvHandle handle);
  Status Unpin(KvHandle handle);

  Status SetMode(KvHandle handle, uint8_t mode);  // Owner or admin only.

  // ---- Residency (used by the serving layer) --------------------------

  // Moves all of the file's pages to the host tier.
  Status OffloadToHost(KvHandle handle);

  // Ensures all pages are GPU-resident, evicting other files if necessary.
  // Skips the page scan while the file's resident epoch equals the pool's
  // host epoch (KvFileData::resident_epoch). It stamps the file only when no
  // host-tier event happened during its own scan: an eviction it triggers may
  // offload a page the file shares with the victim, and the next restore
  // must find that page.
  Status RestoreToGpu(KvHandle handle);

  // Moves every unpinned file owned by `owner` to the host tier (the §4.3
  // offload-while-blocked-on-I/O optimization). Files are restored lazily by
  // the next pred that uses them. Returns the number of pages moved; stops
  // early if the host tier fills.
  uint64_t OffloadOwnedBy(LipId owner);

  // Bytes of host<->device traffic implied by operations since the last call.
  uint64_t TakePendingTransferBytes();

  // ---- Introspection ---------------------------------------------------

  StatusOr<KvFileInfo> Stat(KvHandle handle) const;
  StatusOr<KvFileInfo> StatPath(std::string_view path) const;
  std::vector<KvFileInfo> ListAll() const;
  const KvfsStats& stats() const { return stats_; }
  const PagePool& pool() const { return pool_; }
  void set_bytes_per_page(uint64_t bytes) { bytes_per_page_ = bytes; }

  // ---- Page quota (paper §6, resource accounting) ------------------------

  // Caps the page references `owner`'s files may hold: a page run or fork
  // that takes the owner past `max_pages` fails with kQuotaExceeded and is
  // rolled back. UINT64_MAX (the default) lifts the cap. Admin is never
  // limited. A limit stays until changed, also after the owner exits, since
  // its named files still count.
  void SetPageQuota(LipId owner, uint64_t max_pages);

  // Page references held by `owner`'s live files, counted on each call: a
  // scan of the file table, so nothing that changes a file's pages needs to
  // report it.
  uint64_t OwnerPageRefs(LipId owner) const;

  // Direct data access for the serving layer / tests (bypasses ACLs).
  StatusOr<const KvFileData*> FileData(KvHandle handle) const;

 private:
  // A file slot is live while it holds `data`.
  struct FileEntry {
    std::optional<KvFileData> data;
    std::string path;
    LipId owner = kNoLip;
    uint8_t mode = kModePrivate;
    bool pinned = false;
    bool unlinked = false;
    LipId lock_holder = kNoLip;
    uint32_t open_count = 0;
    uint64_t opens_total = 0;  // Cumulative named opens (hotness signal).
    SimTime last_access = 0;
    uint32_t generation = 0;
  };
  struct HandleEntry {
    FileId file = kInvalidFile;
    LipId requester = kNoLip;
    bool can_read = false;
    bool can_write = false;
    uint32_t generation = 0;
    bool live = false;
  };

  SimTime Now();
  FileId AllocateFileSlot();
  void ReclaimIfOrphaned(FileId id);
  StatusOr<HandleEntry*> ResolveHandle(KvHandle handle);
  StatusOr<const HandleEntry*> ResolveHandle(KvHandle handle) const;
  // The file behind a writable handle whose file no other LIP has locked;
  // counts an ACL denial (`denial` is its message) for a read-only handle.
  StatusOr<FileEntry*> WritableFile(KvHandle handle, const char* denial);
  FileEntry& File(FileId id) { return files_[id]; }
  const FileEntry& File(FileId id) const { return files_[id]; }
  StatusOr<KvHandle> MakeHandle(FileId file, LipId requester, bool read, bool write);
  bool MayRead(const FileEntry& file, LipId requester) const;
  bool MayWrite(const FileEntry& file, LipId requester) const;
  // Appends the longest prefix of `records` that fits in one page
  // (KvFileData::AppendRun) with pages in `tier`, and returns how many it
  // wrote. A GPU run that fails with kResourceExhausted evicts one file and
  // retries. The written run is checked against the owner's page quota;
  // once per run is exact, because the owner's page references change only
  // when the run starts a page or an eviction frees one, and both happen
  // before the check. The caller rolls the file back on error.
  // `derived_states` as in KvFileData::AppendRun.
  StatusOr<size_t> AppendRun(FileEntry& file, std::span<const TokenRecord> records, Tier tier,
                             bool derived_states);
  // Appends `records` to `file` one page run at a time; any error rolls the
  // file back to its original length.
  Status AppendRecords(FileEntry& file, std::span<const TokenRecord> records, Tier tier);
  // Ensures at least `pages` free GPU pages, evicting eligible files.
  Status ReserveGpuPages(uint64_t pages);
  // Evicts one eligible file; returns false if none eligible.
  bool EvictOne();
  // Moves the file's GPU pages to the host tier, counting each, and returns
  // the first refusal (host tier full); the pages after it stay on-device.
  Status OffloadPages(const KvFileData& data);
  // True when `owner` holds more page references than its quota allows;
  // scans the file table only for an owner with a limit.
  bool OverPageQuota(LipId owner) const;
  // The least recently accessed file eviction may take (live, holding GPU
  // pages, not pinned, locked or open), or kInvalidFile when none is.
  FileId LruVictim() const;
  KvFileInfo InfoFor(FileId id) const;

  KvfsOptions options_;
  PagePool pool_;
  std::vector<FileEntry> files_;
  std::vector<uint32_t> free_file_slots_;
  std::vector<HandleEntry> handles_;
  std::vector<uint32_t> free_handle_slots_;
  std::unordered_map<std::string, FileId> names_;
  // Finite page limits only (SetPageQuota).
  std::unordered_map<LipId, uint64_t> page_quotas_;
  // KV bytes per page; the serving layer overwrites this from its model
  // config (default: Llama-13B geometry).
  uint64_t bytes_per_page_ = static_cast<uint64_t>(kPageTokens) * 819200;
  uint64_t pending_transfer_bytes_ = 0;
  SimTime fallback_clock_ = 0;
  // Mutable: const introspection paths (ExportSnapshot) still count.
  mutable KvfsStats stats_;
};

}  // namespace symphony

#endif  // SRC_KVFS_KVFS_H_
