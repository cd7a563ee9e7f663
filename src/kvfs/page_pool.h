// Tiered, reference-counted page storage for KV tensors.
//
// The pool virtualizes two memory tiers — device HBM and host DRAM — with
// fixed page budgets derived from the hardware config. Pages are refcounted
// so kv_fork can share pages copy-on-write; a write to a shared page goes
// through EnsureExclusive(), which transparently copies it.
//
// The pool is mechanism only. Which page to evict, and whether eviction means
// offload-to-host or drop, is policy owned by Kvfs/eviction.
//
// Layout: a page's metadata (used, refcount, tier, live: 12 bytes) and its
// token records (256 bytes) sit in two parallel vectors indexed by PageId, so
// a scan over a file's page tiers reads a few cache lines of metadata and
// never touches the records.
#ifndef SRC_KVFS_PAGE_POOL_H_
#define SRC_KVFS_PAGE_POOL_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/types.h"

namespace symphony {

struct PagePoolStats {
  uint64_t gpu_pages_used = 0;
  uint64_t host_pages_used = 0;
  uint64_t cow_copies = 0;        // Pages copied by EnsureExclusive.
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t tier_moves = 0;        // Offloads + restores.
};

class PagePool {
 public:
  // Budgets are in pages per tier.
  PagePool(uint64_t gpu_page_budget, uint64_t host_page_budget);

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  // Allocates an empty page in `tier` with refcount 1.
  StatusOr<PageId> Allocate(Tier tier);

  // Increments the sharing count (kv_fork).
  void Ref(PageId id);

  // Decrements; frees the page when the count reaches zero.
  void Unref(PageId id);

  // Returns `id` if exclusively owned, otherwise allocates a copy in the same
  // tier, moves one reference to it, and returns the copy.
  StatusOr<PageId> EnsureExclusive(PageId id);

  // Moves a page between tiers (accounting only; the caller charges transfer
  // time). Fails with kResourceExhausted if the target tier is full.
  Status MoveToTier(PageId id, Tier tier);

  // Record access (mutable interface used by files). The pointer is valid
  // only until the next Allocate (directly or through EnsureExclusive), which
  // may grow the record storage.
  TokenRecord* MutableRecords(PageId id) {
    (void)Meta(id);
    return records_[id].data();
  }
  const TokenRecord* Records(PageId id) const {
    (void)Meta(id);
    return records_[id].data();
  }

  uint32_t used(PageId id) const { return Meta(id).used; }
  void set_used(PageId id, uint32_t used) {
    assert(used <= kPageTokens);
    Meta(id).used = used;
  }
  uint32_t refcount(PageId id) const { return Meta(id).refcount; }
  Tier tier(PageId id) const { return Meta(id).tier; }

  // Number of host-tier events so far: pages allocated on the host and pages
  // moved there. While it is unchanged no page has gone to the host, so a
  // file seen fully GPU-resident at some epoch still is (Kvfs::RestoreToGpu).
  uint64_t host_epoch() const { return host_epoch_; }

  uint64_t gpu_pages_free() const { return gpu_budget_ - stats_.gpu_pages_used; }
  const PagePoolStats& stats() const { return stats_; }

 private:
  struct PageMeta {
    uint32_t used = 0;
    uint32_t refcount = 0;
    Tier tier = Tier::kGpu;
    bool live = false;
  };
  static_assert(sizeof(PageMeta) == 12);

  PageMeta& Meta(PageId id) {
    assert(id < pages_.size());
    assert(pages_[id].live);
    return pages_[id];
  }
  const PageMeta& Meta(PageId id) const {
    assert(id < pages_.size());
    assert(pages_[id].live);
    return pages_[id];
  }
  uint64_t& TierUsage(Tier tier);

  uint64_t gpu_budget_;
  uint64_t host_budget_;
  std::vector<PageMeta> pages_;
  // records_[id] holds page id's tokens; only the first pages_[id].used are
  // meaningful.
  std::vector<std::array<TokenRecord, kPageTokens>> records_;
  std::vector<PageId> free_list_;
  uint64_t host_epoch_ = 0;
  PagePoolStats stats_;
};

}  // namespace symphony

#endif  // SRC_KVFS_PAGE_POOL_H_
