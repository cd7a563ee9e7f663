#include "src/kvfs/page_pool.h"

#include <algorithm>

namespace symphony {

PagePool::PagePool(uint64_t gpu_page_budget, uint64_t host_page_budget)
    : gpu_budget_(gpu_page_budget), host_budget_(host_page_budget) {
  pages_.reserve(1024);
  records_.reserve(1024);
}

uint64_t& PagePool::TierUsage(Tier tier) {
  return tier == Tier::kGpu ? stats_.gpu_pages_used : stats_.host_pages_used;
}

StatusOr<PageId> PagePool::Allocate(Tier tier) {
  uint64_t budget = tier == Tier::kGpu ? gpu_budget_ : host_budget_;
  if (TierUsage(tier) >= budget) {
    return ResourceExhaustedError(tier == Tier::kGpu ? "gpu page budget exhausted"
                                                     : "host page budget exhausted");
  }
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<PageId>(pages_.size());
    pages_.emplace_back();
    records_.emplace_back();
  }
  pages_[id] = PageMeta{.used = 0, .refcount = 1, .tier = tier, .live = true};
  ++TierUsage(tier);
  if (tier == Tier::kHost) {
    ++host_epoch_;
  }
  ++stats_.allocations;
  return id;
}

void PagePool::Ref(PageId id) { ++Meta(id).refcount; }

void PagePool::Unref(PageId id) {
  PageMeta& meta = Meta(id);
  assert(meta.refcount > 0);
  if (--meta.refcount == 0) {
    --TierUsage(meta.tier);
    meta.live = false;
    free_list_.push_back(id);
    ++stats_.frees;
  }
}

StatusOr<PageId> PagePool::EnsureExclusive(PageId id) {
  if (Meta(id).refcount == 1) {
    return id;
  }
  SYMPHONY_ASSIGN_OR_RETURN(PageId copy, Allocate(Meta(id).tier));
  // Re-fetch: Allocate may have reallocated pages_ and records_.
  PageMeta& src_meta = pages_[id];
  pages_[copy].used = src_meta.used;
  std::copy_n(records_[id].begin(), src_meta.used, records_[copy].begin());
  --src_meta.refcount;
  ++stats_.cow_copies;
  return copy;
}

Status PagePool::MoveToTier(PageId id, Tier tier) {
  PageMeta& meta = Meta(id);
  if (meta.tier == tier) {
    return Status::Ok();
  }
  uint64_t budget = tier == Tier::kGpu ? gpu_budget_ : host_budget_;
  if (TierUsage(tier) >= budget) {
    return ResourceExhaustedError("target tier full");
  }
  --TierUsage(meta.tier);
  meta.tier = tier;
  ++TierUsage(tier);
  if (tier == Tier::kHost) {
    ++host_epoch_;
  }
  ++stats_.tier_moves;
  return Status::Ok();
}

}  // namespace symphony
