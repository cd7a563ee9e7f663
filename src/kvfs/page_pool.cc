#include "src/kvfs/page_pool.h"

#include <algorithm>

namespace symphony {

PagePool::PagePool(uint64_t gpu_page_budget, uint64_t host_page_budget)
    : gpu_budget_(gpu_page_budget), host_budget_(host_page_budget) {}

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
    id = meta_.Grow();
    definitions_.Grow();
  }
  meta_[id] = PageMeta{.refcount = 1, .used = 0, .tier = tier, .live = true};
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
    if (meta.explicit_slot != kCompact) {
      free_explicit_.push_back(meta.explicit_slot);
      meta.explicit_slot = kCompact;
      --stats_.explicit_pages;
    }
    meta.live = false;
    free_list_.push_back(id);
    ++stats_.frees;
  }
}

uint32_t PagePool::AllocateExplicit() {
  ++stats_.explicit_pages;
  if (free_explicit_.empty()) {
    return explicit_.Grow();
  }
  uint32_t slot = free_explicit_.back();
  free_explicit_.pop_back();
  return slot;
}

StatusOr<PageId> PagePool::EnsureExclusive(PageId id) {
  if (Meta(id).refcount == 1) {
    return id;
  }
  SYMPHONY_ASSIGN_OR_RETURN(PageId copy, Allocate(Meta(id).tier));
  PageMeta& src = Meta(id);
  PageMeta& dst = Meta(copy);
  dst.used = src.used;
  if (src.explicit_slot == kCompact) {
    definitions_[copy] = definitions_[id];
  } else {
    dst.explicit_slot = AllocateExplicit();
    explicit_[dst.explicit_slot] = explicit_[src.explicit_slot];
  }
  --src.refcount;
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

void PagePool::Derive(const PageDefinition& page, std::span<TokenRecord> out) {
  HiddenState state = page.first_state();
  for (uint32_t i = 0; i < out.size(); ++i) {
    int32_t position = page.first_position + static_cast<int32_t>(i);
    if (i > 0) {
      state = Model::Advance(state, page.tokens[i], position);
    }
    out[i] = TokenRecord{page.tokens[i], position, state};
  }
}

void PagePool::MakeExplicit(PageId id, uint32_t count) {
  uint32_t slot = AllocateExplicit();
  Derive(definitions_[id], std::span(explicit_[slot]).first(count));
  Meta(id).explicit_slot = slot;
}

void PagePool::Write(PageId id, uint32_t offset, std::span<const TokenRecord> run,
                     HiddenState prev, bool derived_states) {
  PageMeta& meta = Meta(id);
  assert(!run.empty() && offset + run.size() <= kPageTokens);
  const uint32_t end = offset + static_cast<uint32_t>(run.size());
  if (meta.explicit_slot == kCompact) {
    PageDefinition& page = definitions_[id];
    size_t i = 0;
    if (offset == 0) {
      page.set_first(run[0]);
      prev = run[0].state;
      i = 1;
    }
    // Each check reads the previous record's state from the run, so the
    // checks are independent of one another.
    const int64_t first = static_cast<int64_t>(page.first_position) + offset;
    for (; i < run.size(); ++i) {
      const TokenRecord& record = run[i];
      if (record.position != first + static_cast<int64_t>(i) ||
          (!derived_states &&
           record.state != Model::Advance(prev, record.token, record.position))) {
        break;
      }
      page.tokens[offset + i] = record.token;
      prev = record.state;
    }
    if (i == run.size()) {
      meta.used = static_cast<uint8_t>(end);
      return;
    }
    offset += static_cast<uint32_t>(i);
    run = run.subspan(i);
    MakeExplicit(id, offset);
  }
  std::copy(run.begin(), run.end(), explicit_[meta.explicit_slot].begin() + offset);
  meta.used = static_cast<uint8_t>(end);
}

TokenRecord PagePool::ReadRecord(PageId id, uint32_t offset) const {
  const PageMeta& meta = Meta(id);
  assert(offset < meta.used);
  if (meta.explicit_slot != kCompact) {
    return explicit_[meta.explicit_slot][offset];
  }
  const PageDefinition& page = definitions_[id];
  HiddenState state = page.first_state();
  int32_t position = page.first_position;
  for (uint32_t i = 1; i <= offset; ++i) {
    state = Model::Advance(state, page.tokens[i], ++position);
  }
  return TokenRecord{page.tokens[offset], position, state};
}

void PagePool::ReadRecords(PageId id, std::span<TokenRecord> out) const {
  const PageMeta& meta = Meta(id);
  assert(out.size() <= meta.used);
  if (meta.explicit_slot != kCompact) {
    std::copy_n(explicit_[meta.explicit_slot].begin(), out.size(), out.begin());
    return;
  }
  Derive(definitions_[id], out);
}

}  // namespace symphony
