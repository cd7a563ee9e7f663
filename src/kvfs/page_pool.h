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
// A page stores its definition, not its records. The records a pred writes
// form a chain: each position is the one before plus one, and each state is
// Model::Advance of the state before, the token and the position. A compact
// page keeps the first record's state and position and its 16 token ids
// (76 bytes, against 256 for 16 whole records) and re-derives a record when
// it is read. A write that does not continue the chain makes the page
// explicit: its 16 whole records move to a second store, indexed from the
// page's metadata, until the page is freed. kv_extract, kv_merge and imported
// records can do that; pred cannot.
//
// Layout: a page's metadata (refcount, explicit slot, used, tier, live: 12
// bytes), its definition and any explicit records sit in three stores of
// fixed slabs, so a scan over a file's page tiers reads a few cache lines of
// metadata and never touches the records, and growing the pool allocates one
// slab and never copies or moves a page. Reads return records by value and
// writes take a run of records, so no caller holds a pointer into the pool.
#ifndef SRC_KVFS_PAGE_POOL_H_
#define SRC_KVFS_PAGE_POOL_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
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
  uint64_t explicit_pages = 0;    // Live pages holding whole records.
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

  // Writes `run` as records offset .. offset + run.size() - 1 of page `id`
  // and makes that its used count. `prev` is the state of record offset - 1
  // (unused when offset is 0); the file passes its tail state, so checking
  // that the run continues the chain derives nothing. With `derived_states`
  // the caller computed each state as Model::Advance of the one before, from
  // `prev`, and only positions are checked. The page stays compact while
  // every record continues it; the first that does not makes the page
  // explicit, with the records before it derived from the page's first
  // record.
  void Write(PageId id, uint32_t offset, std::span<const TokenRecord> run, HiddenState prev,
             bool derived_states = false);

  // Record `offset` of page `id`; a compact page derives it with `offset`
  // Model::Advance calls.
  TokenRecord ReadRecord(PageId id, uint32_t offset) const;

  // Records 0 .. out.size() - 1 of page `id`, each derived once.
  void ReadRecords(PageId id, std::span<TokenRecord> out) const;

  uint32_t used(PageId id) const { return Meta(id).used; }
  void set_used(PageId id, uint32_t used) {
    assert(used <= kPageTokens);
    Meta(id).used = static_cast<uint8_t>(used);
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
  static constexpr uint32_t kCompact = std::numeric_limits<uint32_t>::max();

  struct PageMeta {
    uint32_t refcount = 0;
    uint32_t explicit_slot = kCompact;  // Index into explicit_, or kCompact.
    uint8_t used = 0;
    Tier tier = Tier::kGpu;
    bool live = false;
  };
  static_assert(sizeof(PageMeta) == 12);

  // A compact page: its first record and the tokens after it. The state is
  // split into two words so the definition packs to 76 bytes.
  struct PageDefinition {
    std::array<TokenId, kPageTokens> tokens;
    int32_t first_position;
    uint32_t first_state_lo;
    uint32_t first_state_hi;

    HiddenState first_state() const {
      return (static_cast<HiddenState>(first_state_hi) << 32) | first_state_lo;
    }
    void set_first(const TokenRecord& record) {
      tokens[0] = record.token;
      first_position = record.position;
      first_state_lo = static_cast<uint32_t>(record.state);
      first_state_hi = static_cast<uint32_t>(record.state >> 32);
    }
  };
  static_assert(sizeof(PageDefinition) == 76);
  // What a pred-written page costs the host.
  static_assert(sizeof(PageMeta) + sizeof(PageDefinition) <= 88);

  using ExplicitRecords = std::array<TokenRecord, kPageTokens>;

  // Elements in fixed slabs of N: growing allocates one slab and never moves
  // an element, so references stay valid.
  template <typename T, uint32_t N>
  class Slabs {
   public:
    uint32_t size() const { return size_; }
    // Appends a value-initialized element and returns its index.
    uint32_t Grow() {
      if (size_ % N == 0) {
        slabs_.push_back(std::make_unique<std::array<T, N>>());
      }
      return size_++;
    }
    T& operator[](uint32_t i) {
      assert(i < size_);
      return (*slabs_[i / N])[i % N];
    }
    const T& operator[](uint32_t i) const {
      assert(i < size_);
      return (*slabs_[i / N])[i % N];
    }

   private:
    std::vector<std::unique_ptr<std::array<T, N>>> slabs_;
    uint32_t size_ = 0;
  };
  // 64 pages: 768 bytes of metadata and 4,864 of definitions per slab.
  static constexpr uint32_t kSlabPages = 64;
  // 16 explicit pages: 4 KB per slab.
  static constexpr uint32_t kExplicitSlabPages = 16;

  PageMeta& Meta(PageId id) {
    assert(id < meta_.size());
    assert(meta_[id].live);
    return meta_[id];
  }
  const PageMeta& Meta(PageId id) const {
    assert(id < meta_.size());
    assert(meta_[id].live);
    return meta_[id];
  }
  uint64_t& TierUsage(Tier tier);
  // Takes a free explicit slot, counting one more explicit page.
  uint32_t AllocateExplicit();
  // Makes compact page `id` explicit, deriving its first `count` records.
  void MakeExplicit(PageId id, uint32_t count);
  // Derives records 0 .. out.size() - 1 of a compact page.
  static void Derive(const PageDefinition& page, std::span<TokenRecord> out);

  uint64_t gpu_budget_;
  uint64_t host_budget_;
  Slabs<PageMeta, kSlabPages> meta_;
  // definitions_[id] holds page id's definition while it is compact; only
  // its first meta_[id].used tokens are meaningful.
  Slabs<PageDefinition, kSlabPages> definitions_;
  Slabs<ExplicitRecords, kExplicitSlabPages> explicit_;
  std::vector<PageId> free_list_;
  std::vector<uint32_t> free_explicit_;
  uint64_t host_epoch_ = 0;
  PagePoolStats stats_;
};

}  // namespace symphony

#endif  // SRC_KVFS_PAGE_POOL_H_
