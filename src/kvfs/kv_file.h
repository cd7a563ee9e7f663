// A KV cache file: an append-mostly sequence of TokenRecords stored in
// refcounted pages. KvFileData is the in-"kernel" representation; LIPs only
// see KvHandles through the Kvfs API.
//
// Sharing model: Fork() snapshots the page list and bumps refcounts (O(pages),
// no tensor copies). Any mutation of a shared page (append into a partial
// tail page, truncate) first goes through copy-on-write.
#ifndef SRC_KVFS_KV_FILE_H_
#define SRC_KVFS_KV_FILE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/kvfs/page_pool.h"
#include "src/kvfs/types.h"
#include "src/sim/time.h"

namespace symphony {

class KvFileData {
 public:
  // `pool` must outlive the file.
  explicit KvFileData(PagePool* pool) : pool_(pool) {}

  ~KvFileData() { ReleaseAll(); }
  KvFileData(const KvFileData&) = delete;
  KvFileData& operator=(const KvFileData&) = delete;
  KvFileData(KvFileData&& other) noexcept;
  KvFileData& operator=(KvFileData&& other) noexcept;

  uint64_t length() const { return length_; }
  bool empty() const { return length_ == 0; }
  const std::vector<PageId>& pages() const { return pages_; }

  // Appends the longest prefix of `records` that fits in one page: into the
  // partial tail page (made exclusive first) or, when the file ends on a page
  // boundary, into one fresh page allocated in `tier`. Returns how many
  // records it wrote, which is 0 only for an empty span. On error nothing is
  // written. `records` must never point into pool storage: the allocation may
  // grow it and leave the span dangling.
  StatusOr<size_t> AppendRun(std::span<const TokenRecord> records, Tier tier = Tier::kGpu);

  // Appends one record (a one-record AppendRun).
  Status Append(const TokenRecord& record, Tier tier = Tier::kGpu);

  // Random access. Index must be < length().
  StatusOr<TokenRecord> At(uint64_t index) const;

  // Hidden state after the last token. Fails on an empty file (the caller
  // supplies the model's initial state in that case).
  StatusOr<HiddenState> TailState() const;

  // Drops tokens beyond new_length.
  Status Truncate(uint64_t new_length);

  // Makes this file share all of `other`'s pages (this must be empty).
  Status CloneFrom(const KvFileData& other);

  // Releases every page reference; the file becomes empty.
  void ReleaseAll();

  // Number of this file's pages currently resident in each tier.
  uint64_t PagesInTier(Tier tier) const;

  // The pool's host_epoch() when every page of this file was last seen on the
  // GPU, or kNoEpoch. While it equals the pool's current epoch the file is
  // fully GPU-resident: a page reaches the host only through a host-tier
  // event, which advances the epoch. So GPU appends and truncation keep the
  // stamp, moves carry it, and CloneFrom clears it (the pages it takes may
  // sit on the host). Kvfs::RestoreToGpu is the only writer.
  static constexpr uint64_t kNoEpoch = std::numeric_limits<uint64_t>::max();
  uint64_t resident_epoch() const { return resident_epoch_; }
  void set_resident_epoch(uint64_t epoch) { resident_epoch_ = epoch; }

  // Observer of this file's page-reference count (for per-owner resource
  // accounting): called with +n / -n whenever pages_ grows or shrinks.
  void set_page_ref_observer(std::function<void(int64_t)> observer) {
    page_ref_observer_ = std::move(observer);
  }

 private:
  void NotifyDelta(int64_t delta) {
    if (page_ref_observer_ && delta != 0) {
      page_ref_observer_(delta);
    }
  }

  // Copy-on-write: ensures pages_[page_index] is exclusively owned.
  Status MakeExclusive(size_t page_index);

  PagePool* pool_;
  std::vector<PageId> pages_;
  uint64_t length_ = 0;
  uint64_t resident_epoch_ = kNoEpoch;
  std::function<void(int64_t)> page_ref_observer_;
};

}  // namespace symphony

#endif  // SRC_KVFS_KV_FILE_H_
