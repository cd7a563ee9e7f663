#include "src/kvfs/kv_file.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace symphony {

KvFileData::KvFileData(KvFileData&& other) noexcept
    : pool_(other.pool_),
      pages_(std::move(other.pages_)),
      length_(other.length_),
      resident_epoch_(other.resident_epoch_) {
  other.pages_.clear();
  other.length_ = 0;
}

KvFileData& KvFileData::operator=(KvFileData&& other) noexcept {
  if (this != &other) {
    ReleaseAll();
    pool_ = other.pool_;
    pages_ = std::move(other.pages_);
    length_ = other.length_;
    resident_epoch_ = other.resident_epoch_;
    other.pages_.clear();
    other.length_ = 0;
  }
  return *this;
}

Status KvFileData::MakeExclusive(size_t page_index) {
  assert(page_index < pages_.size());
  SYMPHONY_ASSIGN_OR_RETURN(PageId exclusive, pool_->EnsureExclusive(pages_[page_index]));
  pages_[page_index] = exclusive;
  return Status::Ok();
}

StatusOr<size_t> KvFileData::AppendRun(std::span<const TokenRecord> records, Tier tier) {
  if (records.empty()) {
    return size_t{0};
  }
  uint32_t offset = static_cast<uint32_t>(length_ % kPageTokens);
  if (offset == 0) {
    SYMPHONY_ASSIGN_OR_RETURN(PageId page, pool_->Allocate(tier));
    pages_.push_back(page);
    NotifyDelta(1);
  } else {
    SYMPHONY_RETURN_IF_ERROR(MakeExclusive(pages_.size() - 1));
  }
  uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(records.size(), kPageTokens - offset));
  PageId tail = pages_.back();
  std::copy_n(records.begin(), n, pool_->MutableRecords(tail) + offset);
  pool_->set_used(tail, offset + n);
  length_ += n;
  return size_t{n};
}

Status KvFileData::Append(const TokenRecord& record, Tier tier) {
  return AppendRun(std::span<const TokenRecord>(&record, 1), tier).status();
}

StatusOr<TokenRecord> KvFileData::At(uint64_t index) const {
  if (index >= length_) {
    return OutOfRangeError("token index beyond file length");
  }
  PageId page = pages_[index / kPageTokens];
  return pool_->Records(page)[index % kPageTokens];
}

StatusOr<HiddenState> KvFileData::TailState() const {
  if (length_ == 0) {
    return FailedPreconditionError("empty kv file has no tail state");
  }
  SYMPHONY_ASSIGN_OR_RETURN(TokenRecord rec, At(length_ - 1));
  return rec.state;
}

Status KvFileData::Truncate(uint64_t new_length) {
  if (new_length > length_) {
    return OutOfRangeError("truncate beyond file length");
  }
  if (new_length == length_) {
    return Status::Ok();
  }
  size_t keep_pages = static_cast<size_t>((new_length + kPageTokens - 1) / kPageTokens);
  int64_t dropped = 0;
  while (pages_.size() > keep_pages) {
    pool_->Unref(pages_.back());
    pages_.pop_back();
    --dropped;
  }
  NotifyDelta(dropped);
  length_ = new_length;
  uint32_t tail_used = static_cast<uint32_t>(new_length % kPageTokens);
  if (tail_used != 0 && !pages_.empty()) {
    // Shrinking `used` on a shared page would corrupt siblings: COW first.
    SYMPHONY_RETURN_IF_ERROR(MakeExclusive(pages_.size() - 1));
    pool_->set_used(pages_.back(), tail_used);
  }
  return Status::Ok();
}

Status KvFileData::CloneFrom(const KvFileData& other) {
  if (!empty()) {
    return FailedPreconditionError("clone target must be empty");
  }
  if (pool_ != other.pool_) {
    return InvalidArgumentError("clone across page pools");
  }
  pages_ = other.pages_;
  length_ = other.length_;
  resident_epoch_ = kNoEpoch;
  for (PageId page : pages_) {
    pool_->Ref(page);
  }
  NotifyDelta(static_cast<int64_t>(pages_.size()));
  return Status::Ok();
}

void KvFileData::ReleaseAll() {
  NotifyDelta(-static_cast<int64_t>(pages_.size()));
  for (PageId page : pages_) {
    pool_->Unref(page);
  }
  pages_.clear();
  length_ = 0;
}

uint64_t KvFileData::PagesInTier(Tier tier) const {
  uint64_t n = 0;
  for (PageId page : pages_) {
    if (pool_->tier(page) == tier) {
      ++n;
    }
  }
  return n;
}

}  // namespace symphony
