#include "src/kvfs/kv_file.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace symphony {

KvFileData::KvFileData(KvFileData&& other) noexcept
    : pool_(other.pool_),
      pages_(std::move(other.pages_)),
      length_(other.length_),
      tail_state_(other.tail_state_),
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
    tail_state_ = other.tail_state_;
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

StatusOr<size_t> KvFileData::AppendRun(std::span<const TokenRecord> records, Tier tier,
                                       bool derived_states) {
  if (records.empty()) {
    return size_t{0};
  }
  uint32_t offset = static_cast<uint32_t>(length_ % kPageTokens);
  if (offset == 0) {
    SYMPHONY_ASSIGN_OR_RETURN(PageId page, pool_->Allocate(tier));
    pages_.push_back(page);
  } else {
    SYMPHONY_RETURN_IF_ERROR(MakeExclusive(pages_.size() - 1));
  }
  size_t n = std::min<size_t>(records.size(), kPageTokens - offset);
  pool_->Write(pages_.back(), offset, records.first(n), tail_state_, derived_states);
  tail_state_ = records[n - 1].state;
  length_ += n;
  return n;
}

Status KvFileData::Append(const TokenRecord& record, Tier tier) {
  return AppendRun(std::span<const TokenRecord>(&record, 1), tier).status();
}

StatusOr<TokenRecord> KvFileData::At(uint64_t index) const {
  if (index >= length_) {
    return OutOfRangeError("token index beyond file length");
  }
  return pool_->ReadRecord(pages_[index / kPageTokens],
                           static_cast<uint32_t>(index % kPageTokens));
}

void KvFileData::ReadPage(size_t page_index, std::span<TokenRecord> out) const {
  assert(page_index * kPageTokens + out.size() <= length_);
  pool_->ReadRecords(pages_[page_index], out);
}

std::vector<TokenRecord> KvFileData::Records() const {
  std::vector<TokenRecord> records(length_);
  for (size_t page = 0; page < pages_.size(); ++page) {
    size_t begin = page * kPageTokens;
    ReadPage(page, std::span(records).subspan(begin, std::min<uint64_t>(kPageTokens,
                                                                         length_ - begin)));
  }
  return records;
}

StatusOr<HiddenState> KvFileData::TailState() const {
  if (length_ == 0) {
    return FailedPreconditionError("empty kv file has no tail state");
  }
  return tail_state_;
}

Status KvFileData::Truncate(uint64_t new_length) {
  if (new_length > length_) {
    return OutOfRangeError("truncate beyond file length");
  }
  if (new_length == length_) {
    return Status::Ok();
  }
  size_t keep_pages = static_cast<size_t>((new_length + kPageTokens - 1) / kPageTokens);
  while (pages_.size() > keep_pages) {
    pool_->Unref(pages_.back());
    pages_.pop_back();
  }
  length_ = new_length;
  if (new_length > 0) {
    tail_state_ = pool_->ReadRecord(pages_.back(),
                                    static_cast<uint32_t>((new_length - 1) % kPageTokens))
                      .state;
  }
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
  tail_state_ = other.tail_state_;
  resident_epoch_ = kNoEpoch;
  for (PageId page : pages_) {
    pool_->Ref(page);
  }
  return Status::Ok();
}

void KvFileData::ReleaseAll() {
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
