#include "src/runtime/lip_context.h"

namespace symphony {

StatusOr<KvHandle> LipContext::Tracked(StatusOr<KvHandle> handle) {
  if (handle.ok()) {
    runtime_->TrackHandle(lip_, *handle);
  }
  return handle;
}

StatusOr<KvHandle> LipContext::kv_open(std::string_view path, bool write) {
  OpenOptions options;
  options.requester = lip_;
  options.read = true;
  options.write = write;
  return Tracked(runtime_->kvfs()->Open(path, options));
}

StatusOr<KvHandle> LipContext::kv_create(std::string_view path, uint8_t mode) {
  OpenOptions options;
  options.requester = lip_;
  options.read = true;
  options.write = true;
  options.create = true;
  options.create_mode = mode;
  return Tracked(runtime_->kvfs()->Open(path, options));
}

StatusOr<KvHandle> LipContext::kv_tmp() {
  return Tracked(runtime_->kvfs()->CreateAnonymous(lip_));
}

Status LipContext::kv_close(KvHandle handle) {
  Status st = runtime_->kvfs()->Close(handle);
  if (st.ok()) {
    runtime_->UntrackHandle(lip_, handle);
  }
  return st;
}

Status LipContext::kv_remove(std::string_view path) {
  return runtime_->kvfs()->Remove(path, lip_);
}

bool LipContext::kv_exists(std::string_view path) const {
  return runtime_->kvfs()->Exists(path);
}

StatusOr<KvHandle> LipContext::kv_fork(KvHandle handle) {
  return Tracked(runtime_->kvfs()->Fork(handle, lip_));
}

StatusOr<KvHandle> LipContext::kv_extract(KvHandle handle,
                                          std::span<const uint64_t> indices) {
  return Tracked(runtime_->kvfs()->Extract(handle, indices, lip_));
}

StatusOr<KvHandle> LipContext::kv_merge(std::span<const KvHandle> handles) {
  return Tracked(runtime_->kvfs()->Merge(handles, lip_));
}

StatusOr<uint64_t> LipContext::kv_len(KvHandle handle) const {
  return runtime_->kvfs()->Length(handle);
}

StatusOr<TokenRecord> LipContext::kv_read(KvHandle handle, uint64_t index) {
  return runtime_->kvfs()->Read(handle, index);
}

Status LipContext::kv_truncate(KvHandle handle, uint64_t new_length) {
  return runtime_->kvfs()->Truncate(handle, new_length);
}

Status LipContext::kv_lock(KvHandle handle) { return runtime_->kvfs()->Lock(handle); }
Status LipContext::kv_unlock(KvHandle handle) {
  return runtime_->kvfs()->Unlock(handle);
}
Status LipContext::kv_pin(KvHandle handle) { return runtime_->kvfs()->Pin(handle); }
Status LipContext::kv_unpin(KvHandle handle) {
  return runtime_->kvfs()->Unpin(handle);
}
Status LipContext::kv_link(KvHandle handle, std::string_view path) {
  return runtime_->kvfs()->Link(handle, path);
}
Status LipContext::kv_chmod(KvHandle handle, uint8_t mode) {
  return runtime_->kvfs()->SetMode(handle, mode);
}

Status LipContext::kv_offload(KvHandle handle) {
  return runtime_->kvfs()->OffloadToHost(handle);
}

StatusOr<KvFileInfo> LipContext::kv_stat(KvHandle handle) const {
  return runtime_->kvfs()->Stat(handle);
}

std::vector<std::string> LipContext::kv_list(std::string_view prefix) const {
  return runtime_->kvfs()->List(prefix, lip_);
}

LipContext::PredAwaitable LipContext::pred(KvHandle kv,
                                           std::vector<TokenId> tokens) {
  StatusOr<uint64_t> length = runtime_->kvfs()->Length(kv);
  if (!length.ok()) {
    // An expired deadline closes the LIP's handles: report the deadline,
    // not the stale handle.
    Status expired = runtime_->CheckDeadline(runtime_->current_thread(),
                                             JournalEntry::Kind::kPred);
    return PredAwaitable(runtime_, kv, {}, 0,
                         expired.ok() ? length.status() : std::move(expired));
  }
  Status early = tokens.empty()
                     ? InvalidArgumentError("pred requires at least one token")
                     : Status::Ok();
  return PredAwaitable(runtime_, kv, std::move(tokens),
                       static_cast<int32_t>(*length), std::move(early));
}

LipContext::PredAwaitable LipContext::pred1(KvHandle kv, TokenId token) {
  return pred(kv, std::vector<TokenId>{token});
}

void LipContext::SleepAwaitable::await_suspend(std::coroutine_handle<> frame) {
  runtime_->SetResumePoint(frame);
  runtime_->SubmitSleep(runtime_->current_thread(), duration_);
}

}  // namespace symphony
