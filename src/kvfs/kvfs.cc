#include "src/kvfs/kvfs.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>

namespace symphony {

Kvfs::Kvfs(KvfsOptions options)
    : options_(std::move(options)),
      pool_(options_.gpu_page_budget, options_.host_page_budget) {}

SimTime Kvfs::Now() {
  if (options_.clock) {
    return options_.clock();
  }
  return ++fallback_clock_;
}

FileId Kvfs::AllocateFileSlot() {
  FileId id;
  if (!free_file_slots_.empty()) {
    id = free_file_slots_.back();
    free_file_slots_.pop_back();
  } else {
    id = static_cast<FileId>(files_.size());
    files_.emplace_back();
  }
  FileEntry& entry = files_[id];
  uint32_t generation = entry.generation + 1;
  entry = FileEntry{};
  entry.generation = generation;
  entry.data.emplace(&pool_);
  return id;
}

void Kvfs::SetPageQuota(LipId owner, uint64_t max_pages) {
  if (max_pages == UINT64_MAX) {
    page_quotas_.erase(owner);
  } else {
    page_quotas_[owner] = max_pages;
  }
}

uint64_t Kvfs::OwnerPageRefs(LipId owner) const {
  // A file's owner is set at creation, before its first page, and never
  // changes; a reclaimed file has no data and a dropped one no pages.
  uint64_t refs = 0;
  for (const FileEntry& entry : files_) {
    if (entry.data && entry.owner == owner) {
      refs += entry.data->pages().size();
    }
  }
  return refs;
}

bool Kvfs::OverPageQuota(LipId owner) const {
  if (owner == kAdminLip) {
    return false;
  }
  auto it = page_quotas_.find(owner);
  return it != page_quotas_.end() && OwnerPageRefs(owner) > it->second;
}

void Kvfs::ReclaimIfOrphaned(FileId id) {
  FileEntry& entry = files_[id];
  if (!entry.data || !entry.unlinked || entry.open_count > 0) {
    return;
  }
  entry.data.reset();  // Releases all page references.
  free_file_slots_.push_back(id);
}

bool Kvfs::MayRead(const FileEntry& file, LipId requester) const {
  if (requester == kAdminLip) {
    return true;
  }
  return requester == file.owner ? (file.mode & kOwnerRead) != 0
                                 : (file.mode & kOtherRead) != 0;
}

bool Kvfs::MayWrite(const FileEntry& file, LipId requester) const {
  if (requester == kAdminLip) {
    return true;
  }
  return requester == file.owner ? (file.mode & kOwnerWrite) != 0
                                 : (file.mode & kOtherWrite) != 0;
}

StatusOr<KvHandle> Kvfs::MakeHandle(FileId file, LipId requester, bool read,
                                    bool write) {
  uint32_t slot;
  if (!free_handle_slots_.empty()) {
    slot = free_handle_slots_.back();
    free_handle_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(handles_.size());
    handles_.emplace_back();
  }
  HandleEntry& entry = handles_[slot];
  uint32_t generation = entry.generation + 1;
  entry = HandleEntry{};
  entry.file = file;
  entry.requester = requester;
  entry.can_read = read;
  entry.can_write = write;
  entry.generation = generation;
  entry.live = true;
  ++files_[file].open_count;
  return KvHandle{slot, generation};
}

StatusOr<Kvfs::HandleEntry*> Kvfs::ResolveHandle(KvHandle handle) {
  if (handle.slot >= handles_.size()) {
    return InvalidArgumentError("bad kv handle");
  }
  HandleEntry& entry = handles_[handle.slot];
  if (!entry.live || entry.generation != handle.generation) {
    return InvalidArgumentError("stale kv handle");
  }
  return &entry;
}

StatusOr<const Kvfs::HandleEntry*> Kvfs::ResolveHandle(KvHandle handle) const {
  if (handle.slot >= handles_.size()) {
    return InvalidArgumentError("bad kv handle");
  }
  const HandleEntry& entry = handles_[handle.slot];
  if (!entry.live || entry.generation != handle.generation) {
    return InvalidArgumentError("stale kv handle");
  }
  return &entry;
}

StatusOr<Kvfs::FileEntry*> Kvfs::WritableFile(KvHandle handle, const char* denial) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  if (!entry->can_write) {
    ++stats_.acl_denials;
    return PermissionDeniedError(denial);
  }
  FileEntry& file = files_[entry->file];
  if (file.lock_holder != kNoLip && file.lock_holder != entry->requester) {
    return FailedPreconditionError("file locked by another lip");
  }
  return &file;
}

StatusOr<KvHandle> Kvfs::Open(std::string_view path, const OpenOptions& options) {
  if (path.empty()) {
    return InvalidArgumentError("empty path");
  }
  if (options.requester == kNoLip) {
    return InvalidArgumentError("open requires a requester identity");
  }
  auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    if (!options.create) {
      return NotFoundError("no such kv file: " + std::string(path));
    }
    FileId id = AllocateFileSlot();
    FileEntry& entry = files_[id];
    entry.path = std::string(path);
    entry.owner = options.requester;
    entry.mode = options.create_mode;
    entry.last_access = Now();
    if (options.requester != kAdminLip) {
      ++entry.opens_total;
    }
    names_.emplace(std::string(path), id);
    ++stats_.opens;
    return MakeHandle(id, options.requester, /*read=*/true, /*write=*/true);
  }
  if (options.create && options.exclusive) {
    return AlreadyExistsError("kv file exists: " + std::string(path));
  }
  FileId id = it->second;
  FileEntry& entry = files_[id];
  if (options.read && !MayRead(entry, options.requester)) {
    ++stats_.acl_denials;
    return PermissionDeniedError("read access denied: " + std::string(path));
  }
  if (options.write && !MayWrite(entry, options.requester)) {
    ++stats_.acl_denials;
    return PermissionDeniedError("write access denied: " + std::string(path));
  }
  entry.last_access = Now();
  // Admin opens (sharing passes, introspection) don't count toward hotness.
  if (options.requester != kAdminLip) {
    ++entry.opens_total;
  }
  ++stats_.opens;
  return MakeHandle(id, options.requester, options.read, options.write);
}

StatusOr<KvHandle> Kvfs::CreateAnonymous(LipId requester) {
  if (requester == kNoLip) {
    return InvalidArgumentError("create requires a requester identity");
  }
  FileId id = AllocateFileSlot();
  FileEntry& entry = files_[id];
  entry.owner = requester;
  entry.mode = kModePrivate;
  entry.unlinked = true;  // Reclaimed when the handle closes.
  entry.last_access = Now();
  ++stats_.opens;
  return MakeHandle(id, requester, /*read=*/true, /*write=*/true);
}

Status Kvfs::Close(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileId file = entry->file;
  FileEntry& fentry = files_[file];
  if (fentry.lock_holder == entry->requester) {
    // Dropping the last handle of the lock holder releases the lock. We keep
    // it simple: any close by the holder releases it.
    fentry.lock_holder = kNoLip;
  }
  entry->live = false;
  free_handle_slots_.push_back(handle.slot);
  assert(fentry.open_count > 0);
  --fentry.open_count;
  ReclaimIfOrphaned(file);
  return Status::Ok();
}

Status Kvfs::Remove(std::string_view path, LipId requester) {
  auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    return NotFoundError("no such kv file: " + std::string(path));
  }
  FileEntry& entry = files_[it->second];
  if (requester != kAdminLip && requester != entry.owner &&
      !MayWrite(entry, requester)) {
    ++stats_.acl_denials;
    return PermissionDeniedError("remove denied: " + std::string(path));
  }
  entry.unlinked = true;
  entry.path.clear();
  FileId id = it->second;
  names_.erase(it);
  ReclaimIfOrphaned(id);
  return Status::Ok();
}

Status Kvfs::Link(KvHandle handle, std::string_view path) {
  if (path.empty()) {
    return InvalidArgumentError("empty path");
  }
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileEntry& fentry = files_[entry->file];
  if (entry->requester != kAdminLip && entry->requester != fentry.owner) {
    ++stats_.acl_denials;
    return PermissionDeniedError("link requires ownership");
  }
  if (names_.count(std::string(path)) > 0) {
    return AlreadyExistsError("kv file exists: " + std::string(path));
  }
  if (!fentry.path.empty()) {
    names_.erase(fentry.path);
  }
  fentry.path = std::string(path);
  fentry.unlinked = false;
  names_.emplace(std::string(path), entry->file);
  return Status::Ok();
}

bool Kvfs::Exists(std::string_view path) const {
  return names_.count(std::string(path)) > 0;
}

std::vector<std::string> Kvfs::List(std::string_view prefix, LipId requester) const {
  std::vector<std::string> out;
  for (const auto& [name, id] : names_) {
    if (name.starts_with(prefix) && MayRead(files_[id], requester)) {
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<KvHandle> Kvfs::Fork(KvHandle source, LipId requester) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * src, ResolveHandle(source));
  if (!src->can_read) {
    return PermissionDeniedError("fork requires a readable handle");
  }
  FileEntry& src_file = files_[src->file];
  src_file.last_access = Now();
  FileId id = AllocateFileSlot();
  FileEntry& entry = files_[id];
  entry.owner = requester == kNoLip ? src->requester : requester;
  entry.mode = kModePrivate;
  entry.unlinked = true;
  entry.last_access = Now();
  // Re-fetch source after AllocateFileSlot (files_ may reallocate).
  SYMPHONY_RETURN_IF_ERROR(entry.data->CloneFrom(*files_[src->file].data));
  if (OverPageQuota(entry.owner)) {
    LipId owner = entry.owner;
    entry.data->ReleaseAll();
    ReclaimIfOrphaned(id);
    return QuotaExceededError("kv page quota exceeded for lip " +
                              std::to_string(owner));
  }
  ++stats_.forks;
  return MakeHandle(id, entry.owner, /*read=*/true, /*write=*/true);
}

StatusOr<KvHandle> Kvfs::Extract(KvHandle source, std::span<const uint64_t> indices,
                                 LipId requester) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * src, ResolveHandle(source));
  if (!src->can_read) {
    return PermissionDeniedError("extract requires a readable handle");
  }
  FileId src_id = src->file;
  LipId owner = requester == kNoLip ? src->requester : requester;
  for (size_t i = 1; i < indices.size(); ++i) {
    if (indices[i] <= indices[i - 1]) {
      return InvalidArgumentError("extract indices must be strictly increasing");
    }
  }
  FileId id = AllocateFileSlot();
  {
    FileEntry& entry = files_[id];
    entry.owner = owner;
    entry.mode = kModePrivate;
    entry.unlinked = true;
    entry.last_access = Now();
    // Guard against the eviction scan picking this half-built file.
    entry.open_count = 1;
  }
  auto abort_build = [&](Status st) -> StatusOr<KvHandle> {
    --files_[id].open_count;
    ReclaimIfOrphaned(id);
    return st;
  };
  // Each source page is derived once, up to its last index. An index past
  // the end fails the extract after the records before it are appended, as
  // an append per index would.
  const KvFileData& src_data = *files_[src_id].data;
  const uint64_t src_length = src_data.length();
  std::vector<TokenRecord> records;
  records.reserve(indices.size());
  std::array<TokenRecord, kPageTokens> page_records;
  size_t i = 0;
  while (i < indices.size() && indices[i] < src_length) {
    const uint64_t page = indices[i] / kPageTokens;
    size_t end = i + 1;
    while (end < indices.size() && indices[end] < src_length &&
           indices[end] / kPageTokens == page) {
      ++end;
    }
    src_data.ReadPage(page, std::span(page_records).first(indices[end - 1] % kPageTokens + 1));
    for (; i < end; ++i) {
      records.push_back(page_records[indices[i] % kPageTokens]);
    }
  }
  Status st = AppendRecords(files_[id], records, Tier::kGpu);
  if (!st.ok()) {
    return abort_build(st);
  }
  if (i < indices.size()) {
    return abort_build(OutOfRangeError("token index beyond file length"));
  }
  files_[src_id].last_access = Now();
  --files_[id].open_count;
  ++stats_.extracts;
  return MakeHandle(id, owner, /*read=*/true, /*write=*/true);
}

StatusOr<KvHandle> Kvfs::Merge(std::span<const KvHandle> sources, LipId requester) {
  if (sources.empty()) {
    return InvalidArgumentError("merge requires at least one source");
  }
  std::vector<FileId> src_ids;
  LipId owner = requester;
  for (KvHandle h : sources) {
    SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * src, ResolveHandle(h));
    if (!src->can_read) {
      return PermissionDeniedError("merge requires readable handles");
    }
    if (owner == kNoLip) {
      owner = src->requester;
    }
    src_ids.push_back(src->file);
  }
  FileId id = AllocateFileSlot();
  {
    FileEntry& entry = files_[id];
    entry.owner = owner;
    entry.mode = kModePrivate;
    entry.unlinked = true;
    entry.last_access = Now();
    // Guard against the eviction scan picking this half-built file.
    entry.open_count = 1;
  }
  auto abort_build = [&](Status st) -> StatusOr<KvHandle> {
    --files_[id].open_count;
    ReclaimIfOrphaned(id);
    return st;
  };
  for (FileId src_id : src_ids) {
    Status st = AppendRecords(files_[id], files_[src_id].data->Records(), Tier::kGpu);
    if (!st.ok()) {
      return abort_build(st);
    }
    files_[src_id].last_access = Now();
  }
  --files_[id].open_count;
  ++stats_.merges;
  return MakeHandle(id, owner, /*read=*/true, /*write=*/true);
}

StatusOr<size_t> Kvfs::AppendRun(FileEntry& file, std::span<const TokenRecord> records,
                                 Tier tier, bool derived_states) {
  while (true) {
    StatusOr<size_t> written = file.data->AppendRun(records, tier, derived_states);
    if (!written.ok()) {
      if (tier == Tier::kGpu &&
          written.status().code() == StatusCode::kResourceExhausted &&
          options_.eviction != EvictionMode::kNone && EvictOne()) {
        continue;
      }
      return written.status();
    }
    if (OverPageQuota(file.owner)) {
      // The quota is a hard per-tenant cap (§6).
      return QuotaExceededError("kv page quota exceeded for lip " +
                                std::to_string(file.owner));
    }
    return written;
  }
}

Status Kvfs::AppendRecords(FileEntry& file, std::span<const TokenRecord> records,
                           Tier tier) {
  const uint64_t original_length = file.data->length();
  while (!records.empty()) {
    StatusOr<size_t> written = AppendRun(file, records, tier, /*derived_states=*/false);
    if (!written.ok()) {
      // Appends are atomic: roll back the partial span.
      (void)file.data->Truncate(original_length);
      return written.status();
    }
    records = records.subspan(*written);
  }
  return Status::Ok();
}

Status Kvfs::Append(KvHandle handle, std::span<const TokenRecord> records) {
  SYMPHONY_ASSIGN_OR_RETURN(FileEntry * file, WritableFile(handle, "append on read-only handle"));
  SYMPHONY_RETURN_IF_ERROR(AppendRecords(*file, records, Tier::kGpu));
  file->last_access = Now();
  return Status::Ok();
}

Status Kvfs::AppendTokens(KvHandle handle, std::span<const TokenId> tokens,
                          const Model& model, std::vector<Distribution>& dists) {
  SYMPHONY_ASSIGN_OR_RETURN(FileEntry * file, WritableFile(handle, "append on read-only handle"));
  KvFileData& data = *file->data;
  const uint64_t original_length = data.length();
  const size_t original_dists = dists.size();
  if (dists.empty()) {
    dists.reserve(tokens.size());  // A whole pred: one allocation. Chunks grow it.
  }
  HiddenState state = data.empty() ? model.InitialState() : *data.TailState();
  std::array<TokenRecord, kPageTokens> run;
  while (!tokens.empty()) {
    // Stage the records that fill the file's tail page.
    const auto first = static_cast<int32_t>(data.length());
    size_t n = std::min<size_t>(tokens.size(), kPageTokens - data.length() % kPageTokens);
    for (size_t i = 0; i < n; ++i) {
      const int32_t at = first + static_cast<int32_t>(i);
      state = Model::Advance(state, tokens[i], at);
      run[i] = TokenRecord{tokens[i], at, state};
      dists.push_back(model.Predict(state));
    }
    StatusOr<size_t> written = AppendRun(*file, std::span(run).first(n), Tier::kGpu,
                                         /*derived_states=*/true);
    if (!written.ok()) {
      (void)data.Truncate(original_length);
      dists.erase(dists.begin() + static_cast<ptrdiff_t>(original_dists), dists.end());
      return written.status();
    }
    assert(*written == n);
    tokens = tokens.subspan(n);
  }
  file->last_access = Now();
  return Status::Ok();
}

StatusOr<KvFileSnapshot> Kvfs::ExportSnapshot(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(const HandleEntry* entry, ResolveHandle(handle));
  if (!entry->can_read) {
    return PermissionDeniedError("snapshot export on write-only handle");
  }
  const FileEntry& file = files_[entry->file];
  KvFileSnapshot snapshot;
  snapshot.path = file.unlinked ? std::string() : file.path;
  snapshot.mode = file.mode;
  snapshot.records = file.data->Records();
  ++stats_.snapshot_exports;
  return snapshot;
}

StatusOr<KvHandle> Kvfs::ImportSnapshot(const KvFileSnapshot& snapshot,
                                        LipId requester, Tier tier) {
  SYMPHONY_ASSIGN_OR_RETURN(KvHandle handle, CreateAnonymous(requester));
  Status st = ImportRecords(handle, snapshot.records, tier);
  if (!st.ok()) {
    (void)Close(handle);
    return st;
  }
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  files_[entry->file].mode = snapshot.mode;
  ++stats_.snapshot_imports;
  return handle;
}

Status Kvfs::ImportRecords(KvHandle handle,
                           std::span<const TokenRecord> records, Tier tier) {
  SYMPHONY_ASSIGN_OR_RETURN(FileEntry * file, WritableFile(handle, "import on read-only handle"));
  SYMPHONY_RETURN_IF_ERROR(AppendRecords(*file, records, tier));
  stats_.imported_tokens += records.size();
  file->last_access = Now();
  return Status::Ok();
}

StatusOr<TokenRecord> Kvfs::Read(KvHandle handle, uint64_t index) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  if (!entry->can_read) {
    ++stats_.acl_denials;
    return PermissionDeniedError("read on write-only handle");
  }
  FileEntry& file = files_[entry->file];
  file.last_access = Now();
  return file.data->At(index);
}

StatusOr<uint64_t> Kvfs::Length(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(const HandleEntry* entry, ResolveHandle(handle));
  return files_[entry->file].data->length();
}

StatusOr<HiddenState> Kvfs::TailState(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(const HandleEntry* entry, ResolveHandle(handle));
  return files_[entry->file].data->TailState();
}

Status Kvfs::Truncate(KvHandle handle, uint64_t new_length) {
  SYMPHONY_ASSIGN_OR_RETURN(FileEntry * file, WritableFile(handle, "truncate on read-only handle"));
  file->last_access = Now();
  return file->data->Truncate(new_length);
}

Status Kvfs::Lock(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileEntry& file = files_[entry->file];
  if (file.lock_holder != kNoLip && file.lock_holder != entry->requester) {
    return FailedPreconditionError("file already locked");
  }
  file.lock_holder = entry->requester;
  return Status::Ok();
}

Status Kvfs::Unlock(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileEntry& file = files_[entry->file];
  if (file.lock_holder != entry->requester) {
    return FailedPreconditionError("not the lock holder");
  }
  file.lock_holder = kNoLip;
  return Status::Ok();
}

Status Kvfs::Pin(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  files_[entry->file].pinned = true;
  return Status::Ok();
}

Status Kvfs::Unpin(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  files_[entry->file].pinned = false;
  return Status::Ok();
}

Status Kvfs::SetMode(KvHandle handle, uint8_t mode) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileEntry& file = files_[entry->file];
  if (entry->requester != kAdminLip && entry->requester != file.owner) {
    ++stats_.acl_denials;
    return PermissionDeniedError("chmod requires ownership");
  }
  file.mode = mode;
  return Status::Ok();
}

Status Kvfs::OffloadPages(const KvFileData& data) {
  for (PageId page : data.pages()) {
    if (pool_.tier(page) != Tier::kGpu) {
      continue;
    }
    SYMPHONY_RETURN_IF_ERROR(pool_.MoveToTier(page, Tier::kHost));
    pending_transfer_bytes_ += bytes_per_page_;
    ++stats_.offloaded_pages;
  }
  return Status::Ok();
}

Status Kvfs::OffloadToHost(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  return OffloadPages(*files_[entry->file].data);
}

Status Kvfs::RestoreToGpu(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileEntry& file = files_[entry->file];
  KvFileData& data = *file.data;
  const uint64_t epoch = pool_.host_epoch();
  if (data.resident_epoch() != epoch) {
    for (PageId page : data.pages()) {
      if (pool_.tier(page) != Tier::kHost) {
        continue;
      }
      SYMPHONY_RETURN_IF_ERROR(ReserveGpuPages(1));
      SYMPHONY_RETURN_IF_ERROR(pool_.MoveToTier(page, Tier::kGpu));
      pending_transfer_bytes_ += bytes_per_page_;
      ++stats_.restored_pages;
    }
    // An eviction above may have offloaded a page already passed.
    if (pool_.host_epoch() == epoch) {
      data.set_resident_epoch(epoch);
    }
  }
  file.last_access = Now();
  return Status::Ok();
}

Status Kvfs::ReserveGpuPages(uint64_t pages) {
  while (pool_.gpu_pages_free() < pages) {
    if (options_.eviction == EvictionMode::kNone || !EvictOne()) {
      return ResourceExhaustedError("cannot reserve gpu pages");
    }
  }
  return Status::Ok();
}

uint64_t Kvfs::OffloadOwnedBy(LipId owner) {
  const uint64_t offloaded = stats_.offloaded_pages;
  for (const FileEntry& entry : files_) {
    if (entry.data && entry.owner == owner && !entry.pinned &&
        !OffloadPages(*entry.data).ok()) {
      break;  // Host tier full; keep the rest on-device.
    }
  }
  return stats_.offloaded_pages - offloaded;
}

uint64_t Kvfs::TakePendingTransferBytes() {
  uint64_t bytes = pending_transfer_bytes_;
  pending_transfer_bytes_ = 0;
  return bytes;
}

KvFileInfo Kvfs::InfoFor(FileId id) const {
  const FileEntry& entry = files_[id];
  KvFileInfo info;
  info.id = id;
  info.path = entry.path;
  info.owner = entry.owner;
  info.mode = entry.mode;
  info.length = entry.data ? entry.data->length() : 0;
  info.gpu_pages = entry.data ? entry.data->PagesInTier(Tier::kGpu) : 0;
  info.host_pages = entry.data ? entry.data->PagesInTier(Tier::kHost) : 0;
  info.pinned = entry.pinned;
  info.locked = entry.lock_holder != kNoLip;
  info.open_count = entry.open_count;
  info.opens_total = entry.opens_total;
  info.last_access = entry.last_access;
  return info;
}

FileId Kvfs::LruVictim() const {
  FileId victim = kInvalidFile;
  for (FileId id = 0; id < files_.size(); ++id) {
    const FileEntry& entry = files_[id];
    if (!entry.data || entry.pinned || entry.open_count > 0 ||
        entry.lock_holder != kNoLip ||
        entry.data->PagesInTier(Tier::kGpu) == 0) {
      continue;
    }
    if (victim == kInvalidFile ||
        entry.last_access < files_[victim].last_access) {
      victim = id;
    }
  }
  return victim;
}

bool Kvfs::EvictOne() {
  FileId victim = LruVictim();
  if (victim == kInvalidFile) {
    return false;
  }
  FileEntry& entry = files_[victim];
  ++stats_.evicted_files;
  if (options_.eviction == EvictionMode::kOffloadLru && OffloadPages(*entry.data).ok()) {
    return true;
  }
  // Drop (also when the host tier is full): release pages and unlink so
  // lookups miss from now on.
  entry.data->ReleaseAll();
  if (!entry.path.empty()) {
    names_.erase(entry.path);
    entry.path.clear();
  }
  entry.unlinked = true;
  ++stats_.dropped_files;
  ReclaimIfOrphaned(victim);
  return true;
}

StatusOr<KvFileInfo> Kvfs::Stat(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(const HandleEntry* entry, ResolveHandle(handle));
  return InfoFor(entry->file);
}

StatusOr<KvFileInfo> Kvfs::StatPath(std::string_view path) const {
  auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    return NotFoundError("no such kv file: " + std::string(path));
  }
  return InfoFor(it->second);
}

std::vector<KvFileInfo> Kvfs::ListAll() const {
  std::vector<KvFileInfo> out;
  for (FileId id = 0; id < files_.size(); ++id) {
    if (files_[id].data) {
      out.push_back(InfoFor(id));
    }
  }
  return out;
}

StatusOr<const KvFileData*> Kvfs::FileData(KvHandle handle) const {
  SYMPHONY_ASSIGN_OR_RETURN(const HandleEntry* entry, ResolveHandle(handle));
  return &*files_[entry->file].data;
}

}  // namespace symphony
