#include "src/kvfs/kvfs.h"

#include <algorithm>
#include <cassert>

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
  entry.live = true;
  entry.data.emplace(&pool_);
  // Attribute this file's page references to its (future) owner. The owner
  // field is always assigned before any pages are added.
  entry.data->set_page_ref_observer([this, id](int64_t delta) {
    owner_page_refs_[files_[id].owner] += delta;
  });
  return id;
}

uint64_t Kvfs::OwnerPageRefs(LipId owner) const {
  auto it = owner_page_refs_.find(owner);
  if (it == owner_page_refs_.end() || it->second < 0) {
    return 0;
  }
  return static_cast<uint64_t>(it->second);
}

bool Kvfs::OverPageQuota(LipId owner) const {
  if (!page_quota_ || owner == kAdminLip) {
    return false;
  }
  uint64_t quota = page_quota_(owner);
  return OwnerPageRefs(owner) > quota;
}

void Kvfs::ReclaimIfOrphaned(FileId id) {
  FileEntry& entry = files_[id];
  if (!entry.live || !entry.unlinked || entry.open_count > 0) {
    return;
  }
  entry.data.reset();  // Releases all page references.
  entry.live = false;
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

std::vector<std::string> Kvfs::List(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, id] : names_) {
    if (name.size() >= prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
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
  // One record per call: a span into the source's pages could dangle once
  // an append allocates.
  for (uint64_t index : indices) {
    StatusOr<TokenRecord> rec = files_[src_id].data->At(index);
    if (!rec.ok()) {
      return abort_build(rec.status());
    }
    Status st = AppendRecords(files_[id], std::span(&*rec, 1), Tier::kGpu);
    if (!st.ok()) {
      return abort_build(st);
    }
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
    uint64_t len = files_[src_id].data->length();
    // One record per call, as in Extract.
    for (uint64_t i = 0; i < len; ++i) {
      StatusOr<TokenRecord> rec = files_[src_id].data->At(i);
      if (!rec.ok()) {
        return abort_build(rec.status());
      }
      Status st = AppendRecords(files_[id], std::span(&*rec, 1), Tier::kGpu);
      if (!st.ok()) {
        return abort_build(st);
      }
    }
    files_[src_id].last_access = Now();
  }
  --files_[id].open_count;
  ++stats_.merges;
  return MakeHandle(id, owner, /*read=*/true, /*write=*/true);
}

Status Kvfs::AppendRecords(FileEntry& file, std::span<const TokenRecord> records,
                           Tier tier) {
  KvFileData& data = *file.data;
  const uint64_t original_length = data.length();
  Status st;
  while (!records.empty()) {
    StatusOr<size_t> written = data.AppendRun(records, tier);
    if (!written.ok()) {
      if (tier == Tier::kGpu &&
          written.status().code() == StatusCode::kResourceExhausted &&
          options_.eviction != EvictionMode::kNone && EvictOne()) {
        continue;
      }
      st = written.status();
      break;
    }
    if (OverPageQuota(file.owner)) {
      // The quota is a hard per-tenant cap (§6).
      st = QuotaExceededError("kv page quota exceeded for lip " +
                              std::to_string(file.owner));
      break;
    }
    records = records.subspan(*written);
  }
  if (!st.ok()) {
    // Appends are atomic: roll back the partial span.
    (void)data.Truncate(original_length);
  }
  return st;
}

Status Kvfs::Append(KvHandle handle, std::span<const TokenRecord> records) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  if (!entry->can_write) {
    ++stats_.acl_denials;
    return PermissionDeniedError("append on read-only handle");
  }
  FileEntry& file = files_[entry->file];
  if (file.lock_holder != kNoLip && file.lock_holder != entry->requester) {
    return FailedPreconditionError("file locked by another lip");
  }
  SYMPHONY_RETURN_IF_ERROR(AppendRecords(file, records, Tier::kGpu));
  file.last_access = Now();
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
  uint64_t length = file.data->length();
  snapshot.records.reserve(length);
  for (uint64_t i = 0; i < length; ++i) {
    SYMPHONY_ASSIGN_OR_RETURN(TokenRecord rec, file.data->At(i));
    snapshot.records.push_back(rec);
  }
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
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  if (!entry->can_write) {
    ++stats_.acl_denials;
    return PermissionDeniedError("import on read-only handle");
  }
  FileEntry& file = files_[entry->file];
  if (file.lock_holder != kNoLip && file.lock_holder != entry->requester) {
    return FailedPreconditionError("file locked by another lip");
  }
  SYMPHONY_RETURN_IF_ERROR(AppendRecords(file, records, tier));
  stats_.imported_tokens += records.size();
  file.last_access = Now();
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
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  if (!entry->can_write) {
    ++stats_.acl_denials;
    return PermissionDeniedError("truncate on read-only handle");
  }
  FileEntry& file = files_[entry->file];
  if (file.lock_holder != kNoLip && file.lock_holder != entry->requester) {
    return FailedPreconditionError("file locked by another lip");
  }
  file.last_access = Now();
  return file.data->Truncate(new_length);
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

Status Kvfs::OffloadToHost(KvHandle handle) {
  SYMPHONY_ASSIGN_OR_RETURN(HandleEntry * entry, ResolveHandle(handle));
  FileEntry& file = files_[entry->file];
  for (PageId page : file.data->pages()) {
    if (pool_.tier(page) != Tier::kGpu) {
      continue;
    }
    SYMPHONY_RETURN_IF_ERROR(pool_.MoveToTier(page, Tier::kHost));
    pending_transfer_bytes_ += bytes_per_page_;
    ++stats_.offloaded_pages;
  }
  return Status::Ok();
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
  uint64_t moved = 0;
  for (FileId id = 0; id < files_.size(); ++id) {
    FileEntry& entry = files_[id];
    if (!entry.live || !entry.data || entry.owner != owner || entry.pinned) {
      continue;
    }
    for (PageId page : entry.data->pages()) {
      if (pool_.tier(page) != Tier::kGpu) {
        continue;
      }
      if (!pool_.MoveToTier(page, Tier::kHost).ok()) {
        return moved;  // Host tier full; keep the rest on-device.
      }
      pending_transfer_bytes_ += bytes_per_page_;
      ++stats_.offloaded_pages;
      ++moved;
    }
  }
  return moved;
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

std::vector<KvFileInfo> Kvfs::EligibleVictims() const {
  std::vector<KvFileInfo> out;
  for (FileId id = 0; id < files_.size(); ++id) {
    const FileEntry& entry = files_[id];
    if (!entry.live || !entry.data || entry.pinned || entry.open_count > 0 ||
        entry.lock_holder != kNoLip) {
      continue;
    }
    if (entry.data->PagesInTier(Tier::kGpu) == 0) {
      continue;
    }
    out.push_back(InfoFor(id));
  }
  return out;
}

bool Kvfs::EvictOne() {
  std::vector<KvFileInfo> candidates = EligibleVictims();
  if (candidates.empty()) {
    return false;
  }
  FileId victim = kInvalidFile;
  if (eviction_hook_) {
    std::optional<FileId> pick = eviction_hook_(candidates);
    if (!pick.has_value()) {
      return false;
    }
    victim = *pick;
  } else {
    SimTime oldest = candidates[0].last_access;
    victim = candidates[0].id;
    for (const KvFileInfo& info : candidates) {
      if (info.last_access < oldest) {
        oldest = info.last_access;
        victim = info.id;
      }
    }
  }
  FileEntry& entry = files_[victim];
  if (!entry.live || !entry.data) {
    return false;
  }
  ++stats_.evicted_files;
  if (options_.eviction == EvictionMode::kOffloadLru) {
    bool offloaded_all = true;
    for (PageId page : entry.data->pages()) {
      if (pool_.tier(page) != Tier::kGpu) {
        continue;
      }
      Status st = pool_.MoveToTier(page, Tier::kHost);
      if (!st.ok()) {
        offloaded_all = false;
        break;
      }
      pending_transfer_bytes_ += bytes_per_page_;
      ++stats_.offloaded_pages;
    }
    if (offloaded_all) {
      return true;
    }
    // Host tier full: fall through to dropping the file.
  }
  // Drop: release pages and unlink so lookups miss from now on.
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
    if (files_[id].live) {
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
