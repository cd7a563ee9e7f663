// Tests for KVFS: page pool (refcounting, COW, tiers), file data
// (append/truncate/clone), and the Kvfs namespace (ACLs, locks, fork,
// extract, merge, eviction, residency).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/kvfs/kv_file.h"
#include "src/kvfs/kvfs.h"
#include "src/kvfs/page_pool.h"
#include "src/kvfs/types.h"

namespace symphony {
namespace {

TokenRecord Rec(TokenId t, int32_t pos) {
  return TokenRecord{t, pos, static_cast<HiddenState>(t) * 1000003ULL + static_cast<uint64_t>(pos)};
}

// ---------- PagePool ----------

TEST(PagePoolTest, AllocateAndFree) {
  PagePool pool(4, 4);
  StatusOr<PageId> p = pool.Allocate(Tier::kGpu);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(pool.stats().gpu_pages_used, 1u);
  pool.Unref(*p);
  EXPECT_EQ(pool.stats().gpu_pages_used, 0u);
}

TEST(PagePoolTest, BudgetEnforced) {
  PagePool pool(2, 1);
  ASSERT_TRUE(pool.Allocate(Tier::kGpu).ok());
  ASSERT_TRUE(pool.Allocate(Tier::kGpu).ok());
  StatusOr<PageId> third = pool.Allocate(Tier::kGpu);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(pool.Allocate(Tier::kHost).ok());
}

TEST(PagePoolTest, RefcountKeepsPageAlive) {
  PagePool pool(4, 0);
  PageId p = *pool.Allocate(Tier::kGpu);
  pool.Ref(p);
  pool.Unref(p);
  EXPECT_EQ(pool.refcount(p), 1u);
  EXPECT_EQ(pool.stats().gpu_pages_used, 1u);
  pool.Unref(p);
  EXPECT_EQ(pool.stats().gpu_pages_used, 0u);
}

TEST(PagePoolTest, EnsureExclusiveNoCopyWhenUnshared) {
  PagePool pool(4, 0);
  PageId p = *pool.Allocate(Tier::kGpu);
  StatusOr<PageId> q = pool.EnsureExclusive(p);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, p);
  EXPECT_EQ(pool.stats().cow_copies, 0u);
}

TEST(PagePoolTest, EnsureExclusiveCopiesWhenShared) {
  PagePool pool(4, 0);
  PageId p = *pool.Allocate(Tier::kGpu);
  pool.MutableRecords(p)[0] = Rec(100, 0);
  pool.set_used(p, 1);
  pool.Ref(p);
  StatusOr<PageId> q = pool.EnsureExclusive(p);
  ASSERT_TRUE(q.ok());
  EXPECT_NE(*q, p);
  EXPECT_EQ(pool.stats().cow_copies, 1u);
  EXPECT_EQ(pool.refcount(p), 1u);
  EXPECT_EQ(pool.refcount(*q), 1u);
  EXPECT_EQ(pool.Records(*q)[0].token, 100);
  EXPECT_EQ(pool.used(*q), 1u);
}

TEST(PagePoolTest, MoveToTierAccounting) {
  PagePool pool(2, 2);
  PageId p = *pool.Allocate(Tier::kGpu);
  ASSERT_TRUE(pool.MoveToTier(p, Tier::kHost).ok());
  EXPECT_EQ(pool.tier(p), Tier::kHost);
  EXPECT_EQ(pool.stats().gpu_pages_used, 0u);
  EXPECT_EQ(pool.stats().host_pages_used, 1u);
  // Move back.
  ASSERT_TRUE(pool.MoveToTier(p, Tier::kGpu).ok());
  EXPECT_EQ(pool.tier(p), Tier::kGpu);
}

TEST(PagePoolTest, MoveToFullTierFails) {
  PagePool pool(2, 1);
  PageId a = *pool.Allocate(Tier::kGpu);
  ASSERT_TRUE(pool.Allocate(Tier::kHost).ok());
  EXPECT_FALSE(pool.MoveToTier(a, Tier::kHost).ok());
}

TEST(PagePoolTest, SlotReuseAfterFree) {
  PagePool pool(1, 0);
  PageId a = *pool.Allocate(Tier::kGpu);
  pool.Unref(a);
  PageId b = *pool.Allocate(Tier::kGpu);
  EXPECT_EQ(a, b);  // Free list reuses the slot.
}

// ---------- KvFileData ----------

class KvFileDataTest : public ::testing::Test {
 protected:
  PagePool pool_{64, 64};
};

TEST_F(KvFileDataTest, AppendAndRead) {
  KvFileData f(&pool_);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(f.Append(Rec(260 + i, i)).ok());
  }
  EXPECT_EQ(f.length(), 40u);
  EXPECT_EQ(f.pages().size(), 3u);  // ceil(40/16)
  StatusOr<TokenRecord> r = f.At(25);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->token, 285);
  EXPECT_EQ(r->position, 25);
}

TEST_F(KvFileDataTest, AtOutOfRange) {
  KvFileData f(&pool_);
  ASSERT_TRUE(f.Append(Rec(1, 0)).ok());
  EXPECT_EQ(f.At(1).status().code(), StatusCode::kOutOfRange);
}

TEST_F(KvFileDataTest, TailState) {
  KvFileData f(&pool_);
  EXPECT_EQ(f.TailState().status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(f.Append(Rec(5, 0)).ok());
  EXPECT_EQ(*f.TailState(), Rec(5, 0).state);
}

TEST_F(KvFileDataTest, TruncateReleasesPages) {
  KvFileData f(&pool_);
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(f.Append(Rec(i, i)).ok());
  }
  EXPECT_EQ(pool_.stats().gpu_pages_used, 3u);
  ASSERT_TRUE(f.Truncate(10).ok());
  EXPECT_EQ(f.length(), 10u);
  EXPECT_EQ(pool_.stats().gpu_pages_used, 1u);
}

TEST_F(KvFileDataTest, TruncateBeyondLengthFails) {
  KvFileData f(&pool_);
  EXPECT_EQ(f.Truncate(5).code(), StatusCode::kOutOfRange);
}

TEST_F(KvFileDataTest, CloneSharesPages) {
  KvFileData a(&pool_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.Append(Rec(i, i)).ok());
  }
  uint64_t pages_before = pool_.stats().gpu_pages_used;
  KvFileData b(&pool_);
  ASSERT_TRUE(b.CloneFrom(a).ok());
  EXPECT_EQ(pool_.stats().gpu_pages_used, pages_before);  // No new pages.
  EXPECT_EQ(b.length(), 20u);
  EXPECT_EQ(b.At(7)->token, a.At(7)->token);
}

TEST_F(KvFileDataTest, CloneThenDivergentAppendsCow) {
  KvFileData a(&pool_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.Append(Rec(i, i)).ok());
  }
  KvFileData b(&pool_);
  ASSERT_TRUE(b.CloneFrom(a).ok());
  // b appends into the shared partial tail page -> COW.
  ASSERT_TRUE(b.Append(Rec(777, 20)).ok());
  EXPECT_EQ(pool_.stats().cow_copies, 1u);
  // a's view unchanged.
  EXPECT_EQ(a.length(), 20u);
  EXPECT_EQ(a.At(19)->token, 19);
  EXPECT_EQ(b.At(20)->token, 777);
  // a appends too; its tail page is exclusively owned again after b's COW.
  ASSERT_TRUE(a.Append(Rec(888, 20)).ok());
  EXPECT_EQ(pool_.stats().cow_copies, 1u);
  EXPECT_EQ(a.At(20)->token, 888);
  EXPECT_EQ(b.At(20)->token, 777);
}

TEST_F(KvFileDataTest, TruncateSharedPageCows) {
  KvFileData a(&pool_);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(a.Append(Rec(i, i)).ok());
  }
  KvFileData b(&pool_);
  ASSERT_TRUE(b.CloneFrom(a).ok());
  ASSERT_TRUE(b.Truncate(5).ok());
  EXPECT_EQ(b.length(), 5u);
  // a unaffected.
  EXPECT_EQ(a.length(), 16u);
  EXPECT_EQ(a.At(15)->token, 15);
}

TEST_F(KvFileDataTest, ReleaseAllFreesEverything) {
  KvFileData a(&pool_);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(a.Append(Rec(i, i)).ok());
  }
  a.ReleaseAll();
  EXPECT_EQ(a.length(), 0u);
  EXPECT_EQ(pool_.stats().gpu_pages_used, 0u);
}

TEST_F(KvFileDataTest, CloneFromClearsResidentEpoch) {
  KvFileData a(&pool_);
  ASSERT_TRUE(a.Append(Rec(1, 0)).ok());
  ASSERT_TRUE(pool_.MoveToTier(a.pages()[0], Tier::kHost).ok());
  KvFileData b(&pool_);
  b.set_resident_epoch(pool_.host_epoch());  // Empty, so trivially resident.
  ASSERT_TRUE(b.CloneFrom(a).ok());
  EXPECT_EQ(b.resident_epoch(), KvFileData::kNoEpoch);  // Its page is on the host.
}

TEST_F(KvFileDataTest, MoveTransfersOwnership) {
  KvFileData a(&pool_);
  ASSERT_TRUE(a.Append(Rec(1, 0)).ok());
  KvFileData b = std::move(a);
  EXPECT_EQ(b.length(), 1u);
  EXPECT_EQ(a.length(), 0u);  // NOLINT(bugprone-use-after-move): testing reset.
  EXPECT_EQ(pool_.stats().gpu_pages_used, 1u);
}

// ---------- Kvfs ----------

class KvfsTest : public ::testing::Test {
 protected:
  static KvfsOptions Options(EvictionMode mode = EvictionMode::kOffloadLru,
                             uint64_t gpu_pages = 64, uint64_t host_pages = 64) {
    KvfsOptions o;
    o.gpu_page_budget = gpu_pages;
    o.host_page_budget = host_pages;
    o.eviction = mode;
    return o;
  }

  static constexpr LipId kAlice = 10;
  static constexpr LipId kBob = 11;

  static std::vector<TokenRecord> MakeRecords(int n, TokenId base = 300) {
    std::vector<TokenRecord> recs;
    for (int i = 0; i < n; ++i) {
      recs.push_back(Rec(base + i, i));
    }
    return recs;
  }
};

TEST_F(KvfsTest, CreateOpenCloseLifecycle) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  StatusOr<KvHandle> h = fs.Open("/kv/doc", create);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(fs.Exists("/kv/doc"));
  ASSERT_TRUE(fs.Close(*h).ok());
  EXPECT_TRUE(fs.Exists("/kv/doc"));  // Named files persist after close.
}

TEST_F(KvfsTest, OpenMissingWithoutCreateFails) {
  Kvfs fs(Options());
  OpenOptions open{.requester = kAlice};
  EXPECT_EQ(fs.Open("/nope", open).status().code(), StatusCode::kNotFound);
}

TEST_F(KvfsTest, ExclusiveCreateFailsOnExisting) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  ASSERT_TRUE(fs.Open("/kv/x", create).ok());
  OpenOptions excl = create;
  excl.exclusive = true;
  EXPECT_EQ(fs.Open("/kv/x", excl).status().code(), StatusCode::kAlreadyExists);
}

TEST_F(KvfsTest, StaleHandleRejected) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/x", create);
  ASSERT_TRUE(fs.Close(h).ok());
  EXPECT_EQ(fs.Length(h).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Close(h).code(), StatusCode::kInvalidArgument);
}

TEST_F(KvfsTest, AppendReadTailState) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/x", create);
  std::vector<TokenRecord> recs = MakeRecords(20);
  ASSERT_TRUE(fs.Append(h, recs).ok());
  EXPECT_EQ(*fs.Length(h), 20u);
  EXPECT_EQ(fs.Read(h, 5)->token, 305);
  EXPECT_EQ(*fs.TailState(h), recs.back().state);
}

TEST_F(KvfsTest, AclDeniesOtherReader) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModePrivate;
  ASSERT_TRUE(fs.Open("/kv/secret", create).ok());
  OpenOptions read{.requester = kBob};
  EXPECT_EQ(fs.Open("/kv/secret", read).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_GT(fs.stats().acl_denials, 0u);
}

TEST_F(KvfsTest, SharedModeAllowsOtherReaderNotWriter) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModeShared;
  ASSERT_TRUE(fs.Open("/kv/shared", create).ok());
  OpenOptions read{.requester = kBob};
  EXPECT_TRUE(fs.Open("/kv/shared", read).ok());
  OpenOptions write{.requester = kBob, .write = true};
  EXPECT_EQ(fs.Open("/kv/shared", write).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(KvfsTest, AdminBypassesAcl) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModePrivate;
  ASSERT_TRUE(fs.Open("/kv/secret", create).ok());
  OpenOptions admin{.requester = kAdminLip, .write = true};
  EXPECT_TRUE(fs.Open("/kv/secret", admin).ok());
}

TEST_F(KvfsTest, SetModePromotesAccess) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/doc", create);
  ASSERT_TRUE(fs.SetMode(h, kModeShared).ok());
  OpenOptions read{.requester = kBob};
  EXPECT_TRUE(fs.Open("/kv/doc", read).ok());
}

TEST_F(KvfsTest, SetModeRequiresOwnership) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModePublic;
  ASSERT_TRUE(fs.Open("/kv/doc", create).ok());
  OpenOptions open{.requester = kBob, .write = true};
  KvHandle hb = *fs.Open("/kv/doc", open);
  EXPECT_EQ(fs.SetMode(hb, kModePrivate).code(), StatusCode::kPermissionDenied);
}

TEST_F(KvfsTest, WriteOnReadOnlyHandleFails) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModeShared;
  ASSERT_TRUE(fs.Open("/kv/doc", create).ok());
  OpenOptions read{.requester = kBob};
  KvHandle hb = *fs.Open("/kv/doc", read);
  std::vector<TokenRecord> recs = MakeRecords(1);
  EXPECT_EQ(fs.Append(hb, recs).code(), StatusCode::kPermissionDenied);
}

TEST_F(KvfsTest, RemoveUnlinksButOpenHandleStillWorks) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/doc", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(5)).ok());
  ASSERT_TRUE(fs.Remove("/kv/doc", kAlice).ok());
  EXPECT_FALSE(fs.Exists("/kv/doc"));
  EXPECT_EQ(*fs.Length(h), 5u);  // POSIX unlink semantics.
  ASSERT_TRUE(fs.Close(h).ok());
  EXPECT_EQ(fs.pool().stats().gpu_pages_used, 0u);  // Reclaimed.
}

TEST_F(KvfsTest, RemoveDeniedForStranger) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  ASSERT_TRUE(fs.Open("/kv/doc", create).ok());
  EXPECT_EQ(fs.Remove("/kv/doc", kBob).code(), StatusCode::kPermissionDenied);
}

TEST_F(KvfsTest, AnonymousFileReclaimedOnClose) {
  Kvfs fs(Options());
  KvHandle h = *fs.CreateAnonymous(kAlice);
  ASSERT_TRUE(fs.Append(h, MakeRecords(20)).ok());
  EXPECT_GT(fs.pool().stats().gpu_pages_used, 0u);
  ASSERT_TRUE(fs.Close(h).ok());
  EXPECT_EQ(fs.pool().stats().gpu_pages_used, 0u);
}

TEST_F(KvfsTest, LinkNamesAnonymousFile) {
  Kvfs fs(Options());
  KvHandle h = *fs.CreateAnonymous(kAlice);
  ASSERT_TRUE(fs.Append(h, MakeRecords(3)).ok());
  ASSERT_TRUE(fs.Link(h, "/kv/promoted").ok());
  ASSERT_TRUE(fs.Close(h).ok());
  EXPECT_TRUE(fs.Exists("/kv/promoted"));
  EXPECT_EQ(fs.StatPath("/kv/promoted")->length, 3u);
}

TEST_F(KvfsTest, ForkSharesPagesAndDiverges) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/prefix", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(20)).ok());
  uint64_t pages_before = fs.pool().stats().gpu_pages_used;

  StatusOr<KvHandle> fork = fs.Fork(h, kAlice);
  ASSERT_TRUE(fork.ok());
  EXPECT_EQ(fs.pool().stats().gpu_pages_used, pages_before);
  EXPECT_EQ(*fs.Length(*fork), 20u);

  ASSERT_TRUE(fs.Append(*fork, MakeRecords(1, 999)).ok());
  EXPECT_EQ(*fs.Length(*fork), 21u);
  EXPECT_EQ(*fs.Length(h), 20u);
  EXPECT_EQ(fs.stats().forks, 1u);
}

TEST_F(KvfsTest, ExtractPicksIndices) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/ctx", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(30)).ok());
  std::vector<uint64_t> keep = {0, 5, 29};
  StatusOr<KvHandle> ex = fs.Extract(h, keep, kAlice);
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(*fs.Length(*ex), 3u);
  EXPECT_EQ(fs.Read(*ex, 0)->token, 300);
  EXPECT_EQ(fs.Read(*ex, 1)->token, 305);
  EXPECT_EQ(fs.Read(*ex, 2)->token, 329);
}

TEST_F(KvfsTest, ExtractRejectsNonIncreasing) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/ctx", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(10)).ok());
  std::vector<uint64_t> bad = {3, 3};
  EXPECT_EQ(fs.Extract(h, bad, kAlice).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(KvfsTest, ExtractBeyondLengthFails) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/ctx", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(10)).ok());
  std::vector<uint64_t> bad = {50};
  EXPECT_EQ(fs.Extract(h, bad, kAlice).status().code(), StatusCode::kOutOfRange);
}

TEST_F(KvfsTest, MergeConcatenates) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle a = *fs.Open("/kv/a", create);
  KvHandle b = *fs.Open("/kv/b", create);
  ASSERT_TRUE(fs.Append(a, MakeRecords(4, 300)).ok());
  ASSERT_TRUE(fs.Append(b, MakeRecords(3, 400)).ok());
  std::vector<KvHandle> srcs = {a, b};
  StatusOr<KvHandle> merged = fs.Merge(srcs, kAlice);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*fs.Length(*merged), 7u);
  EXPECT_EQ(fs.Read(*merged, 0)->token, 300);
  EXPECT_EQ(fs.Read(*merged, 4)->token, 400);
}

TEST_F(KvfsTest, LockBlocksOtherWriters) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModePublic;
  KvHandle ha = *fs.Open("/kv/doc", create);
  ASSERT_TRUE(fs.Lock(ha).ok());
  OpenOptions open_b{.requester = kBob, .write = true};
  KvHandle hb = *fs.Open("/kv/doc", open_b);
  EXPECT_EQ(fs.Append(hb, MakeRecords(1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fs.Lock(hb).code(), StatusCode::kFailedPrecondition);
  // Holder can still write.
  EXPECT_TRUE(fs.Append(ha, MakeRecords(1)).ok());
  ASSERT_TRUE(fs.Unlock(ha).ok());
  EXPECT_TRUE(fs.Append(hb, MakeRecords(1)).ok());
}

TEST_F(KvfsTest, UnlockByNonHolderFails) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModePublic;
  KvHandle ha = *fs.Open("/kv/doc", create);
  ASSERT_TRUE(fs.Lock(ha).ok());
  OpenOptions open_b{.requester = kBob, .write = true};
  KvHandle hb = *fs.Open("/kv/doc", open_b);
  EXPECT_EQ(fs.Unlock(hb).code(), StatusCode::kFailedPrecondition);
}

TEST_F(KvfsTest, EvictionDropsLruFile) {
  // 4-page GPU budget, no host tier worth using: drop mode.
  Kvfs fs(Options(EvictionMode::kDropLru, /*gpu_pages=*/4, /*host_pages=*/0));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle a = *fs.Open("/kv/old", create);
  ASSERT_TRUE(fs.Append(a, MakeRecords(32)).ok());  // 2 pages.
  ASSERT_TRUE(fs.Close(a).ok());                    // Eligible for eviction.
  KvHandle b = *fs.Open("/kv/new", create);
  ASSERT_TRUE(fs.Append(b, MakeRecords(48)).ok());  // Needs 3 pages -> evict.
  EXPECT_FALSE(fs.Exists("/kv/old"));
  EXPECT_EQ(*fs.Length(b), 48u);
  EXPECT_GT(fs.stats().dropped_files, 0u);
}

TEST_F(KvfsTest, EvictionOffloadsToHost) {
  Kvfs fs(Options(EvictionMode::kOffloadLru, /*gpu_pages=*/4, /*host_pages=*/8));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle a = *fs.Open("/kv/old", create);
  ASSERT_TRUE(fs.Append(a, MakeRecords(32)).ok());
  ASSERT_TRUE(fs.Close(a).ok());
  KvHandle b = *fs.Open("/kv/new", create);
  ASSERT_TRUE(fs.Append(b, MakeRecords(48)).ok());
  EXPECT_TRUE(fs.Exists("/kv/old"));  // Offloaded, not dropped.
  EXPECT_EQ(fs.StatPath("/kv/old")->host_pages, 2u);
  EXPECT_GT(fs.TakePendingTransferBytes(), 0u);
}

TEST_F(KvfsTest, PinnedFilesNeverEvicted) {
  Kvfs fs(Options(EvictionMode::kDropLru, /*gpu_pages=*/4, /*host_pages=*/0));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle a = *fs.Open("/kv/pinned", create);
  ASSERT_TRUE(fs.Append(a, MakeRecords(48)).ok());  // 3 pages.
  ASSERT_TRUE(fs.Pin(a).ok());
  ASSERT_TRUE(fs.Close(a).ok());
  KvHandle b = *fs.Open("/kv/new", create);
  // Needs 2 pages but only 1 free and the other file is pinned.
  Status st = fs.Append(b, MakeRecords(32));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(fs.Exists("/kv/pinned"));
}

TEST_F(KvfsTest, OpenFilesNeverEvicted) {
  Kvfs fs(Options(EvictionMode::kDropLru, /*gpu_pages=*/4, /*host_pages=*/0));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle a = *fs.Open("/kv/active", create);
  ASSERT_TRUE(fs.Append(a, MakeRecords(48)).ok());
  // `a` stays open.
  KvHandle b = *fs.Open("/kv/new", create);
  EXPECT_EQ(fs.Append(b, MakeRecords(32)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(fs.Exists("/kv/active"));
}

TEST_F(KvfsTest, EvictionHookOverridesChoice) {
  Kvfs fs(Options(EvictionMode::kDropLru, /*gpu_pages=*/4, /*host_pages=*/0));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle a = *fs.Open("/kv/first", create);
  ASSERT_TRUE(fs.Append(a, MakeRecords(16)).ok());
  ASSERT_TRUE(fs.Close(a).ok());
  KvHandle b = *fs.Open("/kv/second", create);
  ASSERT_TRUE(fs.Append(b, MakeRecords(16)).ok());
  ASSERT_TRUE(fs.Close(b).ok());
  // LRU would evict /kv/first; the hook picks /kv/second instead.
  fs.set_eviction_hook([](const std::vector<KvFileInfo>& candidates) {
    for (const KvFileInfo& info : candidates) {
      if (info.path == "/kv/second") {
        return std::optional<FileId>(info.id);
      }
    }
    return std::optional<FileId>();
  });
  KvHandle c = *fs.Open("/kv/third", create);
  ASSERT_TRUE(fs.Append(c, MakeRecords(48)).ok());
  EXPECT_TRUE(fs.Exists("/kv/first"));
  EXPECT_FALSE(fs.Exists("/kv/second"));
}

TEST_F(KvfsTest, OffloadAndRestoreRoundTrip) {
  Kvfs fs(Options(EvictionMode::kOffloadLru, 8, 8));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/doc", create);
  std::vector<TokenRecord> recs = MakeRecords(40);
  ASSERT_TRUE(fs.Append(h, recs).ok());
  ASSERT_TRUE(fs.OffloadToHost(h).ok());
  EXPECT_EQ(fs.Stat(h)->gpu_pages, 0u);
  EXPECT_EQ(fs.Stat(h)->host_pages, 3u);
  uint64_t offload_bytes = fs.TakePendingTransferBytes();
  EXPECT_GT(offload_bytes, 0u);

  ASSERT_TRUE(fs.RestoreToGpu(h).ok());
  EXPECT_EQ(fs.Stat(h)->gpu_pages, 3u);
  EXPECT_EQ(fs.TakePendingTransferBytes(), offload_bytes);
  // Data intact.
  EXPECT_EQ(fs.Read(h, 39)->token, recs[39].token);
}

TEST_F(KvfsTest, ListFiltersByPrefix) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  ASSERT_TRUE(fs.Open("/cache/a", create).ok());
  ASSERT_TRUE(fs.Open("/cache/b", create).ok());
  ASSERT_TRUE(fs.Open("/other/c", create).ok());
  std::vector<std::string> cached = fs.List("/cache/");
  EXPECT_EQ(cached, (std::vector<std::string>{"/cache/a", "/cache/b"}));
}

TEST_F(KvfsTest, StatReportsMetadata) {
  Kvfs fs(Options());
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  create.create_mode = kModeShared;
  KvHandle h = *fs.Open("/kv/doc", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(17)).ok());
  StatusOr<KvFileInfo> info = fs.Stat(h);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->path, "/kv/doc");
  EXPECT_EQ(info->owner, kAlice);
  EXPECT_EQ(info->mode, kModeShared);
  EXPECT_EQ(info->length, 17u);
  EXPECT_EQ(info->gpu_pages, 2u);
  EXPECT_EQ(info->open_count, 1u);
}

TEST_F(KvfsTest, OwnerPageRefsTrackLifecycle) {
  Kvfs fs(Options());
  EXPECT_EQ(fs.OwnerPageRefs(kAlice), 0u);
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/mine", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(40)).ok());  // 3 pages.
  EXPECT_EQ(fs.OwnerPageRefs(kAlice), 3u);

  // Fork doubles the refs (same owner).
  KvHandle fork = *fs.Fork(h, kAlice);
  EXPECT_EQ(fs.OwnerPageRefs(kAlice), 6u);

  // Truncate sheds pages.
  ASSERT_TRUE(fs.Truncate(fork, 5).ok());
  EXPECT_EQ(fs.OwnerPageRefs(kAlice), 4u);

  // Closing the anonymous fork releases its refs.
  ASSERT_TRUE(fs.Close(fork).ok());
  EXPECT_EQ(fs.OwnerPageRefs(kAlice), 3u);

  // A different owner forking attributes to THEM, not Alice.
  fs.SetMode(h, kModeShared).ok() ? void() : void();
  OpenOptions read{.requester = kBob};
  KvHandle hb = *fs.Open("/kv/mine", read);
  KvHandle bob_fork = *fs.Fork(hb, kBob);
  EXPECT_EQ(fs.OwnerPageRefs(kAlice), 3u);
  EXPECT_EQ(fs.OwnerPageRefs(kBob), 3u);
  (void)bob_fork;
}

TEST_F(KvfsTest, PageQuotaHookEnforced) {
  Kvfs fs(Options());
  fs.set_page_quota_hook([](LipId owner) -> uint64_t {
    return owner == kAlice ? 2 : UINT64_MAX;
  });
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/capped", create);
  // Two pages fit.
  ASSERT_TRUE(fs.Append(h, MakeRecords(32)).ok());
  // The third page trips the quota; the append is rolled back atomically.
  Status st = fs.Append(h, MakeRecords(1, 500));
  EXPECT_EQ(st.code(), StatusCode::kQuotaExceeded);
  EXPECT_EQ(*fs.Length(h), 32u);
  // Bob is unaffected.
  OpenOptions bob_create{.requester = kBob, .write = true, .create = true};
  KvHandle hb = *fs.Open("/kv/bobs", bob_create);
  EXPECT_TRUE(fs.Append(hb, MakeRecords(48)).ok());
}

TEST_F(KvfsTest, AppendIsAtomicOnMidSpanFailure) {
  // 3-page budget; a 4-page span must fail and leave the file unchanged.
  Kvfs fs(Options(EvictionMode::kNone, /*gpu_pages=*/3, /*host_pages=*/0));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle h = *fs.Open("/kv/a", create);
  ASSERT_TRUE(fs.Append(h, MakeRecords(16)).ok());  // 1 page used.
  Status st = fs.Append(h, MakeRecords(48, 700));   // Needs 3 more; only 2 free.
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(*fs.Length(h), 16u);
  EXPECT_EQ(fs.pool().stats().gpu_pages_used, 1u);
}

TEST_F(KvfsTest, RestoreAfterInLoopEvictionRestoresSharedPage) {
  // The fork shares both of /doc's pages. Restoring the first page makes the
  // closed /doc eligible and least recently used, so making room for the
  // second page offloads the first one again. That restore returns OK with a
  // page on the host; the next restore must find the page and bring it back.
  Kvfs fs(Options(EvictionMode::kOffloadLru, /*gpu_pages=*/4, /*host_pages=*/16));
  OpenOptions create{.requester = kAlice, .write = true, .create = true};
  KvHandle doc = *fs.Open("/doc", create);
  ASSERT_TRUE(fs.Append(doc, MakeRecords(32)).ok());  // 2 pages.
  KvHandle fork = *fs.Fork(doc, kAlice);
  ASSERT_TRUE(fs.Close(doc).ok());
  ASSERT_TRUE(fs.OffloadToHost(fork).ok());
  for (int i = 0; i < 4; ++i) {
    KvHandle filler = *fs.Open("/filler/" + std::to_string(i), create);
    ASSERT_TRUE(fs.Append(filler, MakeRecords(16)).ok());  // 1 page.
    ASSERT_TRUE(fs.Close(filler).ok());
  }
  ASSERT_EQ(fs.pool().gpu_pages_free(), 0u);
  ASSERT_TRUE(fs.RestoreToGpu(fork).ok());
  ASSERT_EQ(fs.Stat(fork)->host_pages, 1u);

  uint64_t restored = fs.stats().restored_pages;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs.Remove("/filler/" + std::to_string(i), kAlice).ok());
  }
  ASSERT_TRUE(fs.RestoreToGpu(fork).ok());
  EXPECT_EQ(fs.Stat(fork)->host_pages, 0u);
  EXPECT_EQ(fs.stats().restored_pages, restored + 1);
}

// ---------- Digest sweep ----------

std::vector<TokenRecord> RandomRecords(Rng& rng, uint64_t n) {
  std::vector<TokenRecord> recs(n);
  for (TokenRecord& rec : recs) {
    rec = TokenRecord{static_cast<TokenId>(rng.NextBounded(32000)),
                      static_cast<int32_t>(rng.NextBounded(4096)), rng.NextU64()};
  }
  return recs;
}

// Seeded random operations on a KVFS with a tight GPU budget, under both
// eviction modes and a page quota that caps two of the four owners. Every
// status code, every pool and KVFS counter and the pending transfer bytes
// after each op, and every live file's metadata and records at the end fold
// into one hash. kDigest was recorded when each appended token was its own
// append, quota check and eviction retry, and each restore checked every
// page's tier; appending page runs and skipping resident files must give the
// same bits.
TEST(KvfsDigestTest, MatchesParent) {
  constexpr uint64_t kDigest = 0x48ccfce97ffe2bbbULL;
  constexpr uint64_t kSeeds = 64;
  constexpr int kOps = 300;
  constexpr size_t kMaxOpen = 6;
  uint64_t h = 0;
  auto fold = [&h](uint64_t v) { h = HashCombine(h, v); };
  auto fold_status = [&fold](const Status& st) { fold(static_cast<uint64_t>(st.code())); };
  auto fold_file = [&fold](const KvFileData& data) {
    fold(data.length());
    for (uint64_t i = 0; i < data.length(); ++i) {
      TokenRecord rec = *data.At(i);
      fold(static_cast<uint32_t>(rec.token));
      fold(static_cast<uint32_t>(rec.position));
      fold(rec.state);
    }
  };
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    KvfsOptions options;
    options.gpu_page_budget = 4 + rng.NextBounded(8);
    options.host_page_budget = 4 + rng.NextBounded(20);
    options.eviction = seed % 2 == 0 ? EvictionMode::kDropLru : EvictionMode::kOffloadLru;
    Kvfs fs(options);
    fs.set_page_quota_hook([](LipId owner) -> uint64_t {
      return owner == 12 ? 5 : owner == 13 ? 10 : UINT64_MAX;
    });
    auto owner = [&rng] { return static_cast<LipId>(10 + rng.NextBounded(4)); };
    auto path = [&rng] { return "/f" + std::to_string(rng.NextBounded(12)); };
    std::vector<KvHandle> open;
    auto any_open = [&] { return open[rng.NextBounded(open.size())]; };
    auto keep = [&](const StatusOr<KvHandle>& handle) {
      fold_status(handle.status());
      if (handle.ok()) {
        open.push_back(*handle);
      }
    };
    for (int op = 0; op < kOps; ++op) {
      uint64_t kind = rng.NextBounded(18);
      if (open.empty()) {
        kind %= 2;
      } else if (open.size() >= kMaxOpen) {
        kind = 13;
      }
      fold(kind);
      switch (kind) {
        case 0:
        case 16:
        case 17: {  // Named opens are three of the 18 kinds.
          static constexpr uint8_t kModes[] = {kModePrivate, kModeShared, kModePublic};
          OpenOptions create{.requester = owner(), .write = true, .create = true};
          create.create_mode = kModes[rng.NextBounded(3)];
          keep(fs.Open(path(), create));
          break;
        }
        case 1:
          keep(fs.CreateAnonymous(owner()));
          break;
        case 2:
        case 3:
          fold_status(fs.Append(any_open(), RandomRecords(rng, 1 + rng.NextBounded(40))));
          break;
        case 4:
          keep(fs.Fork(any_open(), rng.NextBounded(3) == 0 ? kNoLip : owner()));
          break;
        case 5: {
          KvHandle handle = any_open();
          fold_status(fs.Truncate(handle, rng.NextBounded(*fs.Length(handle) + 2)));
          break;
        }
        case 6:
          fold_status(fs.OffloadToHost(any_open()));
          break;
        case 7:
          fold(fs.OffloadOwnedBy(owner()));
          break;
        case 8:
        case 9:
          fold_status(fs.RestoreToGpu(any_open()));
          break;
        case 10: {
          Tier tier = rng.NextBounded(2) == 0 ? Tier::kGpu : Tier::kHost;
          fold_status(fs.ImportRecords(any_open(), RandomRecords(rng, 1 + rng.NextBounded(40)),
                                       tier));
          break;
        }
        case 11: {
          std::vector<KvHandle> sources = {any_open(), any_open()};
          keep(fs.Merge(sources, owner()));
          break;
        }
        case 12: {
          KvHandle source = any_open();
          std::vector<uint64_t> indices;
          for (uint64_t i = 0; i <= *fs.Length(source); ++i) {
            if (rng.NextBounded(3) == 0) {
              indices.push_back(i);  // Index length() makes the extract fail.
            }
          }
          keep(fs.Extract(source, indices, owner()));
          break;
        }
        case 13: {
          size_t i = rng.NextBounded(open.size());
          fold_status(fs.Close(open[i]));
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        case 14:
          fold_status(fs.Remove(path(), rng.NextBounded(4) == 0 ? kAdminLip : owner()));
          break;
        case 15: {
          KvHandle handle = any_open();
          StatusOr<TokenRecord> rec = fs.Read(handle, rng.NextBounded(*fs.Length(handle) + 1));
          fold_status(rec.status());
          if (rec.ok()) {
            fold(rec->state);
          }
          break;
        }
      }
      const PagePoolStats& pool = fs.pool().stats();
      for (uint64_t v : {pool.gpu_pages_used, pool.host_pages_used, pool.cow_copies,
                         pool.allocations, pool.frees, pool.tier_moves}) {
        fold(v);
      }
      const KvfsStats& stats = fs.stats();
      for (uint64_t v : {stats.opens, stats.forks, stats.extracts, stats.merges,
                         stats.evicted_files, stats.dropped_files, stats.offloaded_pages,
                         stats.restored_pages, stats.acl_denials, stats.snapshot_exports,
                         stats.snapshot_imports, stats.imported_tokens}) {
        fold(v);
      }
      fold(fs.TakePendingTransferBytes());
    }
    for (const KvFileInfo& info : fs.ListAll()) {
      for (uint64_t v : {uint64_t{info.id}, uint64_t{info.owner}, info.length, info.gpu_pages,
                         info.host_pages, uint64_t{info.open_count},
                         static_cast<uint64_t>(info.last_access)}) {
        fold(v);
      }
    }
    for (KvHandle handle : open) {
      fold_file(**fs.FileData(handle));
    }
    for (const std::string& name : fs.List("/")) {
      fold(Fnv1a(name));
      KvHandle handle = *fs.Open(name, OpenOptions{.requester = kAdminLip});
      fold_file(**fs.FileData(handle));
      ASSERT_TRUE(fs.Close(handle).ok());
    }
  }
  EXPECT_EQ(h, kDigest);
}

}  // namespace
}  // namespace symphony
