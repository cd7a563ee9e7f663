// Microbenchmarks for KVFS operations (google-benchmark).
//
// Measures the real (host CPU) cost of the KVFS data structures themselves:
// append, fork, copy-on-write divergence, restore, extract, merge, eviction
// scans, and path lookups. These are the operations every pred syscall touches, so
// their constant factors bound the simulator's and — in a real port — the
// serving system's control-plane overhead.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/kvfs/kvfs.h"

namespace symphony {
namespace {

KvfsOptions BigOptions() {
  KvfsOptions o;
  o.gpu_page_budget = 1 << 20;
  o.host_page_budget = 1 << 20;
  return o;
}

// The records a pred writes for n prompt tokens: positions 0..n-1 and each
// state the Model::Advance of the one before.
std::vector<TokenRecord> MakeRecords(size_t n) {
  std::vector<TokenRecord> recs(n);
  HiddenState state = 0x5eed;
  for (size_t i = 0; i < n; ++i) {
    TokenId token = static_cast<TokenId>(260 + (i % 1000));
    int32_t position = static_cast<int32_t>(i);
    state = Model::Advance(state, token, position);
    recs[i] = TokenRecord{token, position, state};
  }
  return recs;
}

// Records whose states do not chain (imported or synthetic records).
std::vector<TokenRecord> MakeUnchainedRecords(size_t n) {
  std::vector<TokenRecord> recs(n);
  for (size_t i = 0; i < n; ++i) {
    recs[i] = TokenRecord{static_cast<TokenId>(260 + (i % 1000)),
                          static_cast<int32_t>(i), 0x9e3779b9ULL * (i + 1)};
  }
  return recs;
}

void BM_Append(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  std::vector<TokenRecord> recs = MakeRecords(tokens);
  for (auto _ : state) {
    Kvfs fs(BigOptions());
    KvHandle h = *fs.CreateAnonymous(kAdminLip);
    benchmark::DoNotOptimize(fs.Append(h, recs));
    (void)fs.Close(h);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tokens));
}
BENCHMARK(BM_Append)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AppendUnchained(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  std::vector<TokenRecord> recs = MakeUnchainedRecords(tokens);
  for (auto _ : state) {
    Kvfs fs(BigOptions());
    KvHandle h = *fs.CreateAnonymous(kAdminLip);
    benchmark::DoNotOptimize(fs.Append(h, recs));
    (void)fs.Close(h);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tokens));
}
BENCHMARK(BM_AppendUnchained)->Arg(3000);

// Append by a non-admin owner that has a page limit, so every page run
// counts the owner's pages with one scan of the file table, as a LIP's
// appends are under a LipQuota with max_kv_pages set.
void BM_AppendOwned(benchmark::State& state) {
  constexpr LipId kOwner = 10;
  const size_t tokens = static_cast<size_t>(state.range(0));
  std::vector<TokenRecord> recs = MakeRecords(tokens);
  for (auto _ : state) {
    Kvfs fs(BigOptions());
    fs.SetPageQuota(kOwner, 1 << 20);
    KvHandle h = *fs.CreateAnonymous(kOwner);
    benchmark::DoNotOptimize(fs.Append(h, recs));
    (void)fs.Close(h);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tokens));
}
BENCHMARK(BM_AppendOwned)->Arg(3000);

void BM_Fork(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Kvfs fs(BigOptions());
  KvHandle base = *fs.CreateAnonymous(kAdminLip);
  (void)fs.Append(base, MakeRecords(tokens));
  for (auto _ : state) {
    StatusOr<KvHandle> fork = fs.Fork(base, kAdminLip);
    benchmark::DoNotOptimize(fork);
    (void)fs.Close(*fork);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fork)->Arg(128)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ForkThenDivergentAppend(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Kvfs fs(BigOptions());
  KvHandle base = *fs.CreateAnonymous(kAdminLip);
  (void)fs.Append(base, MakeRecords(tokens));
  std::vector<TokenRecord> tail = MakeRecords(tokens + 1);
  tail.erase(tail.begin(), tail.end() - 1);  // Continues the base's chain.
  for (auto _ : state) {
    KvHandle fork = *fs.Fork(base, kAdminLip);
    benchmark::DoNotOptimize(fs.Append(fork, tail));  // Triggers one COW.
    (void)fs.Close(fork);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForkThenDivergentAppend)->Arg(1024)->Arg(8192);

// RestoreToGpu on a fork whose pages are all on the GPU already: what every
// pred on a forked document pays before it runs.
void BM_RestoreResident(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Kvfs fs(BigOptions());
  KvHandle base = *fs.CreateAnonymous(kAdminLip);
  (void)fs.Append(base, MakeRecords(tokens));
  KvHandle fork = *fs.Fork(base, kAdminLip);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.RestoreToGpu(fork));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RestoreResident)->Arg(3000);

void BM_Extract(benchmark::State& state) {
  const size_t tokens = 8192;
  const size_t keep = static_cast<size_t>(state.range(0));
  Kvfs fs(BigOptions());
  KvHandle base = *fs.CreateAnonymous(kAdminLip);
  (void)fs.Append(base, MakeRecords(tokens));
  std::vector<uint64_t> indices;
  for (size_t i = 0; i < keep; ++i) {
    indices.push_back(i * (tokens / keep));
  }
  for (auto _ : state) {
    StatusOr<KvHandle> extracted = fs.Extract(base, indices, kAdminLip);
    benchmark::DoNotOptimize(extracted);
    (void)fs.Close(*extracted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * keep));
}
BENCHMARK(BM_Extract)->Arg(16)->Arg(256)->Arg(4096);

void BM_Merge(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Kvfs fs(BigOptions());
  KvHandle a = *fs.CreateAnonymous(kAdminLip);
  KvHandle b = *fs.CreateAnonymous(kAdminLip);
  (void)fs.Append(a, MakeRecords(tokens));
  (void)fs.Append(b, MakeRecords(tokens));
  std::vector<KvHandle> sources = {a, b};
  for (auto _ : state) {
    StatusOr<KvHandle> merged = fs.Merge(sources, kAdminLip);
    benchmark::DoNotOptimize(merged);
    (void)fs.Close(*merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tokens * 2));
}
BENCHMARK(BM_Merge)->Arg(128)->Arg(2048);

void BM_PathLookup(benchmark::State& state) {
  const int files = static_cast<int>(state.range(0));
  Kvfs fs(BigOptions());
  for (int i = 0; i < files; ++i) {
    KvHandle h = *fs.Open("/kv/file_" + std::to_string(i),
                          OpenOptions{.requester = kAdminLip,
                                      .write = true,
                                      .create = true});
    (void)fs.Close(h);
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.Exists("/kv/file_" + std::to_string(i % files)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathLookup)->Arg(16)->Arg(1024);

void BM_EvictionDropLru(benchmark::State& state) {
  // Steady-state cache churn: insert named files into a full tier so every
  // insert evicts the LRU victim.
  KvfsOptions options;
  options.gpu_page_budget = 64;  // 16 files x 4 pages.
  options.host_page_budget = 0;
  options.eviction = EvictionMode::kDropLru;
  Kvfs fs(options);
  std::vector<TokenRecord> recs = MakeRecords(64);
  uint64_t id = 0;
  for (auto _ : state) {
    KvHandle h = *fs.Open("/cache/" + std::to_string(id++),
                          OpenOptions{.requester = kAdminLip,
                                      .write = true,
                                      .create = true});
    benchmark::DoNotOptimize(fs.Append(h, recs));
    (void)fs.Close(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvictionDropLru);

void BM_TailState(benchmark::State& state) {
  Kvfs fs(BigOptions());
  KvHandle h = *fs.CreateAnonymous(kAdminLip);
  (void)fs.Append(h, MakeRecords(4096));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.TailState(h));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TailState);

}  // namespace
}  // namespace symphony

BENCHMARK_MAIN();
