#include "perfbench/src/reference.h"

#include <algorithm>

namespace symphony {
namespace perfbench {
namespace {

constexpr uint64_t kHashEntries = 32768;
constexpr size_t kSortKeys = 1024;

// Work per chunk.
constexpr uint64_t kHashLookups = 18000;
constexpr int kSorts = 4;

// splitmix64, kept local so the kernel depends on nothing in src/.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Reference::Reference() : unsorted_(kSortKeys), scratch_(kSortKeys) {
  for (uint64_t i = 0; i < kHashEntries; ++i) {
    hash_[Mix(i)] = i;
  }
  for (size_t i = 0; i < kSortKeys; ++i) {
    unsorted_[i] = Mix(i + kHashEntries);
  }
}

void Reference::RunChunk() {
  uint64_t acc = 0;
  // Half of the keys are present.
  uint64_t base = round_++ * kHashLookups;
  for (uint64_t i = 0; i < kHashLookups; ++i) {
    auto it = hash_.find(Mix((base + i) % (2 * kHashEntries)));
    acc += it == hash_.end() ? 1 : it->second;
  }
  for (int s = 0; s < kSorts; ++s) {
    std::copy(unsorted_.begin(), unsorted_.end(), scratch_.begin());
    std::rotate(scratch_.begin(), scratch_.begin() + (acc + s) % kSortKeys,
                scratch_.end());
    std::sort(scratch_.begin(), scratch_.end());
    acc += scratch_[kSortKeys / 2];
  }
  // Keeps the work observable, so the compiler cannot drop it.
  checksum_ += acc;
}

Reference& reference() {
  static Reference* instance = new Reference();
  return *instance;
}

}  // namespace perfbench
}  // namespace symphony
