// Tests for src/store: content addressing, chunk dedup, reference counting,
// local-vs-remote fetch accounting, corruption detection, the journal codec,
// and checkpoint fold / rehydrate round trips.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/model/cost_model.h"
#include "src/model/model_config.h"
#include "src/net/topology.h"
#include "src/recovery/journal.h"
#include "src/sim/event_queue.h"
#include "src/store/journal_checkpoint.h"
#include "src/store/snapshot_store.h"

namespace symphony {
namespace {

std::string Bytes(size_t n, char fill) { return std::string(n, fill); }

// Distinct bytes per position (seeded) so fixed-size chunks don't all
// collapse into one content address.
std::string VariedBytes(size_t n, uint64_t seed) {
  std::string out(n, '\0');
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    out[i] = static_cast<char>(x >> 56);
  }
  return out;
}

SnapshotPayload Payload(const std::string& label, uint64_t fingerprint,
                        uint64_t tokens, std::string stream) {
  SnapshotPayload payload;
  payload.label = label;
  payload.model_fingerprint = fingerprint;
  payload.tokens = tokens;
  payload.streams.emplace_back("records", std::move(stream));
  return payload;
}

// ---- Content addressing -------------------------------------------------

TEST(SnapshotStoreTest, IdenticalPayloadsCollideIntoOneSnapshot) {
  SnapshotStore store;
  PublishResult a = store.Publish(0, Payload("a", 7, 100, Bytes(10000, 'x')));
  PublishResult b = store.Publish(1, Payload("b", 7, 100, Bytes(10000, 'x')));
  EXPECT_EQ(a.key, b.key);
  EXPECT_FALSE(a.deduped);
  EXPECT_TRUE(b.deduped);
  EXPECT_EQ(store.snapshot_count(), 1u);
  EXPECT_EQ(b.new_bytes, 0u);
  EXPECT_EQ(store.stats().publish_dedup_hits, 1u);
  // The label is metadata, not identity — but the model fingerprint is: the
  // same bytes under a different model must NOT collide.
  PublishResult c = store.Publish(0, Payload("a", 8, 100, Bytes(10000, 'x')));
  EXPECT_NE(c.key, a.key);
  EXPECT_EQ(store.snapshot_count(), 2u);
}

TEST(SnapshotStoreTest, ChunkKeyChangesWhenAnyByteChanges) {
  std::string bytes = Bytes(4096, 'q');
  uint64_t key = SnapshotChunkKey(bytes);
  for (size_t i : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    EXPECT_NE(SnapshotChunkKey(corrupt), key) << "flipped byte " << i;
  }
  // Length is part of the address: a truncated chunk can't keep it either.
  EXPECT_NE(SnapshotChunkKey(std::string(bytes, 0, 4095)), key);
}

// ---- Structural dedup across growing streams ----------------------------

TEST(SnapshotStoreTest, GrowingStreamRepublishesOnlyTailChunks) {
  SnapshotStoreOptions options;
  options.chunk_bytes = 1024;
  SnapshotStore store(options);
  std::string generation1 = VariedBytes(8 * 1024, 7);
  PublishResult first = store.Publish(0, Payload("ckpt", 1, 64, generation1));
  EXPECT_EQ(first.new_bytes, generation1.size());
  // Generation 2 extends generation 1 by two chunks.
  std::string generation2 = generation1 + VariedBytes(2 * 1024, 8);
  PublishResult second = store.Publish(0, Payload("ckpt", 1, 80, generation2));
  EXPECT_NE(second.key, first.key);
  EXPECT_EQ(second.new_bytes, 2 * 1024u);
  EXPECT_EQ(second.deduped_bytes, generation1.size());
  // Dropping the first generation must not strand the shared prefix chunks.
  ASSERT_TRUE(store.Release(first.key).ok());
  StatusOr<FetchResult> fetch = store.Fetch(0, second.key);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->streams[0].second, generation2);
}

// ---- Reference counting -------------------------------------------------

TEST(SnapshotStoreTest, RefcountDropsSnapshotAndUnsharedChunksAtZero) {
  SnapshotStoreOptions options;
  options.chunk_bytes = 1024;
  SnapshotStore store(options);
  PublishResult a = store.Publish(0, Payload("a", 1, 10, Bytes(4096, 'a')));
  PublishResult b =
      store.Publish(0, Payload("b", 1, 20, Bytes(4096, 'a') + Bytes(1024, 'b')));
  ASSERT_TRUE(store.Acquire(a.key).ok());  // a: 2 refs.
  ASSERT_TRUE(store.Release(a.key).ok());
  EXPECT_TRUE(store.Contains(a.key));      // 1 ref left.
  ASSERT_TRUE(store.Release(a.key).ok());
  EXPECT_FALSE(store.Contains(a.key));
  // b still resolves: the chunks it shared with a survived a's drop.
  StatusOr<FetchResult> fetch = store.Fetch(0, b.key);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->streams[0].second, Bytes(4096, 'a') + Bytes(1024, 'b'));
  ASSERT_TRUE(store.Release(b.key).ok());
  EXPECT_EQ(store.snapshot_count(), 0u);
  EXPECT_EQ(store.chunk_count(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_FALSE(store.Release(b.key).ok());  // Double release is an error.
}

// ---- Local vs. remote fetch accounting ----------------------------------

TEST(SnapshotStoreTest, FetchMovesBytesOnlyForChunksTheReplicaLacks) {
  CostModel cost(ModelConfig::Tiny());
  SnapshotStoreOptions options;
  options.chunk_bytes = 1024;
  options.cost = &cost;
  SnapshotStore store(options);
  std::string data = VariedBytes(5 * 1024, 13);
  PublishResult pub = store.Publish(0, Payload("p", 1, 40, data));
  // The publisher holds every chunk: a local fetch moves nothing.
  StatusOr<FetchResult> local = store.Fetch(0, pub.key);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->bytes_fetched, 0u);
  EXPECT_EQ(local->transfer_time, 0);
  EXPECT_EQ(local->chunk_hits, 5u);
  // Replica 1 has nothing cached: everything moves, and interconnect time is
  // charged for exactly those bytes.
  StatusOr<FetchResult> remote = store.Fetch(1, pub.key);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->bytes_fetched, data.size());
  EXPECT_EQ(remote->transfer_time, cost.NetworkTime(data.size()));
  EXPECT_EQ(remote->streams[0].second, data);
  // The fetch warmed replica 1's cache: a second fetch is free.
  StatusOr<FetchResult> again = store.Fetch(1, pub.key);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->bytes_fetched, 0u);
  EXPECT_EQ(store.stats().fetched_bytes, data.size());
  EXPECT_GT(store.stats().local_hit_bytes, 0u);
}

// With a topology wired in, fetches route moved chunks from the nearest
// caching replica over physical links instead of the flat cost-model charge.
// On the idle single-switch mesh both agree exactly; local and repeat
// fetches still move nothing and take no time.
TEST(SnapshotStoreTest, FetchRoutesMovedChunksThroughTheTopology) {
  Simulator sim;
  CostModel cost(ModelConfig::Tiny());
  NetworkTopology topo(&sim, &cost, nullptr, nullptr);
  SnapshotStoreOptions options;
  options.chunk_bytes = 1024;
  options.sim = &sim;
  options.cost = &cost;
  options.topology = &topo;
  SnapshotStore store(options);
  std::string data = VariedBytes(5 * 1024, 29);
  PublishResult pub = store.Publish(0, Payload("p", 1, 40, data));
  StatusOr<FetchResult> local = store.Fetch(0, pub.key);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->transfer_time, 0);
  EXPECT_EQ(topo.stats().net_transfers, 0u);  // Nothing moved, nothing routed.
  StatusOr<FetchResult> remote = store.Fetch(1, pub.key);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->bytes_fetched, data.size());
  // Idle single-source transfer == the legacy flat charge, and the bytes are
  // now visible on the publisher->fetcher link.
  EXPECT_EQ(remote->transfer_time, cost.NetworkTime(data.size()));
  EXPECT_EQ(topo.stats().net_transfers, 1u);
  EXPECT_EQ(topo.stats().net_payload_bytes, data.size());
  std::vector<TopoLinkReport> links = topo.LinkReport();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].name, "link:replica0->replica1");
  EXPECT_EQ(links[0].stats.bytes, data.size());
  // The fetch warmed replica 1's cache: repeating it routes nothing.
  StatusOr<FetchResult> again = store.Fetch(1, pub.key);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->bytes_fetched, 0u);
  EXPECT_EQ(again->transfer_time, 0);
  EXPECT_EQ(topo.stats().net_transfers, 1u);
}

// ---- Corruption detection -----------------------------------------------

TEST(SnapshotStoreTest, CorruptedTransfersAreDetectedNeverServed) {
  Simulator sim;
  FaultPlan plan(99);
  plan.AddKvCorruption(/*at=*/0, /*duration=*/Millis(100), /*prob=*/1.0);
  SnapshotStoreOptions options;
  options.chunk_bytes = 1024;
  options.sim = &sim;
  options.fault_plan = &plan;
  SnapshotStore store(options);
  std::string data = Bytes(4 * 1024, 'c');
  PublishResult pub = store.Publish(0, Payload("c", 1, 30, data));
  // Local fetch never transfers, so the window can't touch it.
  ASSERT_TRUE(store.Fetch(0, pub.key).ok());
  // Remote fetch inside the window: every transfer (and every retry)
  // corrupts, so the fetch must FAIL — corrupt bytes must never come back.
  StatusOr<FetchResult> remote = store.Fetch(1, pub.key);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(store.stats().corrupt_chunks_detected, 0u);
  EXPECT_EQ(store.stats().corrupt_fetch_failures, 1u);
  EXPECT_GT(plan.stats().kv_corruptions, 0u);
  // Past the window the same fetch succeeds byte-identically.
  sim.ScheduleAt(Millis(200), [&] {
    StatusOr<FetchResult> after = store.Fetch(1, pub.key);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->streams[0].second, data);
  });
  sim.Run();
}

// ---- Journal codec ------------------------------------------------------

std::vector<JournalEntry> SampleEntries() {
  std::vector<JournalEntry> entries;
  JournalEntry pred;
  pred.kind = JournalEntry::Kind::kPred;
  pred.tokens = {3, 7, 11};
  pred.start = 4;
  pred.states = {0xAAULL, 0xBBULL, 0xCCULL};
  entries.push_back(pred);
  JournalEntry tool;
  tool.kind = JournalEntry::Kind::kTool;
  tool.status = UnavailableError("tool down");
  tool.payload = "partial-output";
  entries.push_back(tool);
  JournalEntry sleep;
  sleep.kind = JournalEntry::Kind::kSleep;
  sleep.duration = Millis(7);
  entries.push_back(sleep);
  JournalEntry recv;
  recv.kind = JournalEntry::Kind::kRecv;
  recv.payload = std::string("msg\0with-nul", 12);
  entries.push_back(recv);
  return entries;
}

void ExpectEntriesEqual(const std::vector<JournalEntry>& got,
                        const std::vector<JournalEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].status.code(), want[i].status.code()) << i;
    EXPECT_EQ(got[i].status.message(), want[i].status.message()) << i;
    EXPECT_EQ(got[i].tokens, want[i].tokens) << i;
    EXPECT_EQ(got[i].start, want[i].start) << i;
    EXPECT_EQ(got[i].states, want[i].states) << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << i;
    EXPECT_EQ(got[i].duration, want[i].duration) << i;
  }
}

TEST(JournalCodecTest, EntriesRoundTrip) {
  std::vector<JournalEntry> entries = SampleEntries();
  std::string bytes = SerializeJournalEntries(entries);
  StatusOr<std::vector<JournalEntry>> parsed = ParseJournalEntries(bytes);
  ASSERT_TRUE(parsed.ok());
  ExpectEntriesEqual(*parsed, entries);
  // Truncated input must fail cleanly, not misparse.
  EXPECT_FALSE(ParseJournalEntries(bytes.substr(0, bytes.size() - 3)).ok());
}

TEST(JournalCodecTest, SerializationIsPrefixStable) {
  // The dedup contract: serializing [0, n) then [0, m), m > n, yields
  // byte-identical prefixes, so checkpoint generations share chunks.
  std::vector<JournalEntry> entries = SampleEntries();
  std::vector<JournalEntry> shorter(entries.begin(), entries.end() - 1);
  std::string full = SerializeJournalEntries(entries);
  std::string prefix = SerializeJournalEntries(shorter);
  ASSERT_LT(prefix.size(), full.size());
  EXPECT_EQ(full.substr(0, prefix.size()), prefix);
}

TEST(JournalCodecTest, TokenRecordsRoundTrip) {
  std::vector<TokenRecord> records;
  for (uint32_t i = 0; i < 33; ++i) {
    records.push_back(TokenRecord{static_cast<TokenId>(i * 3),
                                  static_cast<int32_t>(i), 0x1000ULL + i});
  }
  std::string bytes = SerializeTokenRecords(records);
  StatusOr<std::vector<TokenRecord>> parsed = ParseTokenRecords(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].token, records[i].token);
    EXPECT_EQ((*parsed)[i].position, records[i].position);
    EXPECT_EQ((*parsed)[i].state, records[i].state);
  }
  EXPECT_FALSE(ParseTokenRecords(bytes.substr(0, bytes.size() - 1)).ok());
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) {
    // One byte in four is NUL.
    c = rng.NextBounded(4) == 0 ? '\0'
                                : static_cast<char>(rng.NextBounded(256));
  }
  return out;
}

// A vector length that is often empty or 1 and now and then long.
size_t RandomLength(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return rng.NextBounded(16);
    default:
      return 300 + rng.NextBounded(400);
  }
}

JournalEntry RandomEntry(Rng& rng) {
  JournalEntry entry;
  entry.kind = static_cast<JournalEntry::Kind>(rng.NextBounded(6));
  if (rng.NextBounded(3) == 0) {
    entry.status = Status(static_cast<StatusCode>(1 + rng.NextBounded(12)),
                          RandomBytes(rng, rng.NextBounded(24)));
  }
  size_t n = RandomLength(rng);
  for (size_t i = 0; i < n; ++i) {
    entry.tokens.push_back(static_cast<TokenId>(rng.NextU64()));
    entry.states.push_back(rng.NextU64());
  }
  // Unequal lengths too: the codec writes each vector with its own count.
  entry.states.resize(RandomLength(rng) % (n + 2));
  entry.start = static_cast<int32_t>(rng.NextU64());
  entry.payload = RandomBytes(rng, RandomLength(rng));
  entry.duration = static_cast<SimDuration>(rng.NextU64());
  entry.channel = RandomBytes(rng, rng.NextBounded(12));
  entry.ordinal = rng.NextU64();
  return entry;
}

// Pins the journal byte format, JournalLiveBytes and the store's chunk
// keying. The expected value was recorded before the codec learned to
// presize its writes and Publish stopped hashing each chunk twice, and
// re-recorded once since: RandomEntry now draws a pred's start, which the
// format stores in one field in place of a per-token positions vector.
TEST(JournalCodecTest, EncodingMatchesParent) {
  uint64_t digest = 0;
  auto fold = [&digest](uint64_t value) {
    digest = HashCombine(digest, value);
  };
  const std::vector<std::string> paths = {"0", "0.1", "0.1.0"};
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    SyscallJournal journal;
    journal.name = "codec" + std::to_string(seed);
    std::vector<std::vector<JournalEntry>> by_path(paths.size());
    for (int i = 0; i < 64; ++i) {
      size_t p = rng.NextBounded(paths.size());
      JournalEntry entry = RandomEntry(rng);
      std::string bytes;
      AppendJournalEntry(&bytes, entry);
      fold(Fnv1a(bytes));
      fold(bytes.size());
      by_path[p].push_back(entry);
      journal.Append(paths[p], std::move(entry));
    }
    fold(JournalLiveBytes(journal));

    // Publish the first half of every stream, then the whole: the second
    // publish stores its tail chunks and dedups the shared prefix.
    SnapshotStoreOptions options;
    options.chunk_bytes = 512;
    SnapshotStore store(options);
    for (size_t half : {2, 1}) {
      SnapshotPayload payload;
      payload.label = journal.name;
      payload.model_fingerprint = seed;
      for (size_t p = 0; p < paths.size(); ++p) {
        std::vector<JournalEntry> entries(
            by_path[p].begin(),
            by_path[p].begin() +
                static_cast<std::ptrdiff_t>(by_path[p].size() / half));
        payload.streams.emplace_back(paths[p],
                                     SerializeJournalEntries(entries));
      }
      PublishResult published = store.Publish(0, payload);
      fold(published.key);
      fold(published.new_bytes);
      fold(published.deduped_bytes);
      const SnapshotManifest* manifest = store.Find(published.key);
      ASSERT_NE(manifest, nullptr);
      for (const StreamManifest& stream : manifest->streams) {
        fold(stream.bytes);
        for (uint64_t chunk : stream.chunks) {
          fold(chunk);
        }
      }
    }
    // Re-publishing identical content takes the whole-snapshot dedup path.
    SnapshotPayload again;
    again.label = journal.name;
    again.model_fingerprint = seed;
    for (size_t p = 0; p < paths.size(); ++p) {
      again.streams.emplace_back(paths[p],
                                 SerializeJournalEntries(by_path[p]));
    }
    PublishResult dedup = store.Publish(1, again);
    EXPECT_TRUE(dedup.deduped);
    fold(dedup.key);
    fold(dedup.deduped_bytes);
    fold(store.stored_bytes());
  }
  EXPECT_EQ(digest, 0xc7ae07174e911f1bULL);
}

// ---- Checkpoint fold / rehydrate ----------------------------------------

JournalEntry PredEntry(uint32_t n) {
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kPred;
  entry.tokens = {static_cast<TokenId>(n)};
  entry.start = static_cast<int32_t>(n);
  entry.states = {0x5000ULL + n};
  return entry;
}

TEST(JournalCheckpointTest, FoldThenRehydrateRestoresTheFullLog) {
  SnapshotStoreOptions options;
  options.chunk_bytes = 256;
  SnapshotStore store(options);
  SyscallJournal journal;
  journal.name = "agent";
  for (uint32_t i = 0; i < 20; ++i) {
    journal.Append(i % 2 == 0 ? "0" : "0.1", PredEntry(i));
  }
  std::string before = SerializeJournalEntries(
      [&] {
        std::vector<JournalEntry> all;
        for (uint32_t i = 0; i < 20; ++i) {
          all.push_back(*journal.At(i % 2 == 0 ? "0" : "0.1", i / 2));
        }
        return all;
      }());

  StatusOr<CheckpointOutcome> fold = CheckpointJournal(store, 0, 42, journal);
  ASSERT_TRUE(fold.ok());
  EXPECT_EQ(fold->folded_entries, 20u);
  EXPECT_EQ(journal.live_entries(), 0u);
  EXPECT_EQ(journal.folded_entries(), 20u);
  EXPECT_EQ(journal.checkpoint_key(), fold->key);
  EXPECT_TRUE(store.Contains(fold->key));
  // Logical indexing survives truncation.
  EXPECT_EQ(journal.total_entries(), 20u);
  EXPECT_EQ(journal.EntryCount("0"), 10u);
  EXPECT_EQ(journal.At("0", 3), nullptr);
  EXPECT_TRUE(journal.FoldedAt("0", 3));
  EXPECT_FALSE(journal.FoldedAt("0", 10));

  // Entries appended after the fold live alongside the truncated prefix.
  journal.Append("0", PredEntry(100));
  EXPECT_EQ(journal.live_entries(), 1u);

  // Rehydrate at another replica: the prefix comes back and indices resolve.
  StatusOr<RehydrateOutcome> wet = RehydrateJournal(store, 1, journal);
  ASSERT_TRUE(wet.ok());
  EXPECT_EQ(wet->entries_restored, 20u);
  EXPECT_GT(wet->bytes_fetched, 0u);
  EXPECT_EQ(journal.folded_entries(), 0u);
  EXPECT_EQ(journal.live_entries(), 21u);
  for (uint32_t i = 0; i < 20; ++i) {
    const JournalEntry* entry = journal.At(i % 2 == 0 ? "0" : "0.1", i / 2);
    ASSERT_NE(entry, nullptr) << i;
    EXPECT_EQ(entry->tokens[0], static_cast<TokenId>(i)) << i;
  }
  EXPECT_EQ(journal.At("0", 10)->tokens[0], 100);
  // The checkpoint reference is kept for dedup on the next fold.
  EXPECT_EQ(journal.checkpoint_key(), fold->key);

  // Next fold supersedes: the old checkpoint's ref moves to the new key, and
  // prefix-stable serialization makes the second generation mostly dedup.
  StatusOr<CheckpointOutcome> fold2 = CheckpointJournal(store, 0, 42, journal);
  ASSERT_TRUE(fold2.ok());
  EXPECT_NE(fold2->key, fold->key);
  EXPECT_FALSE(store.Contains(fold->key));
  EXPECT_LT(fold2->new_bytes, before.size());
  EXPECT_EQ(journal.checkpoint_key(), fold2->key);
}

TEST(JournalCheckpointTest, FoldFailureLeavesTheJournalUntouched) {
  Simulator sim;
  FaultPlan plan(5);
  SnapshotStoreOptions options;
  options.chunk_bytes = 128;
  options.sim = &sim;
  options.fault_plan = &plan;
  SnapshotStore store(options);
  SyscallJournal journal;
  for (uint32_t i = 0; i < 8; ++i) {
    journal.Append("0", PredEntry(i));
  }
  ASSERT_TRUE(CheckpointJournal(store, 0, 1, journal).ok());
  for (uint32_t i = 8; i < 12; ++i) {
    journal.Append("0", PredEntry(i));
  }
  // A permanent corruption window: the second fold must re-read the first
  // checkpoint at replica 1 (no local chunks), which fails — and the journal
  // must be exactly as fat as before the attempt.
  plan.AddKvCorruption(0, Millis(1000), 1.0);
  uint64_t live_before = journal.live_entries();
  uint64_t key_before = journal.checkpoint_key();
  StatusOr<CheckpointOutcome> fold = CheckpointJournal(store, 1, 1, journal);
  EXPECT_FALSE(fold.ok());
  EXPECT_EQ(journal.live_entries(), live_before);
  EXPECT_EQ(journal.folded_entries(), 8u);
  EXPECT_EQ(journal.checkpoint_key(), key_before);
}

TEST(JournalCheckpointTest, FoldHookTriggersAtIntervalAndBoundsLiveEntries) {
  SnapshotStore store;
  SyscallJournal journal;
  uint64_t folds = 0;
  journal.set_fold_hook(
      [&store, &folds](SyscallJournal& j) {
        ASSERT_TRUE(CheckpointJournal(store, 0, 9, j).ok());
        ++folds;
      },
      /*interval=*/4);
  for (uint32_t i = 0; i < 23; ++i) {
    journal.Append("0", PredEntry(i));
    EXPECT_LE(journal.live_entries(), 4u);
  }
  EXPECT_EQ(folds, 5u);
  EXPECT_EQ(journal.total_entries(), 23u);
  EXPECT_EQ(journal.live_entries(), 3u);
}

}  // namespace
}  // namespace symphony
