// SnapshotStore: a content-addressed, checksummed, reference-counted KV
// snapshot store shared across the cluster.
//
// The paper makes KV cache a first-class, user-managed resource (KVFS); this
// store extends that to the cluster: snapshots of KV-bearing state (journal
// prefixes, hot named KV files) are published once and imported anywhere,
// instead of being recomputed per replica or re-shipped whole per migration.
//
// Content addressing: a snapshot is a set of named append-only byte streams
// (one per journal thread path, or a single "records" stream for a KV file),
// each split into fixed-size chunks. A chunk's key IS the hash of its bytes,
// which doubles as its checksum: an importer recomputes the hash after the
// simulated transfer and any in-flight corruption (FaultPlan byte flips) is
// detected before the data can be served. Because streams are append-only and
// chunk boundaries are fixed offsets, a snapshot that extends an earlier one
// re-publishes only its tail chunks — checkpoint generations and growing
// prefixes dedup structurally.
//
// The snapshot key mixes the model fingerprint with every stream's chunk
// keys, so a snapshot is keyed by (model config, token prefix): identical
// prefixes on different replicas collide into ONE refcounted manifest.
//
// Transfer costs are simulated, not real: the store tracks which replicas
// already hold each chunk, and Fetch reports the bytes that actually had to
// move plus the time those bytes took on the wire. With a NetworkTopology
// wired in (SnapshotStoreOptions::topology — how SymphonyCluster runs it),
// the moved bytes are routed from the nearest caching replica over the same
// physical links as IPC and journal shipping, so a fetch queues behind — and
// delays — concurrent traffic on shared hops. Without one, the flat
// CostModel::NetworkTime charge applies. Callers delay the dependent action
// by the reported transfer_time.
#ifndef SRC_STORE_SNAPSHOT_STORE_H_
#define SRC_STORE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/faults/fault_plan.h"
#include "src/model/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace symphony {

class NetworkTopology;

struct SnapshotStoreOptions {
  // Chunking granularity for serialized streams. Smaller chunks dedup more
  // finely but cost more manifest bookkeeping.
  uint64_t chunk_bytes = 4096;
  // All non-owning; any may be null (features degrade gracefully).
  Simulator* sim = nullptr;           // Virtual clock for windows and traces.
  const CostModel* cost = nullptr;    // Flat interconnect-time fallback.
  FaultPlan* fault_plan = nullptr;    // In-flight corruption injection.
  TraceRecorder* trace = nullptr;     // publish/import spans ("store" track).
  // Routes fetched bytes over the cluster's physical links (from the nearest
  // caching replica), serializing against concurrent IPC and migration
  // traffic. Null = flat CostModel::NetworkTime charge, no link occupancy.
  NetworkTopology* topology = nullptr;
};

// What a publisher hands the store: named append-only streams plus the
// identity/size metadata consumers need for cost decisions.
struct SnapshotPayload {
  std::string label;            // Debug/trace only; not part of the key.
  uint64_t model_fingerprint = 0;
  uint64_t tokens = 0;          // Pred tokens the snapshot covers.
  std::vector<std::pair<std::string, std::string>> streams;
};

struct StreamManifest {
  std::string name;
  uint64_t bytes = 0;
  std::vector<uint64_t> chunks;  // Content-address (= checksum) per chunk.
};

struct SnapshotManifest {
  uint64_t key = 0;
  std::string label;
  uint64_t model_fingerprint = 0;
  uint64_t tokens = 0;
  uint64_t bytes = 0;
  std::vector<StreamManifest> streams;
};

struct PublishResult {
  uint64_t key = 0;
  bool deduped = false;          // An identical snapshot was already stored.
  uint64_t new_bytes = 0;        // Chunk bytes this publish actually added.
  uint64_t deduped_bytes = 0;    // Bytes satisfied by existing chunks.
};

struct FetchResult {
  const SnapshotManifest* manifest = nullptr;
  // Reassembled streams, in manifest order (checksum-verified).
  std::vector<std::pair<std::string, std::string>> streams;
  uint64_t bytes_fetched = 0;    // Moved over the interconnect.
  uint64_t chunks_fetched = 0;
  uint64_t chunk_hits = 0;       // Already cached at the replica.
  SimDuration transfer_time = 0; // Cost-model time for bytes_fetched.
};

struct SnapshotStoreStats {
  uint64_t publishes = 0;
  uint64_t publish_dedup_hits = 0;   // Whole-snapshot dedups.
  uint64_t published_bytes = 0;      // New chunk bytes stored.
  uint64_t deduped_bytes = 0;        // Publish bytes satisfied by dedup.
  uint64_t fetches = 0;
  uint64_t fetched_bytes = 0;        // Bytes that moved over the network.
  uint64_t local_hit_bytes = 0;      // Bytes served from the replica cache.
  uint64_t corrupt_chunks_detected = 0;  // Checksum mismatches on transfer.
  uint64_t corrupt_fetch_failures = 0;   // Fetches aborted after retry.
  uint64_t releases = 0;
  uint64_t snapshots_dropped = 0;
  uint64_t chunks_dropped = 0;
  uint64_t fenced_fetches = 0;  // Fetches refused from fenced replicas.
};

class SnapshotStore {
 public:
  explicit SnapshotStore(SnapshotStoreOptions options = {});

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Stores `payload`, dedup-aware, and returns its content key holding one
  // new reference for the caller (every Publish must eventually be matched
  // by a Release). The publishing replica's cache is marked as holding every
  // chunk — the data originated there. Each chunk is hashed once, for the
  // manifest, and stored under that key.
  PublishResult Publish(size_t replica, const SnapshotPayload& payload);

  // Reassembles snapshot `key` at `replica`: chunks missing from the
  // replica's cache move over the interconnect — routed per source replica
  // through the topology when one is wired, flat cost-model time otherwise;
  // either way reported in the result's transfer_time (0 when nothing moved)
  // — and are checksum-verified on arrival. A mismatch is retried once
  // (fresh fault draw) and then fails the fetch with kUnavailable, so
  // corrupted data is NEVER returned. Does not take a reference.
  StatusOr<FetchResult> Fetch(size_t replica, uint64_t key);

  // Reference counting. A snapshot whose count reaches zero is dropped,
  // along with any chunks no surviving snapshot references.
  Status Acquire(uint64_t key);
  Status Release(uint64_t key);

  // Fencing (control plane, src/ctrl): a fenced replica's fetches fail with
  // kFailedPrecondition and its cached chunks stop being offered as fetch
  // sources — a replica declared dead must be unable to touch shared state
  // until readmitted at a new epoch.
  void SetReplicaFenced(size_t replica, bool fenced);
  // Readmission: the rebuilt replica's chunk cache is gone with its old
  // process, so the store must forget what the old incarnation held.
  void ForgetReplica(size_t replica);

  const SnapshotManifest* Find(uint64_t key) const;
  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  size_t snapshot_count() const { return manifests_.size(); }
  size_t chunk_count() const { return chunks_.size(); }
  uint64_t stored_bytes() const { return stored_bytes_; }
  const SnapshotStoreStats& stats() const { return stats_; }

 private:
  struct Chunk {
    std::string bytes;
    uint64_t refs = 0;
  };
  struct Stored {
    SnapshotManifest manifest;
    uint64_t refs = 0;
  };

  SimTime Now() const;
  std::unordered_set<uint64_t>& CacheFor(size_t replica);
  // The caching replica closest to `replica` in the topology (ties toward
  // the lowest index); SIZE_MAX when no other replica holds the chunk.
  size_t NearestHolder(size_t replica, uint64_t chunk_key) const;

  SnapshotStoreOptions options_;
  std::unordered_map<uint64_t, Chunk> chunks_;
  std::unordered_map<uint64_t, Stored> manifests_;
  // Per-replica set of locally cached chunk keys (grown on demand).
  std::vector<std::unordered_set<uint64_t>> local_;
  std::vector<bool> fenced_;
  uint64_t stored_bytes_ = 0;
  SnapshotStoreStats stats_;
};

// Content address (= checksum) of one chunk. Exposed for tests that need to
// prove a corrupted chunk can never keep its address.
uint64_t SnapshotChunkKey(std::string_view bytes);

}  // namespace symphony

#endif  // SRC_STORE_SNAPSHOT_STORE_H_
