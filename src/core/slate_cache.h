// The slate cache (paper §4.2): slates live in the memory of the machine
// running the updater, backed by the durable key-value store. Muppet 1.0
// gave each worker process its own cache; Muppet 2.0 keeps "all slates ...
// in a single 'central' slate cache" per machine (§4.5) — both engines use
// this class, differing only in how many instances they create (E6
// measures the working-set consequence).
//
// Eviction is LRU by slate count. Dirty slates are written back through a
// caller-provided writer according to the per-updater flush policy
// (write-through / interval / on-evict, §4.2).
//
// The cache is one logical cache, lock-striped: a slate lives in one of N
// shards picked by its id hash, and each shard has its own mutex, LRU list,
// index and counters, so worker threads touching different slates do not
// serialize on one lock. N = clamp(capacity / 4096, 1, 16) and the shard
// capacities sum to `capacity`; a cache under 8,192 slates is a single LRU.
// Eviction is LRU within a shard. No path holds two shard mutexes at once.
// The rule reads only the capacity, so a Muppet 1.0 per-worker cache is
// striped too (4 shards for the default 16,384-slate budget and one
// updater worker per machine) although only its worker and the flusher
// touch it; the id is hashed once per call for both the shard and the
// index, so a single-threaded cache pays no measurable cost for it.
#ifndef MUPPET_CORE_SLATE_CACHE_H_
#define MUPPET_CORE_SLATE_CACHE_H_

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/slate.h"

namespace muppet {

struct SlateCacheOptions {
  // Maximum number of cached slates (the paper sizes caches in slates:
  // "a slate cache of 100 slates", §4.5).
  size_t capacity = 10000;
};

class SlateCache {
 public:
  // Writer invoked to persist a dirty slate (on write-through, interval
  // flush, or eviction). An empty value with `deleted` set means the slate
  // was deleted.
  struct DirtySlate {
    SlateId id;
    Bytes value;
    bool deleted = false;
  };
  using WriteBack = std::function<Status(const DirtySlate&)>;

  SlateCache(SlateCacheOptions options, WriteBack write_back);

  SlateCache(const SlateCache&) = delete;
  SlateCache& operator=(const SlateCache&) = delete;

  // Cache lookup. OK -> *value filled. NotFound -> not cached (the caller
  // fetches from the store and calls Insert).
  Status Lookup(const SlateId& id, Bytes* value);

  // Insert a clean slate fetched from the store (may evict).
  Status Insert(const SlateId& id, BytesView value);

  // Record a slate update from an updater. `write_through` forces an
  // immediate write-back (SlateFlushPolicy::kWriteThrough); otherwise the
  // slate is marked dirty with `now` for interval flushing. May evict.
  Status Update(const SlateId& id, BytesView value, Timestamp now,
                bool write_through);

  // Delete a slate (tombstones the cache entry and writes the delete
  // through to the store).
  Status Delete(const SlateId& id);

  // Flush slates dirty since before `dirty_before`; pass INT64_MAX to
  // flush everything (shutdown). Returns the number flushed. Walks one
  // shard at a time: collect its dirty slates under its lock, write them
  // back outside it, then unpin them — so a flush never locks the whole
  // cache and copies at most one shard's dirty set.
  Result<int> FlushDirty(Timestamp dirty_before);

  // As FlushDirty, restricted to one updater's slates — the central cache
  // of Muppet 2.0 holds slates of many updaters with different flush
  // intervals (§4.2), so the flusher sweeps per updater.
  Result<int> FlushDirtyFor(const std::string& updater,
                            Timestamp dirty_before);

  // Negative cache marker: remember that the store has no such slate, so
  // repeated first-touch events don't re-fetch. Represented as a cached
  // empty "absent" entry.
  void InsertAbsent(const SlateId& id);
  // Lookup including absent markers: returns OK with *absent=true for a
  // negative entry.
  Status LookupWithAbsent(const SlateId& id, Bytes* value, bool* absent);

  // Drop every entry *without* writing dirty slates back — crash
  // semantics: "whatever changes ... not yet been flushed to the
  // key-value store are lost" (§4.3).
  void Clear();

  size_t size() const;
  size_t capacity() const { return options_.capacity; }

  // Every shard mutex sits at this level.
  static constexpr LockLevel kLockLevel = LockLevel::kSlateCache;
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;

 private:
  struct Entry {
    SlateId id;
    Bytes value;
    bool dirty = false;
    bool absent = false;  // negative entry: store has nothing
    Timestamp dirty_since = 0;
    // Write-backs of this entry running outside the shard lock. A pinned
    // entry is never evicted: until the write lands, the store holds an
    // older value.
    int pins = 0;
  };
  using LruList = std::list<Entry>;

  // A slate id with its SlateIdHash, computed once per call: the hash
  // picks the shard and is reused by the shard index's lookup, so striping
  // adds no second string hash.
  struct HashedId {
    const SlateId& id;
    size_t hash;
  };
  struct IndexHash {
    using is_transparent = void;
    size_t operator()(const SlateId& id) const { return SlateIdHash()(id); }
    size_t operator()(const HashedId& key) const { return key.hash; }
  };
  struct IndexEq {
    using is_transparent = void;
    bool operator()(const SlateId& a, const SlateId& b) const {
      return a == b;
    }
    bool operator()(const HashedId& a, const SlateId& b) const {
      return a.id == b;
    }
    bool operator()(const SlateId& a, const HashedId& b) const {
      return a == b.id;
    }
  };

  struct ShardMutex : Mutex {
    ShardMutex() : Mutex(kLockLevel) {}
  };

  struct Shard {
    mutable ShardMutex mutex;
    size_t capacity = 0;  // set once by the constructor
    LruList lru MUPPET_GUARDED_BY(mutex);  // front = most recent
    std::unordered_map<SlateId, LruList::iterator, IndexHash, IndexEq> index
        MUPPET_GUARDED_BY(mutex);
    Counter hits;
    Counter misses;
    Counter evictions;
  };

  static HashedId Hashed(const SlateId& id) {
    return HashedId{id, SlateIdHash()(id)};
  }
  Shard& ShardFor(const HashedId& key) const;
  // Evict unpinned LRU entries beyond the shard's capacity, writing dirty
  // ones back. The write-back runs under the shard lock, which is why the
  // cache sits above the store in the lock hierarchy.
  Status EvictIfNeededLocked(Shard& shard) MUPPET_REQUIRES(shard.mutex);
  // Release one pin taken before an unlocked write-back of `key`.
  void Unpin(Shard& shard, const HashedId& key) MUPPET_EXCLUDES(shard.mutex);
  // Insert or update; requires the shard lock held. Returns the entry.
  Entry* UpsertLocked(Shard& shard, const HashedId& key)
      MUPPET_REQUIRES(shard.mutex);

  SlateCacheOptions options_;
  WriteBack write_back_;
  const size_t num_shards_;
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace muppet

#endif  // MUPPET_CORE_SLATE_CACHE_H_
