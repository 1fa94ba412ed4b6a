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
#ifndef MUPPET_CORE_SLATE_CACHE_H_
#define MUPPET_CORE_SLATE_CACHE_H_

#include <functional>
#include <list>
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
  // flush everything (shutdown). Returns the number flushed.
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

  size_t size() const MUPPET_EXCLUDES(mutex_);
  size_t capacity() const { return options_.capacity; }

  static constexpr LockLevel kLockLevel = LockLevel::kSlateCache;
  int64_t hits() const { return hits_.Get(); }
  int64_t misses() const { return misses_.Get(); }
  int64_t evictions() const { return evictions_.Get(); }

 private:
  struct Entry {
    SlateId id;
    Bytes value;
    bool dirty = false;
    bool absent = false;  // negative entry: store has nothing
    Timestamp dirty_since = 0;
    // Write-backs of this entry running outside mutex_. A pinned entry is
    // never evicted: until the write lands, the store holds an older value.
    int pins = 0;
  };
  using LruList = std::list<Entry>;

  // Evict unpinned LRU entries beyond capacity, writing dirty ones back.
  // The write-back runs under mutex_, which is why the cache sits above
  // the store in the lock hierarchy.
  Status EvictIfNeededLocked() MUPPET_REQUIRES(mutex_);
  // Release one pin taken before an unlocked write-back of `id`.
  void Unpin(const SlateId& id) MUPPET_EXCLUDES(mutex_);
  // Insert or update; requires mutex_ held. Returns the entry.
  Entry* UpsertLocked(const SlateId& id) MUPPET_REQUIRES(mutex_);

  SlateCacheOptions options_;
  WriteBack write_back_;

  mutable Mutex mutex_{kLockLevel};
  LruList lru_ MUPPET_GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<SlateId, LruList::iterator, SlateIdHash> index_
      MUPPET_GUARDED_BY(mutex_);

  Counter hits_;
  Counter misses_;
  Counter evictions_;
};

}  // namespace muppet

#endif  // MUPPET_CORE_SLATE_CACHE_H_
