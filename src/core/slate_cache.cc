#include "core/slate_cache.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/logging.h"

namespace muppet {

namespace {

// One shard per 4,096 slates of capacity, at most 16: enough stripes that
// a machine's worker threads rarely meet on one lock, few enough that
// per-shard LRU stays close to a global LRU.
constexpr size_t kSlatesPerShard = 4096;
constexpr size_t kMaxShards = 16;

}  // namespace

SlateCache::SlateCache(SlateCacheOptions options, WriteBack write_back)
    : options_(options),
      write_back_(std::move(write_back)),
      num_shards_(std::clamp<size_t>(options.capacity / kSlatesPerShard, 1,
                                     kMaxShards)),
      shards_(std::make_unique<Shard[]>(num_shards_)) {
  MUPPET_CHECK(options_.capacity > 0);
  MUPPET_CHECK(write_back_ != nullptr);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].capacity = options_.capacity / num_shards_ +
                          (i < options_.capacity % num_shards_ ? 1 : 0);
  }
}

SlateCache::Shard& SlateCache::ShardFor(const HashedId& key) const {
  if (num_shards_ == 1) return shards_[0];
  // Fibonacci hashing onto [0, N): the top bits of hash * 2^64/phi, so
  // the shard does not correlate with the index's buckets (hash mod a
  // prime), at two multiplies instead of a mix and a division.
  const uint64_t mixed =
      static_cast<uint64_t>(key.hash) * 0x9e3779b97f4a7c15ULL;
  return shards_[((mixed >> 32) * num_shards_) >> 32];
}

SlateCache::Entry* SlateCache::UpsertLocked(Shard& shard,
                                            const HashedId& key) {
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Move to MRU position.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return &*it->second;
  }
  shard.lru.push_front(Entry{key.id, Bytes(), false, false, 0, 0});
  shard.index.emplace(key.id, shard.lru.begin());
  return &shard.lru.front();
}

Status SlateCache::EvictIfNeededLocked(Shard& shard) {
  // Walk from the LRU end, skipping pinned entries: dropping one would let
  // a miss read the store before the in-flight write lands.
  auto it = shard.lru.end();
  while (shard.lru.size() > shard.capacity && it != shard.lru.begin()) {
    --it;
    if (it->pins > 0) continue;
    Entry& victim = *it;
    if (victim.dirty) {
      DirtySlate out{victim.id, victim.value, /*deleted=*/false};
      Status s = write_back_(out);
      if (!s.ok()) {
        MUPPET_LOG(kWarning) << "slate cache: write-back on eviction failed: "
                             << s.ToString();
        // Drop anyway: the engine's store is the authority on durability;
        // a failed write-back loses the unflushed update, mirroring the
        // paper's failure semantics (§4.3).
      }
    }
    shard.index.erase(victim.id);
    it = shard.lru.erase(it);
    shard.evictions.Add();
  }
  return Status::OK();
}

Status SlateCache::Lookup(const SlateId& id, Bytes* value) {
  bool absent = false;
  MUPPET_RETURN_IF_ERROR(LookupWithAbsent(id, value, &absent));
  if (absent) return Status::NotFound("slate cache: negative entry");
  return Status::OK();
}

Status SlateCache::LookupWithAbsent(const SlateId& id, Bytes* value,
                                    bool* absent) {
  const HashedId key = Hashed(id);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    shard.misses.Add();
    return Status::NotFound("slate cache: miss");
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  shard.hits.Add();
  *absent = it->second->absent;
  if (!it->second->absent) *value = it->second->value;
  return Status::OK();
}

Status SlateCache::Insert(const SlateId& id, BytesView value) {
  const HashedId key = Hashed(id);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  Entry* e = UpsertLocked(shard, key);
  e->value.assign(value);
  e->absent = false;
  // A fetched slate is clean by definition.
  e->dirty = false;
  e->dirty_since = 0;
  return EvictIfNeededLocked(shard);
}

void SlateCache::InsertAbsent(const SlateId& id) {
  const HashedId key = Hashed(id);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  Entry* e = UpsertLocked(shard, key);
  if (e->dirty) return;  // an update raced in; keep the real value
  e->value.clear();
  e->absent = true;
  (void)EvictIfNeededLocked(shard);
}

Status SlateCache::Update(const SlateId& id, BytesView value, Timestamp now,
                          bool write_through) {
  const HashedId key = Hashed(id);
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mutex);
    Entry* e = UpsertLocked(shard, key);
    e->value.assign(value);
    e->absent = false;
    // An older write still in flight may land after this one, so a pinned
    // slate stays dirty and a later flush rewrites it.
    if (write_through && e->pins == 0) {
      e->dirty = false;
      e->dirty_since = 0;
    } else {
      if (!e->dirty) e->dirty_since = now;
      e->dirty = true;
    }
    if (write_through) ++e->pins;
    MUPPET_RETURN_IF_ERROR(EvictIfNeededLocked(shard));
  }
  if (write_through) {
    Status s = write_back_(DirtySlate{id, Bytes(value), /*deleted=*/false});
    Unpin(shard, key);
    return s;
  }
  return Status::OK();
}

Status SlateCache::Delete(const SlateId& id) {
  const HashedId key = Hashed(id);
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Keep a negative entry so a subsequent read doesn't refetch a value
      // the store may still hold briefly.
      it->second->value.clear();
      it->second->absent = true;
      it->second->dirty = false;
      ++it->second->pins;
    }
  }
  Status s = write_back_(DirtySlate{id, Bytes(), /*deleted=*/true});
  Unpin(shard, key);
  return s;
}

void SlateCache::Unpin(Shard& shard, const HashedId& key) {
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->pins == 0) return;
  --it->second->pins;
  (void)EvictIfNeededLocked(shard);
}

Result<int> SlateCache::FlushDirty(Timestamp dirty_before) {
  return FlushDirtyFor("", dirty_before);
}

Result<int> SlateCache::FlushDirtyFor(const std::string& updater,
                                      Timestamp dirty_before) {
  struct Pending {
    DirtySlate slate;
    Timestamp dirty_since;
    bool written = false;
  };
  // Reused across shards: the transient copy is one shard's dirty set.
  std::vector<Pending> to_flush;
  int flushed = 0;
  Status first_error = Status::OK();
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    to_flush.clear();
    {
      MutexLock lock(shard.mutex);
      for (Entry& e : shard.lru) {
        if (!updater.empty() && e.id.updater != updater) continue;
        if (e.dirty && e.dirty_since < dirty_before) {
          to_flush.push_back(
              Pending{DirtySlate{e.id, e.value, false}, e.dirty_since});
          // As in Update: an older write still in flight may land after
          // this one, so a pinned slate stays dirty and is rewritten.
          if (e.pins == 0) {
            e.dirty = false;
            e.dirty_since = 0;
          }
          // Written outside the lock: pinned until the write returns.
          ++e.pins;
        }
      }
    }
    if (to_flush.empty()) continue;
    for (Pending& p : to_flush) {
      Status s = write_back_(p.slate);
      p.written = s.ok();
      if (s.ok()) {
        ++flushed;
      } else if (first_error.ok()) {
        first_error = s;
      }
    }
    MutexLock lock(shard.mutex);
    for (const Pending& p : to_flush) {
      auto it = shard.index.find(p.slate.id);
      if (it == shard.index.end()) continue;
      Entry& e = *it->second;
      // The store refused (e.g. temporarily unavailable): the update must
      // not be silently dropped — re-mark the entry dirty so a later flush
      // retries. If the slate was updated again meanwhile it is already
      // dirty and this is a no-op.
      if (!p.written && !e.dirty && !e.absent) {
        e.dirty = true;
        e.dirty_since = p.dirty_since;
      }
      if (e.pins > 0) --e.pins;
    }
    (void)EvictIfNeededLocked(shard);
  }
  if (!first_error.ok()) return first_error;
  return flushed;
}

void SlateCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t SlateCache::size() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

int64_t SlateCache::hits() const {
  int64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) total += shards_[i].hits.Get();
  return total;
}

int64_t SlateCache::misses() const {
  int64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) total += shards_[i].misses.Get();
  return total;
}

int64_t SlateCache::evictions() const {
  int64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    total += shards_[i].evictions.Get();
  }
  return total;
}

}  // namespace muppet
