#include "core/slate_cache.h"

#include <limits>

#include "common/logging.h"

namespace muppet {

SlateCache::SlateCache(SlateCacheOptions options, WriteBack write_back)
    : options_(options), write_back_(std::move(write_back)) {
  MUPPET_CHECK(options_.capacity > 0);
  MUPPET_CHECK(write_back_ != nullptr);
}

SlateCache::Entry* SlateCache::UpsertLocked(const SlateId& id) {
  auto it = index_.find(id);
  if (it != index_.end()) {
    // Move to MRU position.
    lru_.splice(lru_.begin(), lru_, it->second);
    return &*it->second;
  }
  lru_.push_front(Entry{id, Bytes(), false, false, 0, 0});
  index_[id] = lru_.begin();
  return &lru_.front();
}

Status SlateCache::EvictIfNeededLocked() {
  // Walk from the LRU end, skipping pinned entries: dropping one would let
  // a miss read the store before the in-flight write lands.
  auto it = lru_.end();
  while (lru_.size() > options_.capacity && it != lru_.begin()) {
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
    index_.erase(victim.id);
    it = lru_.erase(it);
    evictions_.Add();
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
  MutexLock lock(mutex_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    misses_.Add();
    return Status::NotFound("slate cache: miss");
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.Add();
  *absent = it->second->absent;
  if (!it->second->absent) *value = it->second->value;
  return Status::OK();
}

Status SlateCache::Insert(const SlateId& id, BytesView value) {
  MutexLock lock(mutex_);
  Entry* e = UpsertLocked(id);
  e->value.assign(value);
  e->absent = false;
  // A fetched slate is clean by definition.
  e->dirty = false;
  e->dirty_since = 0;
  return EvictIfNeededLocked();
}

void SlateCache::InsertAbsent(const SlateId& id) {
  MutexLock lock(mutex_);
  Entry* e = UpsertLocked(id);
  if (e->dirty) return;  // an update raced in; keep the real value
  e->value.clear();
  e->absent = true;
  (void)EvictIfNeededLocked();
}

Status SlateCache::Update(const SlateId& id, BytesView value, Timestamp now,
                          bool write_through) {
  {
    MutexLock lock(mutex_);
    Entry* e = UpsertLocked(id);
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
    MUPPET_RETURN_IF_ERROR(EvictIfNeededLocked());
  }
  if (write_through) {
    Status s = write_back_(DirtySlate{id, Bytes(value), /*deleted=*/false});
    Unpin(id);
    return s;
  }
  return Status::OK();
}

Status SlateCache::Delete(const SlateId& id) {
  {
    MutexLock lock(mutex_);
    auto it = index_.find(id);
    if (it != index_.end()) {
      // Keep a negative entry so a subsequent read doesn't refetch a value
      // the store may still hold briefly.
      it->second->value.clear();
      it->second->absent = true;
      it->second->dirty = false;
      ++it->second->pins;
    }
  }
  Status s = write_back_(DirtySlate{id, Bytes(), /*deleted=*/true});
  Unpin(id);
  return s;
}

void SlateCache::Unpin(const SlateId& id) {
  MutexLock lock(mutex_);
  auto it = index_.find(id);
  if (it == index_.end() || it->second->pins == 0) return;
  --it->second->pins;
  (void)EvictIfNeededLocked();
}

Result<int> SlateCache::FlushDirty(Timestamp dirty_before) {
  return FlushDirtyFor("", dirty_before);
}

Result<int> SlateCache::FlushDirtyFor(const std::string& updater,
                                      Timestamp dirty_before) {
  struct Pending {
    DirtySlate slate;
    Timestamp dirty_since;
  };
  std::vector<Pending> to_flush;
  {
    MutexLock lock(mutex_);
    for (Entry& e : lru_) {
      if (!updater.empty() && e.id.updater != updater) continue;
      if (e.dirty && e.dirty_since < dirty_before) {
        to_flush.push_back(
            Pending{DirtySlate{e.id, e.value, false}, e.dirty_since});
        e.dirty = false;
        e.dirty_since = 0;
        // Written outside the lock: pinned until the write returns.
        ++e.pins;
      }
    }
  }
  int flushed = 0;
  Status first_error = Status::OK();
  for (const Pending& p : to_flush) {
    Status s = write_back_(p.slate);
    if (s.ok()) {
      ++flushed;
      Unpin(p.slate.id);
      continue;
    }
    if (first_error.ok()) first_error = s;
    // The store refused (e.g. temporarily unavailable): the update must
    // not be silently dropped — re-mark the entry dirty so a later flush
    // retries. If the slate was updated again meanwhile it is already
    // dirty and this is a no-op.
    {
      MutexLock lock(mutex_);
      auto it = index_.find(p.slate.id);
      if (it != index_.end() && !it->second->dirty && !it->second->absent) {
        it->second->dirty = true;
        it->second->dirty_since = p.dirty_since;
      }
    }
    Unpin(p.slate.id);
  }
  if (!first_error.ok()) return first_error;
  return flushed;
}

void SlateCache::Clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
}

size_t SlateCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

}  // namespace muppet
