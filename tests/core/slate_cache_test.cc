#include "core/slate_cache.h"

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

// A write-back sink recording everything flushed.
struct Sink {
  std::map<SlateId, Bytes> store;
  std::vector<SlateId> deletes;
  int writes = 0;
  Status fail_with = Status::OK();

  SlateCache::WriteBack AsWriteBack() {
    return [this](const SlateCache::DirtySlate& dirty) -> Status {
      if (!fail_with.ok()) return fail_with;
      ++writes;
      if (dirty.deleted) {
        deletes.push_back(dirty.id);
        store.erase(dirty.id);
      } else {
        store[dirty.id] = dirty.value;
      }
      return Status::OK();
    };
  }
};

SlateId Id(const std::string& key) { return SlateId{"U1", key}; }

TEST(SlateCacheTest, InsertLookup) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Insert(Id("a"), "value-a"));
  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "value-a");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_TRUE(cache.Lookup(Id("b"), &out).IsNotFound());
  EXPECT_EQ(cache.misses(), 1);
}

TEST(SlateCacheTest, UpdateMarksDirtyAndFlushes) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v1", /*now=*/100, /*write_through=*/false));
  EXPECT_EQ(sink.writes, 0) << "interval policy: no immediate write";
  auto flushed = cache.FlushDirty(INT64_MAX);
  ASSERT_OK(flushed);
  EXPECT_EQ(flushed.value(), 1);
  EXPECT_EQ(sink.store.at(Id("a")), "v1");
  // Second flush is a no-op: nothing dirty.
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 0);
}

TEST(SlateCacheTest, WriteThroughFlushesImmediately) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v1", 100, /*write_through=*/true));
  EXPECT_EQ(sink.writes, 1);
  EXPECT_EQ(sink.store.at(Id("a")), "v1");
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 0);
}

TEST(SlateCacheTest, FlushRespectsDirtyBefore) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("old"), "v", /*now=*/100, false));
  ASSERT_OK(cache.Update(Id("new"), "v", /*now=*/500, false));
  // Flush only entries dirty since before t=300.
  EXPECT_EQ(cache.FlushDirty(300).value(), 1);
  EXPECT_TRUE(sink.store.count(Id("old")) > 0);
  EXPECT_TRUE(sink.store.count(Id("new")) == 0);
}

TEST(SlateCacheTest, FlushDirtyForFiltersUpdater) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(SlateId{"U1", "k"}, "v1", 100, false));
  ASSERT_OK(cache.Update(SlateId{"U2", "k"}, "v2", 100, false));
  EXPECT_EQ(cache.FlushDirtyFor("U1", INT64_MAX).value(), 1);
  EXPECT_EQ(sink.store.count(SlateId{"U1", "k"}), 1u);
  EXPECT_EQ(sink.store.count(SlateId{"U2", "k"}), 0u);
}

TEST(SlateCacheTest, LruEvictionWritesDirtyBack) {
  Sink sink;
  SlateCache cache({.capacity = 3}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "va", 1, false));
  ASSERT_OK(cache.Update(Id("b"), "vb", 2, false));
  ASSERT_OK(cache.Update(Id("c"), "vc", 3, false));
  ASSERT_OK(cache.Update(Id("d"), "vd", 4, false));  // evicts "a"
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(sink.store.at(Id("a")), "va") << "dirty victim must be flushed";
  Bytes out;
  EXPECT_TRUE(cache.Lookup(Id("a"), &out).IsNotFound());
  ASSERT_OK(cache.Lookup(Id("d"), &out));
}

TEST(SlateCacheTest, LookupRefreshesRecency) {
  Sink sink;
  SlateCache cache({.capacity = 2}, sink.AsWriteBack());
  ASSERT_OK(cache.Insert(Id("a"), "va"));
  ASSERT_OK(cache.Insert(Id("b"), "vb"));
  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));  // "a" is now MRU
  ASSERT_OK(cache.Insert(Id("c"), "vc"));  // evicts "b"
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_TRUE(cache.Lookup(Id("b"), &out).IsNotFound());
}

TEST(SlateCacheTest, DeleteWritesThroughAndCachesAbsence) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v", 1, false));
  ASSERT_OK(cache.Delete(Id("a")));
  EXPECT_EQ(sink.deletes.size(), 1u);
  Bytes out;
  bool absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("a"), &out, &absent));
  EXPECT_TRUE(absent);
  EXPECT_TRUE(cache.Lookup(Id("a"), &out).IsNotFound());
}

TEST(SlateCacheTest, AbsentMarkerNegativeCache) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  cache.InsertAbsent(Id("ghost"));
  Bytes out;
  bool absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("ghost"), &out, &absent));
  EXPECT_TRUE(absent);
  // An update overwrites the absent marker.
  ASSERT_OK(cache.Update(Id("ghost"), "now-real", 1, false));
  absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("ghost"), &out, &absent));
  EXPECT_FALSE(absent);
  EXPECT_EQ(out, "now-real");
}

TEST(SlateCacheTest, InsertAbsentDoesNotClobberDirty) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "dirty-value", 1, false));
  cache.InsertAbsent(Id("a"));  // racing store miss must not clobber
  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "dirty-value");
}

TEST(SlateCacheTest, FailedWriteBackSurfacesOnFlush) {
  Sink sink;
  sink.fail_with = Status::Unavailable("store down");
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v", 1, false));
  auto flushed = cache.FlushDirty(INT64_MAX);
  EXPECT_FALSE(flushed.ok());
}

TEST(SlateCacheTest, CapacityOneWorks) {
  Sink sink;
  SlateCache cache({.capacity = 1}, sink.AsWriteBack());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(cache.Update(Id("k" + std::to_string(i)), "v", i, false));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 19);
  // All evicted values reached the store.
  EXPECT_EQ(sink.store.size(), 19u);
}

// A flush writes slates outside the cache lock, so while a write is in
// flight the store still holds the older value. If eviction dropped the
// slate then, a miss would read that stale value and the next flush would
// overwrite the flushed update with it.
TEST(SlateCacheTest, SlateStaysCachedWhileItsFlushIsInFlight) {
  Sink sink;
  sink.store[Id("a")] = "0";
  std::atomic<bool> in_flight{false};
  std::atomic<bool> release{false};
  SlateCache::WriteBack to_sink = sink.AsWriteBack();
  SlateCache cache({.capacity = 2},
                   [&](const SlateCache::DirtySlate& dirty) -> Status {
                     if (dirty.id == Id("a") && !release.load()) {
                       in_flight.store(true);
                       while (!release.load()) std::this_thread::yield();
                     }
                     return to_sink(dirty);
                   });
  // One updater event on "a": read the slate (cache, else store) and
  // count one more.
  const auto count_event = [&] {
    Bytes value;
    if (!cache.Lookup(Id("a"), &value).ok()) {
      value = sink.store.at(Id("a"));
      ASSERT_OK(cache.Insert(Id("a"), value));
    }
    ASSERT_OK(cache.Update(Id("a"), std::to_string(std::stoi(value) + 1),
                           /*now=*/1, /*write_through=*/false));
  };

  count_event();  // "1", dirty
  std::thread flusher([&] { EXPECT_OK(cache.FlushDirty(INT64_MAX)); });
  while (!in_flight.load()) std::this_thread::yield();
  // "a" is now the LRU entry; two inserts push the cache past capacity.
  ASSERT_OK(cache.Insert(Id("b"), "x"));
  ASSERT_OK(cache.Insert(Id("c"), "x"));
  count_event();  // must build on "1", not on the store's "0"
  release.store(true);
  flusher.join();
  ASSERT_OK(cache.FlushDirty(INT64_MAX));

  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "2");
  EXPECT_EQ(sink.store.at(Id("a")), "2");
}

// A flush that finds a slate's write-through still in flight must leave
// the slate dirty: the older write may land after the flush's, and only a
// later flush puts the newer value back in the store.
TEST(SlateCacheTest, FlushKeepsSlateDirtyWhileAnOlderWriteIsInFlight) {
  Sink sink;
  std::atomic<bool> in_flight{false};
  std::atomic<bool> release{false};
  SlateCache::WriteBack to_sink = sink.AsWriteBack();
  SlateCache cache({.capacity = 10},
                   [&](const SlateCache::DirtySlate& dirty) -> Status {
                     if (dirty.value == "v1") {
                       in_flight.store(true);
                       while (!release.load()) std::this_thread::yield();
                     }
                     return to_sink(dirty);
                   });
  std::thread writer([&] {
    EXPECT_OK(cache.Update(Id("a"), "v1", /*now=*/1, /*write_through=*/true));
  });
  while (!in_flight.load()) std::this_thread::yield();
  ASSERT_OK(cache.Update(Id("a"), "v2", /*now=*/2, /*write_through=*/false));
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 1);  // "v2" lands first
  release.store(true);
  writer.join();  // then the older "v1"
  EXPECT_EQ(sink.store.at(Id("a")), "v1");
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 1);
  EXPECT_EQ(sink.store.at(Id("a")), "v2");
}

// --- Multi-shard caches. 65,536 slates is 16 shards of 4,096 each. ---

constexpr size_t kShardedCapacity = 65536;

TEST(SlateCacheShardedTest, DistinctKeysBelowCapacityEvictNothing) {
  Sink sink;
  SlateCache cache({.capacity = kShardedCapacity}, sink.AsWriteBack());
  constexpr int kKeys = 60000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(cache.Update(Id("k" + std::to_string(i)), "v", i, false));
  }
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(sink.writes, 0);
  Bytes out;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(cache.Lookup(Id("k" + std::to_string(i)), &out));
  }
  EXPECT_EQ(cache.hits(), kKeys);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.capacity(), kShardedCapacity);
}

TEST(SlateCacheShardedTest, FlushDirtyWritesEachDirtySlateOnce) {
  std::map<SlateId, int> writes;
  SlateCache cache({.capacity = kShardedCapacity},
                   [&](const SlateCache::DirtySlate& dirty) -> Status {
                     ++writes[dirty.id];
                     return Status::OK();
                   });
  constexpr int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (i % 2 == 0) {
      ASSERT_OK(cache.Update(Id(key), "v", i, false));
    } else {
      ASSERT_OK(cache.Insert(Id(key), "clean"));
    }
  }
  auto flushed = cache.FlushDirty(INT64_MAX);
  ASSERT_OK(flushed);
  EXPECT_EQ(flushed.value(), kKeys / 2);
  EXPECT_EQ(writes.size(), static_cast<size_t>(kKeys / 2));
  for (const auto& [id, n] : writes) {
    EXPECT_EQ(n, 1) << id.key;
    EXPECT_EQ(std::stoi(id.key.substr(1)) % 2, 0) << id.key;
  }
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 0);
}

TEST(SlateCacheShardedTest, SizeSumsShardsAndClearEmptiesAll) {
  Sink sink;
  SlateCache cache({.capacity = kShardedCapacity}, sink.AsWriteBack());
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(cache.Insert(Id("k" + std::to_string(i)), "v"));
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  Bytes out;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(cache.Lookup(Id("k" + std::to_string(i)), &out).IsNotFound());
  }
  EXPECT_EQ(cache.misses(), kKeys);
}

// As SlateStaysCachedWhileItsFlushIsInFlight, through the per-shard flush:
// while "a"'s write-back is in flight, enough inserts overflow every shard,
// "a"'s included, and "a" must survive them.
TEST(SlateCacheShardedTest, SlateStaysCachedWhileItsShardFlushIsInFlight) {
  Sink sink;
  sink.store[Id("a")] = "0";
  std::atomic<bool> in_flight{false};
  std::atomic<bool> release{false};
  SlateCache::WriteBack to_sink = sink.AsWriteBack();
  SlateCache cache({.capacity = kShardedCapacity},
                   [&](const SlateCache::DirtySlate& dirty) -> Status {
                     if (dirty.id == Id("a") && !release.load()) {
                       in_flight.store(true);
                       while (!release.load()) std::this_thread::yield();
                     }
                     return to_sink(dirty);
                   });
  const auto count_event = [&] {
    Bytes value;
    if (!cache.Lookup(Id("a"), &value).ok()) {
      value = sink.store.at(Id("a"));
      ASSERT_OK(cache.Insert(Id("a"), value));
    }
    ASSERT_OK(cache.Update(Id("a"), std::to_string(std::stoi(value) + 1),
                           /*now=*/1, /*write_through=*/false));
  };

  count_event();  // "1", dirty
  std::thread flusher([&] { EXPECT_OK(cache.FlushDirty(INT64_MAX)); });
  while (!in_flight.load()) std::this_thread::yield();
  // Clean inserts past the whole capacity: every shard evicts.
  constexpr int kInserts = 2 * static_cast<int>(kShardedCapacity);
  for (int i = 0; i < kInserts; ++i) {
    ASSERT_OK(cache.Insert(Id("x" + std::to_string(i)), "x"));
  }
  EXPECT_GE(cache.evictions(), kInserts - static_cast<int>(kShardedCapacity));
  count_event();  // must build on "1", not on the store's "0"
  release.store(true);
  flusher.join();
  ASSERT_OK(cache.FlushDirty(INT64_MAX));

  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "2");
  EXPECT_EQ(sink.store.at(Id("a")), "2");
}

// Four threads update and read overlapping slates (some write-through)
// while a fifth flushes in a loop. Afterwards every slate's last
// write-back equals its cached value. The lock-order checker is on, so a
// path holding two shard mutexes at once aborts the test.
TEST(SlateCacheShardedTest, ConcurrentUpdatesAndFlushesConverge) {
  ScopedLockOrderEnforcement enforce;
  Mutex store_mutex;
  std::map<SlateId, Bytes> store;
  SlateCache cache({.capacity = kShardedCapacity},
                   [&](const SlateCache::DirtySlate& dirty) -> Status {
                     MutexLock lock(store_mutex);
                     store[dirty.id] = dirty.value;
                     return Status::OK();
                   });
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  constexpr int kKeys = 512;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Bytes value;
      bool absent = false;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const SlateId id = Id("k" + std::to_string((i * 7 + t * 13) % kKeys));
        (void)cache.LookupWithAbsent(id, &value, &absent);
        EXPECT_OK(cache.Update(id,
                               std::to_string(t) + ":" + std::to_string(i),
                               /*now=*/i, /*write_through=*/i % 16 == 0));
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0) EXPECT_OK(cache.FlushDirty(INT64_MAX));
  });
  for (auto& thread : threads) thread.join();
  ASSERT_OK(cache.FlushDirty(INT64_MAX));

  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(cache.evictions(), 0);
  MutexLock lock(store_mutex);
  ASSERT_EQ(store.size(), static_cast<size_t>(kKeys));
  for (const auto& [id, written] : store) {
    Bytes cached;
    ASSERT_OK(cache.Lookup(id, &cached));
    EXPECT_EQ(written, cached) << id.key;
  }
}

}  // namespace
}  // namespace muppet
