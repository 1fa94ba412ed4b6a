#include "core/slate_cache.h"

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace muppet
