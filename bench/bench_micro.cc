// Micro-benchmarks (google-benchmark) for the primitives the engines lean
// on: event wire codec, slate compression, JSON slate round-trips, hash
// ring routing, queue operations, the 1.0 task-processor protocol, and the
// central slate cache under contention.
// These quantify the §4.5 argument that eliminating serialization inside
// a machine is worth a generation bump.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/compress.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/event.h"
#include "core/hash_ring.h"
#include "core/intern.h"
#include "core/slate.h"
#include "core/slate_cache.h"
#include "engine/queue.h"
#include "engine/wire.h"
#include "json/json.h"

namespace muppet {
namespace {

Event MakeEvent(size_t value_bytes) {
  Event e;
  e.stream = "S2";
  e.ts = 1234567890;
  e.key = "user1234567";
  e.value = Bytes(value_bytes, 'v');
  e.seq = 42;
  e.origin_ts = 1234567000;
  return e;
}

void BM_EventEncode(benchmark::State& state) {
  const Event e = MakeEvent(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes wire;
    EncodeEvent(e, &wire);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventEncode)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EventDecode(benchmark::State& state) {
  const Event e = MakeEvent(static_cast<size_t>(state.range(0)));
  Bytes wire;
  EncodeEvent(e, &wire);
  for (auto _ : state) {
    Event decoded;
    benchmark::DoNotOptimize(DecodeEvent(wire, &decoded));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventDecode)->Arg(100)->Arg(1000)->Arg(10000);

Bytes MakeJsonSlateBytes(int fields) {
  Json j = Json::MakeObject();
  for (int i = 0; i < fields; ++i) {
    j["counter_field_" + std::to_string(i)] = 123456 + i;
  }
  return j.Dump();
}

void BM_SlateCompress(benchmark::State& state) {
  const Bytes slate = MakeJsonSlateBytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Bytes compressed;
    CompressBytes(slate, &compressed);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(slate.size()));
}
BENCHMARK(BM_SlateCompress)->Arg(10)->Arg(100)->Arg(1000);

void BM_SlateDecompress(benchmark::State& state) {
  const Bytes slate = MakeJsonSlateBytes(static_cast<int>(state.range(0)));
  const Bytes compressed = Compress(slate);
  for (auto _ : state) {
    Bytes restored;
    benchmark::DoNotOptimize(DecompressBytes(compressed, &restored));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(slate.size()));
}
BENCHMARK(BM_SlateDecompress)->Arg(10)->Arg(100)->Arg(1000);

void BM_JsonSlateUpdateCycle(benchmark::State& state) {
  // The canonical updater body: parse slate, bump counter, serialize.
  Bytes slate = MakeJsonSlateBytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    JsonSlate s(&slate);
    s.data()["counter_field_0"] = s.data().GetInt("counter_field_0") + 1;
    slate = s.Serialize();
  }
  benchmark::DoNotOptimize(slate);
}
BENCHMARK(BM_JsonSlateUpdateCycle)->Arg(1)->Arg(10)->Arg(100);

void BM_HashRingRoute(benchmark::State& state) {
  HashRing ring;
  for (int m = 0; m < static_cast<int>(state.range(0)); ++m) {
    ring.AddWorker("U1", WorkerRef{m, 0});
  }
  const std::set<MachineId> no_failures;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.Route("U1", "key" + std::to_string(i++ % 1000), no_failures));
  }
}
BENCHMARK(BM_HashRingRoute)->Arg(4)->Arg(16)->Arg(64);

void BM_QueuePushPop(benchmark::State& state) {
  EventQueue queue(1 << 16);
  RoutedEvent re;
  re.function = "count";
  re.event = MakeEvent(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.TryPush(re));
    RoutedEvent out;
    benchmark::DoNotOptimize(queue.TryPop(&out));
  }
}
BENCHMARK(BM_QueuePushPop);

void BM_QueuePushPopBatch(benchmark::State& state) {
  // Batched counterpart of BM_QueuePushPop: one lock acquisition moves
  // `batch` events in, one moves them out. Per-event cost should drop
  // roughly with batch size.
  const size_t batch = static_cast<size_t>(state.range(0));
  EventQueue queue(1 << 16);
  std::vector<RoutedEvent> in;
  for (size_t i = 0; i < batch; ++i) {
    RoutedEvent re;
    re.function_id = 0;
    re.work = i + 1;
    re.event = MakeEvent(100);
    in.push_back(std::move(re));
  }
  std::vector<RoutedEvent> out;
  out.reserve(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.TryPushBatch(&in));  // clears `in`
    benchmark::DoNotOptimize(queue.PopBatch(&out, batch));
    std::swap(in, out);  // popped events become the next push batch
    out.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_QueuePushPopBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_RoutedEventFrameRoundTrip(benchmark::State& state) {
  // The 2.0 cross-machine format: id-addressed events coalesced into one
  // frame per destination.
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<RoutedEvent> events;
  for (size_t i = 0; i < batch; ++i) {
    RoutedEvent re;
    re.function_id = static_cast<int32_t>(i % 4);
    re.work = i + 1;
    re.event = MakeEvent(100);
    events.push_back(std::move(re));
  }
  for (auto _ : state) {
    Bytes frame;
    EncodeRoutedEventFrame(events, &frame);
    RoutedEventFrameReader reader(frame);
    RoutedEvent re;
    while (reader.Next(&re)) benchmark::DoNotOptimize(re);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_RoutedEventFrameRoundTrip)->Arg(1)->Arg(8)->Arg(32);

void BM_InternFind(benchmark::State& state) {
  // The per-event name resolution on the hot path: one Find per stream.
  NameInterner interner;
  for (int i = 0; i < 16; ++i) interner.Intern("stream" + std::to_string(i));
  const std::string name = "stream7";
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.Find(name));
  }
}
BENCHMARK(BM_InternFind);

void BM_Fnv1a64(benchmark::State& state) {
  const Bytes key(static_cast<size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(key));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(16)->Arg(256);

void BM_Crc32(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 'd');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096);

void BM_SlateCacheFetchUpdate(benchmark::State& state) {
  // An updater event's two cache calls (fetch, then replace) on a Muppet
  // 2.0 central cache that every benchmark thread shares, as a machine's
  // workers do (§4.5): 100k resident slates, capacity 200k, uniform keys.
  constexpr int kKeys = 100000;
  static const std::vector<SlateId>* const ids = [] {
    auto* out = new std::vector<SlateId>();
    for (int i = 0; i < kKeys; ++i) {
      out->push_back(SlateId{"count", "key" + std::to_string(i)});
    }
    return out;
  }();
  static SlateCache* const cache = [] {
    auto* c = new SlateCache(
        {.capacity = 200000},
        [](const SlateCache::DirtySlate&) { return Status::OK(); });
    for (const SlateId& id : *ids) (void)c->Insert(id, Bytes(16, 's'));
    return c;
  }();
  Rng rng(0x51a7e + static_cast<uint64_t>(state.thread_index()));
  Bytes value;
  bool absent = false;
  for (auto _ : state) {
    const SlateId& id = (*ids)[rng.Uniform(kKeys)];
    benchmark::DoNotOptimize(cache->LookupWithAbsent(id, &value, &absent));
    benchmark::DoNotOptimize(
        cache->Update(id, value, /*now=*/1, /*write_through=*/false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlateCacheFetchUpdate)->Threads(1)->Threads(3)->UseRealTime();

void BM_SlateCacheOneWorker(benchmark::State& state) {
  // The same two calls on a cache only one thread uses, as a Muppet 1.0
  // updater worker uses its own: range(0) resident slates in a cache of
  // range(1). 16,384 is the per-worker share of the default budget with
  // one updater worker per machine, and is striped into 4 shards.
  const int keys = static_cast<int>(state.range(0));
  std::vector<SlateId> ids;
  for (int i = 0; i < keys; ++i) {
    ids.push_back(SlateId{"count", "key" + std::to_string(i)});
  }
  SlateCache cache({.capacity = static_cast<size_t>(state.range(1))},
                   [](const SlateCache::DirtySlate&) { return Status::OK(); });
  for (const SlateId& id : ids) (void)cache.Insert(id, Bytes(16, 's'));
  Rng rng(0x51a7e);
  Bytes value;
  bool absent = false;
  for (auto _ : state) {
    const SlateId& id = ids[rng.Uniform(static_cast<uint64_t>(keys))];
    benchmark::DoNotOptimize(cache.LookupWithAbsent(id, &value, &absent));
    benchmark::DoNotOptimize(
        cache.Update(id, value, /*now=*/1, /*write_through=*/false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlateCacheOneWorker)->Args({2000, 16384})->Args({16000, 16384});

}  // namespace
}  // namespace muppet

BENCHMARK_MAIN();
