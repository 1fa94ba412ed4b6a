// Queue-overflow policies (§4.3): drop+log, overflow stream (degraded
// service), and source throttling (§5) — including the emit-loop deadlock
// scenario the paper warns about, which the engines detect and avoid.
#include <algorithm>
#include <memory>
#include <string>

#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "gtest/gtest.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::CountOf;

enum class EngineKind { kMuppet1, kMuppet2 };

std::unique_ptr<Engine> MakeEngine(EngineKind kind, const AppConfig& config,
                                   const EngineOptions& options) {
  if (kind == EngineKind::kMuppet1) {
    return std::make_unique<Muppet1Engine>(config, options);
  }
  return std::make_unique<Muppet2Engine>(config, options);
}

// Counting updater that takes `work_micros` per event — a deliberately
// slow consumer to back up its queue.
void BuildSlowCounter(AppConfig* config, Timestamp work_micros) {
  ASSERT_OK(config->DeclareInputStream("in"));
  ASSERT_OK(config->AddUpdater(
      "slow",
      MakeUpdaterFactory([work_micros](PerformerUtilities& out, const Event&,
                                       const Bytes* slate) {
        SystemClock::Default()->SleepFor(work_micros);
        JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
      }),
      {"in"}));
}

// The three policy cases run on `machines` machines with one worker per
// function on each (Muppet 1.0 places worker i on machine i %
// num_machines). On one machine every decline is a same-machine push. On
// two, the published key is one whose owner is machine 1, off the
// publishing machine 0, so every decline comes back across the in-memory
// fabric: a remote batch frame and the per-event remote retry on Muppet
// 2.0, a cross-machine send on 1.0.
EngineOptions LayoutOptions(int machines) {
  EngineOptions options;
  options.num_machines = machines;
  options.workers_per_function = machines;
  return options;
}

// The key a case publishes to stream "in". On two machines: the first
// candidate whose slate lands on machine 1 when published into a
// throwaway engine of the same shape (the owner depends only on the ring,
// which the shape fixes).
std::string KeyFor(EngineKind kind, const AppConfig& config,
                   const EngineOptions& options) {
  if (options.num_machines == 1) return "k";
  auto probe = MakeEngine(kind, config, options);
  EXPECT_OK(probe->Start());
  std::string found;
  for (int i = 0; i < 64 && found.empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    const size_t before = probe->MachineStatuses()[1].slate_cache_slates;
    EXPECT_OK(probe->Publish("in", key, "", 1));
    EXPECT_OK(probe->Drain());
    if (probe->MachineStatuses()[1].slate_cache_slates > before) found = key;
  }
  EXPECT_OK(probe->Stop());
  EXPECT_FALSE(found.empty()) << "no probed key lands on machine 1";
  return found;
}

// On two machines, the declines a run counted crossed the fabric.
void ExpectRemoteDeclines(Engine& engine, const EngineOptions& options) {
  if (options.num_machines == 1) return;
  EXPECT_GT(static_cast<EngineRuntime&>(engine).transport().messages_declined(),
            0)
      << "machine 1 never declined a cross-machine delivery";
}

void DropPolicyBoundsQueueAndCountsDrops(EngineKind kind, int machines) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/500);
  EngineOptions options = LayoutOptions(machines);
  options.threads_per_machine = 1;
  options.queue_capacity = 4;
  options.overflow.policy = OverflowPolicy::kDrop;
  const std::string key = KeyFor(kind, config, options);
  ASSERT_FALSE(key.empty());
  auto engine = MakeEngine(kind, config, options);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 300;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", key, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.events_dropped_overflow, 0)
      << "a full queue must shed load under the drop policy";
  EXPECT_EQ(stats.events_processed + stats.events_dropped_overflow, kEvents);
  EXPECT_EQ(CountOf(*engine, "slow", key), stats.events_processed);
  ExpectRemoteDeclines(*engine, options);
  ASSERT_OK(engine->Stop());
}

void OverflowStreamProvidesDegradedService(EngineKind kind, int machines) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/500);
  // The degraded path: a cheap counter on the overflow stream.
  ASSERT_OK(config.DeclareStream("spill"));
  ASSERT_OK(config.AddUpdater(
      "degraded",
      MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                            const Bytes* slate) {
        JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
      }),
      {"spill"}));

  EngineOptions options = LayoutOptions(machines);
  // Muppet 2.0 runs every function on one shared pool, so give the
  // degraded path enough threads/queues to stay drainable while the slow
  // function's pair of queues backs up. Muppet 1.0 has one worker (and
  // queue) per function, so the degraded worker is naturally separate.
  options.threads_per_machine = 8;
  options.queue_capacity = 4;
  options.overflow.policy = OverflowPolicy::kOverflowStream;
  options.overflow.overflow_stream = "spill";
  const std::string key = KeyFor(kind, config, options);
  ASSERT_FALSE(key.empty());
  auto engine = MakeEngine(kind, config, options);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", key, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.events_redirected_overflow, 0);
  const int64_t full = std::max<int64_t>(0, CountOf(*engine, "slow", key));
  const int64_t degraded =
      std::max<int64_t>(0, CountOf(*engine, "degraded", key));
  EXPECT_GT(degraded, 0) << "redirected events get degraded processing";
  // Every event received full service, degraded service, or (if even the
  // spill path was full) was dropped.
  EXPECT_EQ(full + degraded + stats.events_dropped_overflow, kEvents);
  ExpectRemoteDeclines(*engine, options);
  ASSERT_OK(engine->Stop());
}

void SourceThrottlingTradesLatencyForCompleteness(EngineKind kind,
                                                  int machines) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/300);
  EngineOptions options = LayoutOptions(machines);
  options.threads_per_machine = 1;
  options.queue_capacity = 4;
  options.overflow.policy = OverflowPolicy::kThrottle;
  options.throttle.step_micros = 100;
  options.throttle.max_delay_micros = 5000;
  const std::string key = KeyFor(kind, config, options);
  ASSERT_FALSE(key.empty());
  auto engine = MakeEngine(kind, config, options);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 150;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", key, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.throttle_signals, 0)
      << "backpressure must reach the governor";
  // Throttling keeps losses tiny compared to dropping.
  EXPECT_LT(stats.events_dropped_overflow, kEvents / 10);
  // Publishes have no sending worker, so no target is the sender's own
  // queue: every decline waits and retries.
  EXPECT_EQ(stats.deadlocks_avoided, 0);
  EXPECT_EQ(CountOf(*engine, "slow", key),
            kEvents - stats.events_dropped_overflow);
  ExpectRemoteDeclines(*engine, options);
  ASSERT_OK(engine->Stop());
}

class OverflowTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(OverflowTest, DropPolicyBoundsQueueAndCountsDrops) {
  DropPolicyBoundsQueueAndCountsDrops(GetParam(), /*machines=*/1);
}

TEST_P(OverflowTest, OverflowStreamProvidesDegradedService) {
  OverflowStreamProvidesDegradedService(GetParam(), /*machines=*/1);
}

TEST_P(OverflowTest, UndeclaredOverflowStreamRejectedAtStart) {
  AppConfig config;
  BuildSlowCounter(&config, 0);
  EngineOptions options;
  options.overflow.policy = OverflowPolicy::kOverflowStream;
  options.overflow.overflow_stream = "nonexistent";
  auto engine = MakeEngine(GetParam(), config, options);
  EXPECT_FALSE(engine->Start().ok());
}

TEST_P(OverflowTest, SourceThrottlingTradesLatencyForCompleteness) {
  SourceThrottlingTradesLatencyForCompleteness(GetParam(), /*machines=*/1);
}

TEST_P(OverflowTest, SelfEmitDeadlockDetectedAndAvoided) {
  // The §5 scenario: an updater emits events back into a stream it itself
  // consumes; under throttling with a full queue, waiting would deadlock.
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.DeclareStream("loop"));
  ASSERT_OK(config.AddUpdater(
      "looper",
      MakeUpdaterFactory([](PerformerUtilities& out, const Event& e,
                            const Bytes* slate) {
        JsonSlate s(slate);
        const int64_t hops = s.data().GetInt("hops") + 1;
        s.data()["hops"] = hops;
        (void)out.ReplaceSlate(s.Serialize());
        if (e.stream == "in") {
          // Burst-emit into our own input: the paper's 10,000-event
          // emitter, scaled down.
          for (int i = 0; i < 50; ++i) {
            (void)out.Publish("loop", e.key, "");
          }
        }
      }),
      {"in", "loop"}));

  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  options.threads_per_machine = 1;
  options.queue_capacity = 8;  // much smaller than the burst
  options.overflow.policy = OverflowPolicy::kThrottle;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  ASSERT_OK(engine->Publish("in", "k", "", 1));
  ASSERT_OK(engine->Drain());  // must terminate: the deadlock is avoided
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.deadlocks_avoided, 0)
      << "self-emit into a full own queue must be detected (§5)";
  ASSERT_OK(engine->Stop());
}

// The policy cases with every decline crossing machines.
class RemoteOverflowTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RemoteOverflowTest, DropPolicyBoundsQueueAndCountsDrops) {
  DropPolicyBoundsQueueAndCountsDrops(GetParam(), /*machines=*/2);
}

TEST_P(RemoteOverflowTest, OverflowStreamProvidesDegradedService) {
  OverflowStreamProvidesDegradedService(GetParam(), /*machines=*/2);
}

TEST_P(RemoteOverflowTest, SourceThrottlingTradesLatencyForCompleteness) {
  SourceThrottlingTradesLatencyForCompleteness(GetParam(), /*machines=*/2);
}

std::string EngineName(const ::testing::TestParamInfo<EngineKind>& info) {
  return info.param == EngineKind::kMuppet1 ? "Muppet1" : "Muppet2";
}

INSTANTIATE_TEST_SUITE_P(Engines, OverflowTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         EngineName);
INSTANTIATE_TEST_SUITE_P(Engines, RemoteOverflowTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         EngineName);

}  // namespace
}  // namespace muppet
