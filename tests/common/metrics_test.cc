#include "common/metrics.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace muppet {

// Reaches Histogram's private bucket function.
struct HistogramPeer {
  static int BucketFor(int64_t value) { return Histogram::BucketFor(value); }
};

namespace {

TEST(CounterTest, AddAndGet) {
  Counter c;
  EXPECT_EQ(c.Get(), 0);
  c.Add();
  c.Add(5);
  EXPECT_EQ(c.Get(), 6);
  c.Reset();
  EXPECT_EQ(c.Get(), 0);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Get(), kThreads * kAddsPerThread);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  EXPECT_EQ(g.Get(), 0);
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.Get(), 12);
  g.Reset();
  EXPECT_EQ(g.Get(), 0);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, BasicStatistics) {
  Histogram h;
  for (int64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.Mean(), 50.5, 0.01);
}

TEST(HistogramTest, PercentilesApproximateWithinBucketError) {
  Histogram h;
  for (int64_t v = 1; v <= 10000; ++v) h.Record(v);
  // Buckets are ~8% wide; allow 15% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 5000.0, 750.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9900.0, 1500.0);
  EXPECT_EQ(h.Percentile(1.0), 10000);
}

TEST(HistogramTest, PercentileMonotone) {
  Histogram h;
  for (int64_t v : {1, 10, 100, 1000, 10000, 100000}) {
    for (int i = 0; i < 10; ++i) h.Record(v);
  }
  int64_t prev = 0;
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const int64_t p = h.Percentile(q);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(HistogramTest, ClampsNonPositiveToOne) {
  Histogram h;
  h.Record(0);
  h.Record(-5);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min(), 1);
}

// The bucket formula Record used to evaluate with std::log on every
// sample; BucketFor's edge table must reproduce it exactly.
int LogFormulaBucket(int64_t value) {
  if (value < 1) value = 1;
  static const double kInvLog = 1.0 / std::log(1.08);
  int b = static_cast<int>(std::log(static_cast<double>(value)) * kInvLog);
  if (b < 0) b = 0;
  if (b >= Histogram::kNumBuckets) b = Histogram::kNumBuckets - 1;
  return b;
}

TEST(HistogramTest, BucketTableMatchesLogFormulaUpTo2Pow22) {
  for (int64_t v = 1; v <= (int64_t{1} << 22); ++v) {
    ASSERT_EQ(HistogramPeer::BucketFor(v), LogFormulaBucket(v))
        << "value " << v;
  }
}

TEST(HistogramTest, BucketTableMatchesLogFormulaAtEveryEdge) {
  int64_t edge = 1;
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    // The formula's first value in bucket b or above (it is monotone;
    // buckets 1-8 are narrower than 1 and hold no integer).
    int64_t hi = int64_t{1} << 40;
    while (edge < hi) {
      const int64_t mid = edge + (hi - edge) / 2;
      if (LogFormulaBucket(mid) >= b) {
        hi = mid;
      } else {
        edge = mid + 1;
      }
    }
    ASSERT_GE(LogFormulaBucket(edge), b);
    ASSERT_LT(LogFormulaBucket(edge - 1), b);
    for (int64_t v : {edge - 1, edge, edge + 1}) {
      ASSERT_EQ(HistogramPeer::BucketFor(v), LogFormulaBucket(v))
          << "bucket " << b << " value " << v;
    }
  }
  for (int64_t v : {int64_t{0}, int64_t{-7}, int64_t{1} << 40,
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(HistogramPeer::BucketFor(v), LogFormulaBucket(v))
        << "value " << v;
  }
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  for (int i = 1; i <= 50; ++i) a.Record(10);
  for (int i = 1; i <= 50; ++i) b.Record(1000);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 100);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.Mean(), 505.0, 0.5);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsMinMaxCount) {
  Histogram a, b;
  b.Record(7);
  b.Record(7000);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.min(), 7);
  EXPECT_EQ(a.max(), 7000);
}

TEST(HistogramTest, CumulativeCountIsMonotone) {
  Histogram h;
  for (int64_t v : {50, 500, 5000, 50000, 500000, 5000000}) h.Record(v);
  int64_t prev = 0;
  for (int64_t le : {100, 1000, 10000, 100000, 1000000, 10000000}) {
    const int64_t c = h.CumulativeCount(le);
    EXPECT_GE(c, prev) << "le=" << le;
    prev = c;
  }
  // Every recorded value is <= the largest threshold probed above.
  EXPECT_EQ(prev, h.count());
  // A threshold below every sample counts nothing.
  EXPECT_EQ(h.CumulativeCount(10), 0);
}

TEST(HistogramTest, ConcurrentRecordIsLossless) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        h.Record((t + 1) * 100 + i % 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kRecordsPerThread);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), kThreads * 100 + 6);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  const int64_t hour_us = 3600LL * 1000 * 1000;
  h.Record(hour_us);
  EXPECT_EQ(h.max(), hour_us);
  EXPECT_GT(h.Percentile(0.5), hour_us / 2);
}

TEST(HistogramTest, SummaryMentionsFields) {
  Histogram h;
  h.Record(5);
  const std::string s = h.Summary();
  EXPECT_NE(s.find("count=1"), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

TEST(MetricsRegistryTest, GetCreatesOnce) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(registry.CounterValues().at("x"), 3);
}

TEST(MetricsRegistryTest, ReportIncludesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Add(7);
  registry.GetHistogram("latency")->Record(100);
  const std::string report = registry.Report();
  EXPECT_NE(report.find("events = 7"), std::string::npos);
  EXPECT_NE(report.find("latency:"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAll) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetHistogram("h")->Record(5);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("c")->Get(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0);
}

TEST(MetricsRegistryTest, LabeledChildrenAreDistinctCells) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ops_total", {{"operator", "a"}});
  Counter* b = registry.GetCounter("ops_total", {{"operator", "b"}});
  EXPECT_NE(a, b);
  a->Add(1);
  b->Add(2);
  const auto values = registry.CounterValues();
  EXPECT_EQ(values.at("ops_total{operator=a}"), 1);
  EXPECT_EQ(values.at("ops_total{operator=b}"), 2);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitCells) {
  MetricsRegistry registry;
  Counter* a =
      registry.GetCounter("x", {{"machine", "0"}, {"operator", "f"}});
  Counter* b =
      registry.GetCounter("x", {{"operator", "f"}, {"machine", "0"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, GaugeFamily) {
  MetricsRegistry registry;
  registry.GetGauge("depth", {{"thread", "0"}})->Set(4);
  bool found = false;
  for (const auto& sample : registry.Snapshot()) {
    if (sample.name == "depth") {
      EXPECT_EQ(sample.type, MetricType::kGauge);
      EXPECT_EQ(sample.value, 4);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsRegistryTest, CallbackSampledAtSnapshot) {
  MetricsRegistry registry;
  int64_t depth = 7;
  registry.RegisterCallback("queue_depth", {{"machine", "1"}},
                            MetricType::kGauge, [&depth] { return depth; });
  auto find = [&registry]() -> int64_t {
    for (const auto& sample : registry.Snapshot()) {
      if (sample.name == "queue_depth") return sample.value;
    }
    return -1;
  };
  EXPECT_EQ(find(), 7);
  depth = 9;
  EXPECT_EQ(find(), 9);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra")->Add(1);
  registry.GetCounter("apple")->Add(1);
  registry.GetGauge("mango")->Set(1);
  const auto snapshot = registry.Snapshot();
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LE(snapshot[i - 1].name, snapshot[i].name);
  }
}

}  // namespace
}  // namespace muppet
