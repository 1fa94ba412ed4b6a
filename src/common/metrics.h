// Runtime metrics: counters, gauges, and latency histograms, organized
// into labeled metric families. The benchmark harness (EXPERIMENTS.md E4,
// E7, E9, E10) reads these to report the latency and loss figures the
// paper quotes ("latency of under 2 seconds", §5), and the admin service
// exposes the same registry as Prometheus text at /metrics (prom.h) — one
// source of truth, so the status page and the scrape can never disagree.
#ifndef MUPPET_COMMON_METRICS_H_
#define MUPPET_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace muppet {

// Monotonic event counter, thread-safe and wait-free.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A value that can go up and down (queue depths, cache occupancy,
// in-flight counts). Thread-safe and wait-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-bucketed histogram for latency measurements (microseconds). Buckets
// grow geometrically (~8% relative error) from 1us to ~1.2 hours, so p99 of
// both microsecond in-process hops and multi-second backlog latencies fit.
class Histogram {
 public:
  Histogram();

  // Record a sample (values < 1 clamp to 1).
  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const;
  int64_t max() const;
  double Mean() const;

  // Approximate quantile in [0,1]; returns the representative value of the
  // bucket containing the q-th sample. 0 samples -> 0.
  int64_t Percentile(double q) const;

  // Samples recorded in buckets at or below the bucket containing `value`
  // — monotone nondecreasing in `value` by construction, which is what
  // the Prometheus `_bucket{le=...}` ladder requires (prom.cc).
  int64_t CumulativeCount(int64_t value) const;

  void Reset();

  // Merge another histogram's samples into this one.
  void MergeFrom(const Histogram& other);

  // "count=... mean=... p50=... p95=... p99=... p999=... max=..."
  std::string Summary() const;

  static constexpr int kNumBuckets = 256;

 private:
  friend struct HistogramPeer;  // tests/common/metrics_test.cc

  // Geometric bucket of `value`: floor(log(value) / log(1.08)), clamped to
  // [0, kNumBuckets); values < 1 count as 1. Looked up in a table of
  // bucket edges, not computed with std::log.
  static int BucketFor(int64_t value);
  static int64_t BucketValue(int bucket);

  std::atomic<int64_t> buckets_[kNumBuckets];
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{0};
};

// Label set for one child of a metric family, e.g.
// {{"machine","0"},{"operator","count"}}. Canonicalized (sorted by key)
// on registration, so lookup order does not matter.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

// Named registry so engines, services, and benches share metric objects
// without plumbing. Pointers remain valid for the registry's lifetime.
// Metrics with the same name and different labels form one family (one
// # TYPE line in the Prometheus exposition).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name,
                      const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {});
  Histogram* GetHistogram(const std::string& name,
                          const MetricLabels& labels = {});

  // Register a metric whose value is computed on demand (queue depths,
  // cache occupancy, transport counters owned elsewhere). The callback is
  // invoked with no registry lock held, so it may take subsystem locks;
  // it must tolerate being called from any thread for the registry's
  // lifetime. Counter and gauge types only.
  void RegisterCallback(const std::string& name, const MetricLabels& labels,
                        MetricType type, std::function<int64_t()> callback);

  // Point-in-time view of one metric child, for encoders.
  struct Sample {
    std::string name;
    MetricLabels labels;  // canonical (sorted by key)
    MetricType type = MetricType::kCounter;
    int64_t value = 0;                   // counter / gauge
    const Histogram* histogram = nullptr;  // histogram only
  };

  // Snapshot of every metric, sorted by (name, labels). Callback metrics
  // are evaluated after the registry lock is released.
  std::vector<Sample> Snapshot() const;

  // Snapshot of all plain (non-callback) counters; labeled children are
  // keyed "name{k=v,...}".
  std::map<std::string, int64_t> CounterValues() const;
  // Multi-line human-readable dump of everything.
  std::string Report() const;

  // Reset every owned counter/gauge/histogram (callbacks excluded).
  void ResetAll();

  static constexpr LockLevel kLockLevel = LockLevel::kMetrics;

 private:
  struct Child {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<int64_t()> callback;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    // Key: canonical label encoding ("k=v,k2=v2").
    std::map<std::string, Child> children;
  };

  static MetricLabels Canonicalize(const MetricLabels& labels);
  static std::string LabelsKey(const MetricLabels& labels);

  Child* GetChild(const std::string& name, const MetricLabels& labels,
                  MetricType type) MUPPET_REQUIRES(mutex_);

  mutable Mutex mutex_{kLockLevel};
  std::map<std::string, Family> families_ MUPPET_GUARDED_BY(mutex_);
};

}  // namespace muppet

#endif  // MUPPET_COMMON_METRICS_H_
