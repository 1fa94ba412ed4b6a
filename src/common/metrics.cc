#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

namespace muppet {

Histogram::Histogram() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

namespace {

// The bucket definition: floor(log(value) / log(1.08)), clamped to the
// bucket range. Evaluated only to build the edge table below.
int LogBucket(int64_t value) {
  static const double kInvLog = 1.0 / std::log(1.08);
  const int b =
      static_cast<int>(std::log(static_cast<double>(value)) * kInvLog);
  return std::clamp(b, 0, Histogram::kNumBuckets - 1);
}

// lower[b]: the smallest value LogBucket puts in bucket b or above, so
// Record (twice per event on the worker hot path) costs an 8-step binary
// search instead of a std::log.
struct BucketEdges {
  int64_t lower[Histogram::kNumBuckets];

  BucketEdges() {
    lower[0] = 1;
    for (int b = 1; b < Histogram::kNumBuckets; ++b) {
      // LogBucket is monotone, so binary-search its first value >= b.
      int64_t lo = lower[b - 1];
      int64_t hi = int64_t{1} << 40;  // > 1.08^255: past the top bucket
      while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (LogBucket(mid) >= b) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      lower[b] = lo;
    }
  }
};

}  // namespace

int Histogram::BucketFor(int64_t value) {
  static const BucketEdges edges;
  if (value < 1) value = 1;
  return static_cast<int>(
      std::upper_bound(edges.lower, edges.lower + kNumBuckets, value) -
      edges.lower - 1);
}

int64_t Histogram::BucketValue(int bucket) {
  // Geometric mid-point of the bucket.
  return static_cast<int64_t>(std::pow(1.08, bucket + 0.5));
}

void Histogram::Record(int64_t value) {
  if (value < 1) value = 1;
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t prev_min = min_.load(std::memory_order_relaxed);
  while (value < prev_min &&
         !min_.compare_exchange_weak(prev_min, value,
                                     std::memory_order_relaxed)) {
  }
  int64_t prev_max = max_.load(std::memory_order_relaxed);
  while (value > prev_max &&
         !max_.compare_exchange_weak(prev_max, value,
                                     std::memory_order_relaxed)) {
  }
}

int64_t Histogram::min() const {
  int64_t m = min_.load(std::memory_order_relaxed);
  return m == INT64_MAX ? 0 : m;
}

int64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::Mean() const {
  int64_t c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

int64_t Histogram::Percentile(double q) const {
  const int64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return max();
  int64_t target = static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  if (target < 1) target = 1;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      int64_t v = BucketValue(i);
      return std::clamp<int64_t>(v, min(), max());
    }
  }
  return max();
}

int64_t Histogram::CumulativeCount(int64_t value) const {
  const int upto = BucketFor(value);
  int64_t seen = 0;
  for (int i = 0; i <= upto; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
  }
  return seen;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    int64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  if (other.count() > 0) {
    int64_t om = other.min();
    int64_t prev = min_.load(std::memory_order_relaxed);
    while (om < prev &&
           !min_.compare_exchange_weak(prev, om, std::memory_order_relaxed)) {
    }
    int64_t ox = other.max();
    prev = max_.load(std::memory_order_relaxed);
    while (ox > prev &&
           !max_.compare_exchange_weak(prev, ox, std::memory_order_relaxed)) {
    }
  }
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "count=" << count() << " mean=" << Mean()
     << " p50=" << Percentile(0.50) << " p95=" << Percentile(0.95)
     << " p99=" << Percentile(0.99) << " p999=" << Percentile(0.999)
     << " max=" << max();
  return os.str();
}

MetricLabels MetricsRegistry::Canonicalize(const MetricLabels& labels) {
  MetricLabels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

std::string MetricsRegistry::LabelsKey(const MetricLabels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

MetricsRegistry::Child* MetricsRegistry::GetChild(const std::string& name,
                                                  const MetricLabels& labels,
                                                  MetricType type) {
  Family& family = families_[name];
  if (family.children.empty()) family.type = type;
  MetricLabels canonical = Canonicalize(labels);
  Child& child = family.children[LabelsKey(canonical)];
  if (child.labels.empty() && !canonical.empty()) {
    child.labels = std::move(canonical);
  }
  return &child;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  MutexLock lock(mutex_);
  Child* child = GetChild(name, labels, MetricType::kCounter);
  if (!child->counter) child->counter = std::make_unique<Counter>();
  return child->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  MutexLock lock(mutex_);
  Child* child = GetChild(name, labels, MetricType::kGauge);
  if (!child->gauge) child->gauge = std::make_unique<Gauge>();
  return child->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels) {
  MutexLock lock(mutex_);
  Child* child = GetChild(name, labels, MetricType::kHistogram);
  if (!child->histogram) child->histogram = std::make_unique<Histogram>();
  return child->histogram.get();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const MetricLabels& labels,
                                       MetricType type,
                                       std::function<int64_t()> callback) {
  MutexLock lock(mutex_);
  Child* child = GetChild(name, labels, type);
  child->callback = std::move(callback);
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> out;
  // Callbacks may take subsystem locks below kMetrics in the hierarchy
  // (e.g. SlateCache::size()), so they must run after the registry mutex
  // is released; collect them alongside their sample index first.
  std::vector<std::pair<size_t, std::function<int64_t()>>> callbacks;
  {
    MutexLock lock(mutex_);
    for (const auto& [name, family] : families_) {
      for (const auto& [key, child] : family.children) {
        Sample s;
        s.name = name;
        s.labels = child.labels;
        s.type = family.type;
        if (child.callback) {
          callbacks.emplace_back(out.size(), child.callback);
        } else if (child.counter) {
          s.value = child.counter->Get();
        } else if (child.gauge) {
          s.value = child.gauge->Get();
        } else if (child.histogram) {
          s.histogram = child.histogram.get();
        }
        out.push_back(std::move(s));
      }
    }
  }
  for (auto& [index, callback] : callbacks) {
    out[index].value = callback();
  }
  return out;
}

std::map<std::string, int64_t> MetricsRegistry::CounterValues() const {
  MutexLock lock(mutex_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, family] : families_) {
    if (family.type != MetricType::kCounter) continue;
    for (const auto& [key, child] : family.children) {
      if (!child.counter) continue;
      std::string full = key.empty() ? name : name + "{" + key + "}";
      out[full] = child.counter->Get();
    }
  }
  return out;
}

std::string MetricsRegistry::Report() const {
  std::ostringstream os;
  for (const Sample& s : Snapshot()) {
    os << s.name;
    if (!s.labels.empty()) os << "{" << LabelsKey(s.labels) << "}";
    if (s.histogram != nullptr) {
      os << ": " << s.histogram->Summary() << "\n";
    } else {
      os << " = " << s.value << "\n";
    }
  }
  return os.str();
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [key, child] : family.children) {
      if (child.counter) child.counter->Reset();
      if (child.gauge) child.gauge->Reset();
      if (child.histogram) child.histogram->Reset();
    }
  }
}

}  // namespace muppet
