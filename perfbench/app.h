// The benchmark's application and inputs. One workflow serves every
// workload: input stream "in" -> mapper "fwd" -> stream "s" -> updater
// "count", whose JSON slate counts a key's events and folds a digest of
// their values. The updater is the terminal operator: it stamps each
// completion against the event's due time, which the generator carries in
// the event timestamp.
#ifndef PERFBENCH_APP_H_
#define PERFBENCH_APP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/slate.h"
#include "core/topology.h"
#include "probes.h"

namespace perfbench {

inline constexpr char kInputStream[] = "in";
inline constexpr char kUpdater[] = "count";

// What the operator bodies report. Owned by the workload runner; the
// engine's operators hold a pointer for the engine's lifetime.
struct AppProbe {
  // Terminal updates completed.
  std::atomic<int64_t> completed{0};
  // Called by the terminal updater for each completion.
  void Complete();
  // Blocks until `completed` reaches `target`, or for at most timeout_us.
  // The completion that reaches the target wakes the caller, so a
  // generator waiting for window slots is woken once per wait instead of
  // polling.
  void WaitCompleted(int64_t target, int64_t timeout_us);
  // Open-loop latency: an event due (microseconds on NowUs's clock) at
  // latency_from_us + k * slice_us or later, up to the next slice, records
  // its due-to-completion latency into latency_slices[k]. The runner fills
  // slice_us and latency_slices before publishing latency_from_us.
  std::atomic<int64_t> latency_from_us{std::numeric_limits<int64_t>::max()};
  int64_t slice_us = 1;
  std::vector<std::unique_ptr<SampleSink>> latency_slices;

  // Traced run only: operator-body timers.
  std::atomic<bool> timed{false};
  SampleSink map_self_us;
  SampleSink update_self_us;
  SampleSink decode_us;
  SampleSink encode_us;
  std::atomic<int64_t> update_busy_ns{0};

 private:
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<int64_t> wake_at_{-1};
};

// Declares the workflow. `probe` may be null (the reference run).
muppet::Status BuildApp(AppProbe* probe, muppet::AppConfig* config);

// Deterministic inputs of one run. Event i's key is a rank drawn from the
// workload's key distribution (or rank i during the warm-up pass over every
// key); its value is a pure function of (seed, i).
class Inputs {
 public:
  Inputs(uint64_t seed, uint64_t num_keys, double zipf_skew,
         size_t value_bytes);

  // Key rank of the next generated event; appends it to the log.
  uint32_t NextRank();
  // Append the warm-up pass (rank i for every key) to the log.
  void AddWarmup();

  const std::vector<uint32_t>& ranks() const { return ranks_; }
  uint64_t num_keys() const { return num_keys_; }
  static std::string KeyOf(uint32_t rank) {
    std::string key = "k";
    key += std::to_string(rank);
    return key;
  }
  std::string ValueOf(uint64_t index) const;

  // Rewind the generator and log to their initial state (a new setup
  // replays the same inputs).
  void Reset();

 private:
  const uint64_t seed_;
  const uint64_t num_keys_;
  const double skew_;
  const size_t value_bytes_;
  muppet::ZipfSampler sampler_;
  muppet::Rng rng_;
  std::vector<uint32_t> ranks_;
};

// Result of the reference check.
struct ReferenceResult {
  int64_t keys_checked = 0;
  int64_t mismatches = 0;
  int64_t events = 0;
  double seconds = 0.0;  // time inside ReferenceExecutor only
};

// Runs ReferenceExecutor over every logged input (in key partitions, to
// bound its memory; the app keeps no cross-key state, so a partition's
// slates are exactly the full run's slates for those keys) and compares
// each key's final slate with `fetch(key)`. `perturb` corrupts one
// expected slate, which a correct check must reject.
using SlateFetch =
    std::function<muppet::Result<muppet::Bytes>(const std::string& key)>;
muppet::Result<ReferenceResult> CheckAgainstReference(const Inputs& inputs,
                                                      const SlateFetch& fetch,
                                                      bool perturb);

}  // namespace perfbench

#endif  // PERFBENCH_APP_H_
