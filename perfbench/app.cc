#include "app.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/hash.h"
#include "core/operator.h"
#include "core/reference_executor.h"

namespace perfbench {

using muppet::Bytes;
using muppet::BytesView;
using muppet::Event;
using muppet::PerformerUtilities;
using muppet::Status;

namespace {

constexpr char kForwardStream[] = "s";
constexpr int64_t kDigestModulus = 1000000007;

// The mapper forwards each event, unchanged, to the updater's stream.
class ForwardMapper final : public muppet::Mapper {
 public:
  ForwardMapper(std::string name, AppProbe* probe)
      : name_(std::move(name)), probe_(probe) {}
  const std::string& GetName() const override { return name_; }

  void Map(PerformerUtilities& out, const Event& event) override {
    const int64_t t0 = Timed() ? NowNs() : 0;
    (void)out.Publish(kForwardStream, event.key, event.value);
    if (Timed()) {
      probe_->map_self_us.Record(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }

 private:
  bool Timed() const {
    return probe_ != nullptr && probe_->timed.load(std::memory_order_relaxed);
  }
  std::string name_;
  AppProbe* probe_;
};

// The terminal updater: slate {"h": digest fold, "n": event count}.
class CountUpdater final : public muppet::Updater {
 public:
  CountUpdater(std::string name, AppProbe* probe)
      : name_(std::move(name)), probe_(probe) {}
  const std::string& GetName() const override { return name_; }

  void Update(PerformerUtilities& out, const Event& event,
              const Bytes* slate) override {
    const bool timed =
        probe_ != nullptr && probe_->timed.load(std::memory_order_relaxed);
    const int64_t t0 = timed ? NowNs() : 0;
    muppet::JsonSlate s(slate);
    const int64_t t1 = timed ? NowNs() : 0;
    const int64_t digest =
        static_cast<int64_t>(muppet::Fnv1a64(event.value) & 0xffffffffu);
    s.data()["n"] = s.data().GetInt("n") + 1;
    s.data()["h"] = (s.data().GetInt("h") + digest) % kDigestModulus;
    const int64_t t2 = timed ? NowNs() : 0;
    Bytes encoded = s.Serialize();
    const int64_t t3 = timed ? NowNs() : 0;
    (void)out.ReplaceSlate(encoded);
    if (probe_ == nullptr) return;

    // The generator published at ts = due time; the mapper's emit added 1.
    const int64_t due_us = event.ts - 1;
    const int64_t from = probe_->latency_from_us.load(std::memory_order_acquire);
    if (due_us >= from) {
      const auto slice = static_cast<size_t>((due_us - from) / probe_->slice_us);
      if (slice < probe_->latency_slices.size()) {
        probe_->latency_slices[slice]->Record(NowUs() -
                                              static_cast<double>(due_us));
      }
    }
    probe_->Complete();
    if (timed) {
      const int64_t t4 = NowNs();
      probe_->decode_us.Record(static_cast<double>(t1 - t0) / 1e3);
      probe_->encode_us.Record(static_cast<double>(t3 - t2) / 1e3);
      probe_->update_self_us.Record(
          static_cast<double>((t4 - t0) - (t1 - t0) - (t3 - t2)) / 1e3);
      probe_->update_busy_ns.fetch_add(t4 - t0, std::memory_order_relaxed);
    }
  }

 private:
  std::string name_;
  AppProbe* probe_;
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void AppProbe::Complete() {
  // Sequentially consistent with the waiter's store of wake_at_ and load of
  // completed: either this completion sees the target, or the waiter sees
  // the count.
  const int64_t done = completed.fetch_add(1) + 1;
  if (done == wake_at_.load()) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_one();
  }
}

void AppProbe::WaitCompleted(int64_t target, int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(wake_mu_);
  wake_at_.store(target);
  wake_cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                    [&] { return completed.load() >= target; });
  wake_at_.store(-1);
}

Status BuildApp(AppProbe* probe, muppet::AppConfig* config) {
  MUPPET_RETURN_IF_ERROR(config->DeclareInputStream(kInputStream));
  MUPPET_RETURN_IF_ERROR(config->DeclareStream(kForwardStream));
  MUPPET_RETURN_IF_ERROR(config->AddMapper(
      "fwd",
      [probe](const muppet::AppConfig&, const std::string& name) {
        return std::make_unique<ForwardMapper>(name, probe);
      },
      {kInputStream}));
  muppet::UpdaterOptions options;
  // Dirty slates reach the store when evicted (and at checkpoints when a
  // changelog runs); without a store this is inert.
  options.flush_policy = muppet::SlateFlushPolicy::kOnEvict;
  MUPPET_RETURN_IF_ERROR(config->AddUpdater(
      kUpdater,
      [probe](const muppet::AppConfig&, const std::string& name) {
        return std::make_unique<CountUpdater>(name, probe);
      },
      {kForwardStream}, options));
  return config->Validate();
}

Inputs::Inputs(uint64_t seed, uint64_t num_keys, double zipf_skew,
               size_t value_bytes)
    : seed_(seed),
      num_keys_(num_keys),
      skew_(zipf_skew),
      value_bytes_(value_bytes),
      sampler_(num_keys, zipf_skew),
      rng_(SplitMix(seed)) {}

uint32_t Inputs::NextRank() {
  const auto rank = static_cast<uint32_t>(sampler_.Sample(rng_));
  ranks_.push_back(rank);
  return rank;
}

void Inputs::AddWarmup() {
  for (uint64_t r = 0; r < num_keys_; ++r) {
    ranks_.push_back(static_cast<uint32_t>(r));
  }
}

void Inputs::Reset() {
  sampler_ = muppet::ZipfSampler(num_keys_, skew_);
  rng_ = muppet::Rng(SplitMix(seed_));
  ranks_.clear();
}

std::string Inputs::ValueOf(uint64_t index) const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string value(value_bytes_, '0');
  uint64_t word = 0;
  for (size_t i = 0; i < value_bytes_; ++i) {
    if (i % 16 == 0) word = SplitMix(seed_ * 0x100000001b3ULL + index + i);
    value[i] = kHex[word & 0xf];
    word >>= 4;
  }
  return value;
}

muppet::Result<ReferenceResult> CheckAgainstReference(const Inputs& inputs,
                                                      const SlateFetch& fetch,
                                                      bool perturb) {
  constexpr size_t kEventsPerPartition = 150000;
  constexpr size_t kChunk = 20000;
  const std::vector<uint32_t>& ranks = inputs.ranks();
  const uint32_t partitions = static_cast<uint32_t>(
      std::max<size_t>(1, (ranks.size() + kEventsPerPartition - 1) /
                              kEventsPerPartition));
  muppet::AppConfig config;
  MUPPET_RETURN_IF_ERROR(BuildApp(nullptr, &config));

  ReferenceResult result;
  result.events = static_cast<int64_t>(ranks.size());
  for (uint32_t p = 0; p < partitions; ++p) {
    muppet::ReferenceExecutor ref(config);
    MUPPET_RETURN_IF_ERROR(ref.Start());
    struct Input {
      std::string key;
      std::string value;
      muppet::Timestamp ts;
    };
    std::vector<Input> chunk;
    chunk.reserve(kChunk);
    auto run_chunk = [&]() -> Status {
      const int64_t t0 = NowNs();
      for (const Input& in : chunk) {
        MUPPET_RETURN_IF_ERROR(
            ref.Publish(kInputStream, in.key, in.value, in.ts));
      }
      MUPPET_RETURN_IF_ERROR(ref.Run());
      result.seconds += static_cast<double>(NowNs() - t0) / 1e9;
      chunk.clear();
      return Status::OK();
    };
    for (size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] % partitions != p) continue;
      chunk.push_back({Inputs::KeyOf(ranks[i]), inputs.ValueOf(i),
                       static_cast<muppet::Timestamp>(i + 1)});
      if (chunk.size() == kChunk) MUPPET_RETURN_IF_ERROR(run_chunk());
    }
    MUPPET_RETURN_IF_ERROR(run_chunk());

    const auto& slates = ref.slates();
    for (uint32_t r = p; r < inputs.num_keys(); r += partitions) {
      const std::string key = Inputs::KeyOf(r);
      auto it = slates.find(muppet::SlateId{kUpdater, key});
      std::string expected = it == slates.end() ? "" : it->second;
      if (perturb && r == 0) expected += " ";
      muppet::Result<Bytes> got = fetch(key);
      ++result.keys_checked;
      if (got.ok()) {
        if (it == slates.end() || got.value() != expected) {
          ++result.mismatches;
        }
      } else if (!got.status().IsNotFound() || it != slates.end()) {
        ++result.mismatches;
      }
    }
  }
  return result;
}

}  // namespace perfbench
