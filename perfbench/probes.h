// Measurement helpers for the repo benchmark: exact-sample percentiles,
// per-thread sample buffers, process counters from /proc and getrusage,
// and the Transport decorator the traced run wraps around each
// TcpTransport. Everything here lives on the benchmark side; the program
// under test is only called through its public headers.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "net/transport.h"

namespace perfbench {

// Monotonic nanoseconds since the first call in this process. Event due
// times and completion times share this clock.
int64_t NowNs();
inline double NowUs() { return static_cast<double>(NowNs()) / 1e3; }

// Linear-interpolated quantile (q in [0,1]) of `values`, which it
// reorders. 0 when empty.
double Quantile(std::vector<double>* values, double q);

// Quantile of a registry histogram, interpolated linearly inside the
// registry's 8% geometric buckets (the way a Prometheus histogram_quantile
// reads them). Histogram::Percentile returns the bucket's integer value,
// so a queue wait of a few microseconds reads the same figure on every
// run; a reported time must move with the data.
double HistogramQuantile(const muppet::Histogram& h, double q);

// Thread-safe sample collector: each recording thread appends to its own
// buffer, so the hot path takes no lock after a thread's first sample.
// Collect() must run while no thread records.
class SampleSink {
 public:
  SampleSink();
  SampleSink(const SampleSink&) = delete;
  SampleSink& operator=(const SampleSink&) = delete;

  void Record(double value);
  std::vector<double> Collect() const;

 private:
  std::vector<double>* Local();

  const uint64_t id_;
  mutable muppet::Mutex mu_{muppet::LockLevel::kMetrics};
  std::vector<std::unique_ptr<std::vector<double>>> buffers_
      MUPPET_GUARDED_BY(mu_);
};

// Process-wide counters.
struct ProcIo {
  int64_t wchar = 0;  // bytes passed to write-family syscalls
  int64_t syscw = 0;  // write-family syscalls
};
ProcIo ReadProcIo();
double CpuSeconds();   // user + system CPU time of this process
double ThreadCpuSeconds();  // CPU time of the calling thread
double PeakRssMb();    // VmHWM

// Host-wide CPU time from /proc/stat, in clock ticks. `steal` is time the
// hypervisor ran something else while this guest wanted the CPU; its
// share over a phase explains runs slowed by the host, not the program.
struct CpuStat {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuStat ReadCpuStat();

// Counters of the traced run's Transport decorators. One probe is shared
// by every decorator in the process, so a frame sent through one
// transport is matched (by fingerprint) when the other delivers it.
class NetProbe {
 public:
  // Called before the send, so a delivery that races ahead of the
  // sender's return still finds its fingerprint. Returns the fingerprint.
  uint64_t OnSendStart(muppet::BytesView frame);
  void OnSendDone(uint64_t fingerprint, muppet::BytesView frame,
                  size_t messages, bool ok, int64_t start_ns, int64_t end_ns);
  void OnReceive(muppet::BytesView frame, int64_t start_ns, int64_t end_ns,
                 bool declined);

  SampleSink send_call_us;
  SampleSink recv_handler_us;
  SampleSink hop_us;
  std::atomic<int64_t> frames{0};
  std::atomic<int64_t> messages{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> deliveries{0};
  std::atomic<int64_t> declines{0};
  std::atomic<int64_t> handler_ns{0};

 private:
  muppet::Mutex mu_{muppet::LockLevel::kMetrics};
  std::unordered_map<uint64_t, int64_t> in_flight_ MUPPET_GUARDED_BY(mu_);
};

// Transport decorator: forwards every call to `inner`, timing sends and
// wrapping the engine's registered handlers to time deliveries.
class TracingTransport final : public muppet::Transport {
 public:
  TracingTransport(muppet::Transport* inner, NetProbe* probe)
      : inner_(inner), probe_(probe) {}

  muppet::Status Start() override { return inner_->Start(); }
  void Stop() override { inner_->Stop(); }
  muppet::Status RegisterMachine(muppet::MachineId id,
                                 Handler handler) override;
  muppet::Status RegisterBatchHandler(muppet::MachineId id,
                                      BatchHandler handler) override;
  void UnregisterMachine(muppet::MachineId id) override {
    inner_->UnregisterMachine(id);
  }
  muppet::Status Send(muppet::MachineId from, muppet::MachineId to,
                      muppet::BytesView payload,
                      uint64_t fault_signature = 0) override;
  muppet::Status SendBatch(muppet::MachineId from, muppet::MachineId to,
                           muppet::BytesView frame, size_t count,
                           size_t* accepted,
                           uint64_t fault_signature = 0) override;
  void Crash(muppet::MachineId id) override { inner_->Crash(id); }
  void Restore(muppet::MachineId id) override { inner_->Restore(id); }
  bool IsUp(muppet::MachineId id) const override { return inner_->IsUp(id); }
  std::vector<muppet::MachineId> Machines() const override {
    return inner_->Machines();
  }
  void FlushHeld() override { inner_->FlushHeld(); }
  muppet::Status FlushOutbound(muppet::Timestamp timeout_micros) override {
    return inner_->FlushOutbound(timeout_micros);
  }
  int64_t SendAttemptsTo(muppet::MachineId id) const override {
    return inner_->SendAttemptsTo(id);
  }

 private:
  muppet::Transport* inner_;
  NetProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
