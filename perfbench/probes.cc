#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/hash.h"

namespace perfbench {

using muppet::BytesView;
using muppet::MachineId;
using muppet::Status;

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  std::nth_element(values->begin(), values->begin() + lo, values->end());
  const double a = (*values)[lo];
  if (hi == lo) return a;
  const double b = *std::min_element(values->begin() + lo + 1, values->end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double HistogramQuantile(const muppet::Histogram& h, double q) {
  const int64_t total = h.count();
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  // Integer values are recorded; bucket b holds [1.08^b, 1.08^(b+1)).
  // Walk the buckets that contain at least one integer, cumulatively.
  int64_t below = 0;
  double lo_edge = 1.0;
  for (int b = 0; b < muppet::Histogram::kNumBuckets; ++b) {
    const double hi_edge = std::pow(1.08, b + 1);
    const int64_t first = static_cast<int64_t>(std::ceil(lo_edge));
    lo_edge = hi_edge;
    if (static_cast<double>(first) >= hi_edge) continue;  // no integer
    const int64_t upto = h.CumulativeCount(first);
    if (static_cast<double>(upto) >= rank && upto > below) {
      const double last = std::ceil(hi_edge);  // exclusive integer edge
      const double frac =
          (rank - static_cast<double>(below)) /
          static_cast<double>(upto - below);
      return static_cast<double>(first) +
             frac * (last - static_cast<double>(first));
    }
    below = upto;
  }
  return static_cast<double>(h.max());
}

namespace {
std::atomic<uint64_t> next_sink_id{1};
}  // namespace

SampleSink::SampleSink() : id_(next_sink_id.fetch_add(1)) {}

std::vector<double>* SampleSink::Local() {
  // Keyed by sink id rather than address: a later sink may reuse a freed
  // address while a long-lived thread still caches the old buffer.
  thread_local std::unordered_map<uint64_t, std::vector<double>*> cache;
  auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  muppet::MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<std::vector<double>>());
  std::vector<double>* buffer = buffers_.back().get();
  cache[id_] = buffer;
  return buffer;
}

void SampleSink::Record(double value) { Local()->push_back(value); }

std::vector<double> SampleSink::Collect() const {
  muppet::MutexLock lock(mu_);
  std::vector<double> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream f("/proc/self/io");
  std::string name;
  int64_t value = 0;
  while (f >> name >> value) {
    if (name == "wchar:") io.wchar = value;
    if (name == "syscw:") io.syscw = value;
  }
  return io;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

CpuStat ReadCpuStat() {
  CpuStat stat;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // "cpu": the all-CPU line comes first
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    int64_t ticks = 0;
    if (!(f >> ticks)) break;
    stat.total += ticks;
    if (i == 7) stat.steal = ticks;
  }
  return stat;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t NetProbe::OnSendStart(BytesView frame) {
  const uint64_t fp = muppet::Fnv1a64(frame);
  const int64_t now = NowNs();
  muppet::MutexLock lock(mu_);
  in_flight_.emplace(fp, now);
  return fp;
}

void NetProbe::OnSendDone(uint64_t fingerprint, BytesView frame,
                          size_t messages, bool ok, int64_t start_ns,
                          int64_t end_ns) {
  send_call_us.Record(static_cast<double>(end_ns - start_ns) / 1e3);
  if (!ok) {
    muppet::MutexLock lock(mu_);
    in_flight_.erase(fingerprint);
    return;
  }
  frames.fetch_add(1, std::memory_order_relaxed);
  this->messages.fetch_add(static_cast<int64_t>(messages),
                           std::memory_order_relaxed);
  bytes.fetch_add(static_cast<int64_t>(frame.size()),
                  std::memory_order_relaxed);
}

void NetProbe::OnReceive(BytesView frame, int64_t start_ns, int64_t end_ns,
                         bool declined) {
  recv_handler_us.Record(static_cast<double>(end_ns - start_ns) / 1e3);
  deliveries.fetch_add(1, std::memory_order_relaxed);
  if (declined) declines.fetch_add(1, std::memory_order_relaxed);
  handler_ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  const uint64_t fp = muppet::Fnv1a64(frame);
  int64_t sent_ns = -1;
  {
    muppet::MutexLock lock(mu_);
    auto it = in_flight_.find(fp);
    if (it != in_flight_.end()) {
      sent_ns = it->second;
      in_flight_.erase(it);
    }
  }
  if (sent_ns >= 0) {
    hop_us.Record(static_cast<double>(start_ns - sent_ns) / 1e3);
  }
}

Status TracingTransport::RegisterMachine(MachineId id, Handler handler) {
  return inner_->RegisterMachine(
      id, [probe = probe_, handler = std::move(handler)](
              MachineId from, BytesView payload) {
        const int64_t t0 = NowNs();
        Status s = handler(from, payload);
        probe->OnReceive(payload, t0, NowNs(), s.IsResourceExhausted());
        return s;
      });
}

Status TracingTransport::RegisterBatchHandler(MachineId id,
                                              BatchHandler handler) {
  return inner_->RegisterBatchHandler(
      id, [probe = probe_, handler = std::move(handler)](
              MachineId from, BytesView frame, size_t count,
              size_t* accepted) {
        const int64_t t0 = NowNs();
        Status s = handler(from, frame, count, accepted);
        probe->OnReceive(frame, t0, NowNs(), s.IsResourceExhausted());
        return s;
      });
}

Status TracingTransport::Send(MachineId from, MachineId to,
                              BytesView payload, uint64_t fault_signature) {
  const uint64_t fp = probe_->OnSendStart(payload);
  const int64_t t0 = NowNs();
  Status s = inner_->Send(from, to, payload, fault_signature);
  probe_->OnSendDone(fp, payload, 1, s.ok(), t0, NowNs());
  return s;
}

Status TracingTransport::SendBatch(MachineId from, MachineId to,
                                   BytesView frame, size_t count,
                                   size_t* accepted,
                                   uint64_t fault_signature) {
  const uint64_t fp = probe_->OnSendStart(frame);
  const int64_t t0 = NowNs();
  Status s =
      inner_->SendBatch(from, to, frame, count, accepted, fault_signature);
  probe_->OnSendDone(fp, frame, count, s.ok(), t0, NowNs());
  return s;
}

}  // namespace perfbench
