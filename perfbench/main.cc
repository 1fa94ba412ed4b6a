// perfbench: one workload run of the repo benchmark (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir DIR]
//             [--perturb-expected] [--inject-refused-publish]
//
// A run sets the workload up (kSetups times with --trace 0, reporting the
// median set-up CPU and wall times), runs a closed-loop phase and an
// open-loop phase of seconds/2 each, drains, and checks every final slate
// against ReferenceExecutor on the same inputs. --trace 0 reports the
// end-to-end metrics; --trace 1 first measures an untraced closed loop,
// then repeats the workload traced and reports the per-layer metrics. The
// last stdout line is "RESULT <json>"; run.py turns it into the
// benchmark's result.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "app.h"
#include "common/rng.h"
#include "common/slo.h"
#include "json/json.h"
#include "net/http_client.h"
#include "probes.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using muppet::Json;
using muppet::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_work";
  bool perturb_expected = false;
  bool inject_refused_publish = false;
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Metric name -> {value, unit[, samples]}.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1) {
    Json m = Json::MakeObject();
    m["value"] = std::isfinite(value) ? value : 0.0;
    m["unit"] = unit;
    if (samples >= 0) m["samples"] = samples;
    json_[name] = std::move(m);
  }
  const Json& json() const { return json_; }

 private:
  Json json_ = Json::MakeObject();
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Counters summed over a deployment's engines.
struct Totals {
  int64_t published = 0, processed = 0, dropped = 0, lost = 0;
  int64_t hits = 0, misses = 0, evictions = 0;
  int64_t store_reads = 0, store_writes = 0;
  int64_t appends = 0, checkpoints = 0;
  int64_t secondary = 0, contentions = 0;
};

Totals Snapshot(const Deployment& d) {
  Totals t;
  for (const auto& e : d.engines()) {
    const muppet::EngineStats s = e->Stats();
    t.published += s.events_published;
    t.processed += s.events_processed;
    t.dropped += s.events_dropped_overflow + s.events_redirected_overflow;
    t.lost += s.events_lost_failure;
    t.hits += s.slate_cache_hits;
    t.misses += s.slate_cache_misses;
    t.evictions += s.slate_cache_evictions;
    t.store_reads += s.slate_store_reads;
    t.store_writes += s.slate_store_writes;
    t.appends += s.slatelog_appends;
    t.checkpoints += s.checkpoints;
    t.secondary += e->secondary_dispatches();
    t.contentions += e->slate_contentions();
  }
  return t;
}

Totals operator-(const Totals& a, const Totals& b) {
  Totals d;
  d.published = a.published - b.published;
  d.processed = a.processed - b.processed;
  d.dropped = a.dropped - b.dropped;
  d.lost = a.lost - b.lost;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  d.store_reads = a.store_reads - b.store_reads;
  d.store_writes = a.store_writes - b.store_writes;
  d.appends = a.appends - b.appends;
  d.checkpoints = a.checkpoints - b.checkpoints;
  d.secondary = a.secondary - b.secondary;
  d.contentions = a.contentions - b.contentions;
  return d;
}

struct ShardTotals {
  int64_t flushes = 0, compactions = 0, sstables = 0;
};

ShardTotals ShardSnapshot(Deployment& d) {
  ShardTotals t;
  muppet::kv::KvCluster* kv = d.kv();
  if (kv == nullptr) return t;
  for (int i = 0; i < kv->num_nodes(); ++i) {
    muppet::Result<muppet::kv::Shard*> shard =
        kv->node(i)->GetColumnFamily(muppet::SlateStoreOptions{}.column_family);
    if (!shard.ok()) continue;
    t.flushes += static_cast<int64_t>(shard.value()->flush_count());
    t.compactions += static_cast<int64_t>(shard.value()->compaction_count());
    t.sstables += static_cast<int64_t>(shard.value()->sstable_count());
  }
  return t;
}

// One started workload instance. `dep` is declared after the probes its
// operators and transports report to, so it stops first.
struct Instance {
  std::unique_ptr<AppProbe> probe = std::make_unique<AppProbe>();
  std::unique_ptr<NetProbe> net = std::make_unique<NetProbe>();
  std::unique_ptr<Deployment> dep;
  int64_t accepted = 0;  // publishes the engine accepted
  int64_t refused = 0;   // publishes it refused
};

// Phases are cut into slices of about a second; a rate or percentile is
// computed per slice and reported as the median over slices, so one
// transient stall moves it less than a whole-phase figure.
constexpr double kSliceSeconds = 0.25;

// Set-ups per end-to-end run; setup_s and setup_wall_s are medians.
constexpr int kSetups = 5;

int Slices(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

struct ClosedResult {
  double seconds = 0;
  int64_t completed = 0;
  std::vector<double> slice_eps;
  std::vector<double> slice_cpu_us_per_event;
  ProcIo io;
  int64_t update_busy_ns = 0;
  int64_t net_messages = 0;
  int64_t net_handler_ns = 0;
  // CPU the generator spent in its waits for a free window slot, and the
  // whole process's CPU over the phase.
  double wait_cpu_s = 0;
  double cpu_s = 0;
};

struct OpenResult {
  int64_t events = 0;
  std::vector<std::vector<double>> latency_slices;
  std::vector<double> late_us;
  std::vector<double> read_us;
  std::vector<double> fetch_call_us;
  int64_t reads = 0;
  int64_t bad_reads = 0;
  double drain_tail_ms = 0;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        inputs_(args.seed, spec.num_keys, spec.zipf_skew, spec.value_bytes) {}

  int Main();

 private:
  muppet::Result<std::unique_ptr<Instance>> SetUp(bool traced,
                                                  double* seconds,
                                                  double* cpu_seconds);
  void PublishNext(Instance& in, uint32_t rank, muppet::Timestamp ts,
                   SampleSink* call_timer);
  bool WaitCompleted(Instance& in, double timeout_s);
  ClosedResult ClosedLoop(Instance& in, double seconds,
                          SampleSink* call_timer);
  OpenResult OpenLoop(Instance& in, double seconds, bool traced);

  const WorkloadSpec& spec_;
  const Args& args_;
  Inputs inputs_;
  const int nproc_ = Nproc();
};

muppet::Result<std::unique_ptr<Instance>> Runner::SetUp(bool traced,
                                                        double* seconds,
                                                        double* cpu_seconds) {
  std::error_code ec;
  std::filesystem::remove_all(args_.workdir, ec);
  std::filesystem::create_directories(args_.workdir, ec);
  if (ec) return Status::IOError("cannot create " + args_.workdir);
  inputs_.Reset();

  auto in = std::make_unique<Instance>();
  const int64_t t0 = NowNs();
  const double cpu0 = CpuSeconds();
  DeployOptions options;
  options.traced = traced;
  options.workdir = args_.workdir;
  options.nproc = nproc_;
  muppet::Result<std::unique_ptr<Deployment>> dep =
      Deployment::Start(spec_, options, in->probe.get(), in->net.get());
  if (!dep.ok()) return dep.status();
  in->dep = std::move(dep).value();

  // Warm-up, counted in set-up time: one event per key, so the cache (and
  // in durable_rw the store) holds every slate before measuring.
  const size_t first = inputs_.ranks().size();
  inputs_.AddWarmup();
  for (size_t i = first; i < inputs_.ranks().size(); ++i) {
    const uint32_t rank = inputs_.ranks()[i];
    while (in->accepted - in->probe->completed.load() >= kWindow) {
      in->probe->WaitCompleted(in->accepted - kWindow + kRefill, kWaitMicros);
    }
    const Status s = in->dep->Publish(i, Inputs::KeyOf(rank),
                                      inputs_.ValueOf(i),
                                      static_cast<int64_t>(NowUs()));
    s.ok() ? ++in->accepted : ++in->refused;
  }
  if (!WaitCompleted(*in, 60.0)) {
    return Status::TimedOut("warm-up did not complete");
  }
  MUPPET_RETURN_IF_ERROR(in->dep->Drain());
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  *cpu_seconds = CpuSeconds() - cpu0;
  return in;
}

void Runner::PublishNext(Instance& in, uint32_t rank, muppet::Timestamp ts,
                         SampleSink* call_timer) {
  const uint64_t index = inputs_.ranks().size() - 1;
  const std::string key = Inputs::KeyOf(rank);
  const std::string value = inputs_.ValueOf(index);
  const int64_t t0 = call_timer != nullptr ? NowNs() : 0;
  const Status s = in.dep->Publish(index, key, value, ts);
  if (call_timer != nullptr) {
    call_timer->Record(static_cast<double>(NowNs() - t0) / 1e3);
  }
  s.ok() ? ++in.accepted : ++in.refused;
}

bool Runner::WaitCompleted(Instance& in, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (in.probe->completed.load(std::memory_order_acquire) < in.accepted) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

ClosedResult Runner::ClosedLoop(Instance& in, double seconds,
                                SampleSink* call_timer) {
  ClosedResult r;
  AppProbe& probe = *in.probe;
  const ProcIo io0 = ReadProcIo();
  const double cpu0 = CpuSeconds();
  const int64_t busy0 = probe.update_busy_ns.load();
  const int64_t msgs0 = in.net->messages.load();
  const int64_t handler0 = in.net->handler_ns.load();
  const int64_t done0 = probe.completed.load();
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  const int slices = Slices(seconds);
  int64_t slice_t0 = t0;
  int64_t slice_done0 = done0;
  double slice_cpu0 = cpu0;
  auto close_slice = [&](int64_t now) {
    const int64_t done = probe.completed.load();
    const double cpu = CpuSeconds();
    const auto n = static_cast<double>(done - slice_done0);
    r.slice_eps.push_back(Ratio(n, static_cast<double>(now - slice_t0) / 1e9));
    r.slice_cpu_us_per_event.push_back(Ratio((cpu - slice_cpu0) * 1e6, n));
    slice_t0 = now;
    slice_done0 = done;
    slice_cpu0 = cpu;
  };
  while (true) {
    const int64_t now = NowNs();
    if (now >= end) break;
    const auto k = static_cast<int>(r.slice_eps.size());
    if (k + 1 < slices &&
        now >= t0 + static_cast<int64_t>((k + 1) * (end - t0) / slices)) {
      close_slice(now);
    }
    if (in.accepted - probe.completed.load(std::memory_order_acquire) >=
        kWindow) {
      const double c0 = ThreadCpuSeconds();
      probe.WaitCompleted(in.accepted - kWindow + kRefill, kWaitMicros);
      r.wait_cpu_s += ThreadCpuSeconds() - c0;
      continue;
    }
    PublishNext(in, inputs_.NextRank(), now / 1000, call_timer);
  }
  const int64_t t1 = NowNs();
  close_slice(t1);
  r.completed = probe.completed.load() - done0;
  r.update_busy_ns = probe.update_busy_ns.load() - busy0;
  r.net_messages = in.net->messages.load() - msgs0;
  r.net_handler_ns = in.net->handler_ns.load() - handler0;
  const ProcIo io1 = ReadProcIo();
  r.io.wchar = io1.wchar - io0.wchar;
  r.io.syscw = io1.syscw - io0.syscw;
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  r.cpu_s = CpuSeconds() - cpu0;
  return r;
}

OpenResult Runner::OpenLoop(Instance& in, double seconds, bool traced) {
  OpenResult r;
  Deployment& dep = *in.dep;
  const int64_t start = NowNs() + 1000000;  // 1 ms to get the reader going
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int slices = Slices(seconds);
  const int64_t slice_ns = (end - start) / slices + 1;
  AppProbe& probe = *in.probe;
  probe.latency_slices.clear();
  for (int k = 0; k < slices; ++k) {
    probe.latency_slices.push_back(std::make_unique<SampleSink>());
  }
  probe.slice_us = slice_ns / 1000 + 1;
  probe.latency_from_us.store(start / 1000, std::memory_order_release);

  // The reader: one GET at a time at a fixed rate, uniform keys. The
  // traced run calls FetchSlate directly instead, pricing the service
  // layer without HTTP.
  std::vector<double> read_us;  // reader thread only, until joined
  SampleSink fetch_call_us;
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> bad_reads{0};
  std::thread reader([&] {
    muppet::Rng rng(args_.seed ^ 0x7ead5eedULL);
    const double interval_ns = 1e9 / kReadEps;
    for (int64_t k = 0;; ++k) {
      const int64_t due = start + static_cast<int64_t>(k * interval_ns);
      if (due >= end) break;
      const int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const std::string key =
          Inputs::KeyOf(static_cast<uint32_t>(rng.Uniform(spec_.num_keys)));
      const int64_t t0 = NowNs();
      bool ok = false;
      if (traced) {
        muppet::Result<muppet::Bytes> slate = dep.Fetch(key);
        fetch_call_us.Record(static_cast<double>(NowNs() - t0) / 1e3);
        ok = slate.ok() || slate.status().IsNotFound();
      } else {
        muppet::HttpClientResponse resp;
        const Status s = muppet::HttpGet(
            "127.0.0.1", dep.http_port(),
            muppet::SlateService::SlateUri(kUpdater, key), &resp,
            2 * 1000 * 1000);
        read_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        ok = s.ok() && (resp.status == 200 || resp.status == 404);
      }
      reads.fetch_add(1);
      if (!ok) bad_reads.fetch_add(1);
    }
  });

  // The generator: event n is due at start + n / rate, whatever the
  // engine's progress; it logs how late each publish began. When the
  // deployment's busy threads leave it a core of its own it spins up to
  // each due time; otherwise spinning would take a core the workers and
  // IO threads need, so it sleeps instead.
  const bool spin = dep.busy_threads() + 1 <= nproc_;
  SampleSink late_us;
  const double interval_ns = 1e9 / spec_.open_loop_eps;
  for (int64_t n = 0;; ++n) {
    const int64_t due = start + static_cast<int64_t>(n * interval_ns);
    if (due >= end) break;
    int64_t now = NowNs();
    if (spin) {
      if (due - now > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100000));
      }
      while ((now = NowNs()) < due) {
      }
    } else if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    late_us.Record(static_cast<double>(now - due) / 1e3);
    PublishNext(in, inputs_.NextRank(), due / 1000, nullptr);
    ++r.events;
  }
  reader.join();
  const int64_t published_end = NowNs();
  WaitCompleted(in, 60.0);
  (void)dep.Drain();
  r.drain_tail_ms = static_cast<double>(NowNs() - published_end) / 1e6;

  for (const auto& sink : probe.latency_slices) {
    r.latency_slices.push_back(sink->Collect());
  }
  r.late_us = late_us.Collect();
  r.read_us = std::move(read_us);
  r.fetch_call_us = fetch_call_us.Collect();
  r.reads = reads.load();
  r.bad_reads = bad_reads.load();
  return r;
}

// Median of whole-microsecond span durations, reading each value v as the
// interval [v - 0.5, v + 0.5) and interpolating inside the median's
// interval, as for grouped data; a plain median would snap to an integer.
double GroupedMedian(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double half = static_cast<double>(v.size()) / 2;
  const double mid = v[v.size() / 2];
  const auto lo = std::lower_bound(v.begin(), v.end(), mid);
  const auto hi = std::upper_bound(v.begin(), v.end(), mid);
  const auto below = static_cast<double>(lo - v.begin());
  const auto at = static_cast<double>(hi - lo);
  return mid - 0.5 + (half - below) / at;
}

// crit.*: reduce the traced run's spans, gathered from every sink, to
// critical-path breakdowns.
void AddCriticalPath(Deployment& dep, Metrics* m) {
  std::map<uint64_t, std::vector<muppet::Span>> traces;
  for (const auto& e : dep.engines()) {
    for (muppet::MachineId id = 0; id < 8; ++id) {
      muppet::TraceSink* sink = e->trace_sink(id);
      if (sink == nullptr) continue;
      for (auto& rec : sink->Recent()) {
        auto& spans = traces[rec.trace_id];
        spans.insert(spans.end(), rec.spans.begin(), rec.spans.end());
      }
    }
  }
  std::vector<double> wait, exec, fetch, hop, unattributed;
  for (const auto& [id, spans] : traces) {
    const muppet::CriticalPath cp = muppet::ComputeCriticalPath(spans);
    if (cp.stream.empty()) continue;  // root span not retained
    wait.push_back(static_cast<double>(cp.queue_wait_us));
    exec.push_back(static_cast<double>(cp.exec_us));
    fetch.push_back(static_cast<double>(cp.slate_fetch_us));
    hop.push_back(static_cast<double>(cp.net_hop_us));
    unattributed.push_back(static_cast<double>(cp.unattributed_us));
  }
  const auto n = static_cast<int64_t>(wait.size());
  m->Add("crit.queue_wait_p50_us", GroupedMedian(wait), "us", n);
  m->Add("crit.exec_p50_us", GroupedMedian(exec), "us", n);
  m->Add("crit.slate_fetch_p50_us", GroupedMedian(fetch), "us", n);
  m->Add("crit.net_hop_p50_us", GroupedMedian(hop), "us", n);
  m->Add("crit.unattributed_p50_us", GroupedMedian(unattributed), "us", n);
}

void AddPercentiles(const std::string& prefix, std::vector<double> v,
                    Metrics* m, bool p99 = true) {
  const auto n = static_cast<int64_t>(v.size());
  m->Add(prefix + "_p50_us", Quantile(&v, 0.5), "us", n);
  if (p99) m->Add(prefix + "_p99_us", Quantile(&v, 0.99), "us", n);
}

// Median over slices of each slice's p50, p90 and p99; the sample count
// is the phase total.
void AddSlicedPercentiles(const std::string& prefix,
                          const std::vector<std::vector<double>>& slices,
                          Metrics* m) {
  std::vector<double> p50, p90, p99;
  int64_t n = 0;
  for (std::vector<double> v : slices) {
    if (v.empty()) continue;
    n += static_cast<int64_t>(v.size());
    p50.push_back(Quantile(&v, 0.5));
    p90.push_back(Quantile(&v, 0.9));
    p99.push_back(Quantile(&v, 0.99));
  }
  m->Add(prefix + "_p50_us", Median(p50), "us", n);
  m->Add(prefix + "_p90_us", Median(p90), "us", n);
  m->Add(prefix + "_p99_us", Median(p99), "us", n);
}

int Runner::Main() {
  const double closed_s = args_.seconds / 2;
  const double open_s = args_.seconds / 2;
  Metrics m;

  // --trace 1 first measures an untraced closed loop: the base of
  // trace_overhead_frac.
  double untraced_eps = 0;
  if (args_.trace) {
    double setup = 0, setup_cpu = 0;
    auto base = SetUp(/*traced=*/false, &setup, &setup_cpu);
    if (!base.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   base.status().ToString().c_str());
      return 1;
    }
    const ClosedResult c = ClosedLoop(*base.value(), closed_s, nullptr);
    untraced_eps = Median(c.slice_eps);
  }

  // The measured instance is the first set-up. The end-to-end run sets up
  // kSetups - 1 more after the correctness check, for setup_s; made
  // before it, their memory would stay in peak_rss_mb.
  std::vector<double> setup_s, setup_cpu_s;
  auto set_up = [&](bool traced) -> std::unique_ptr<Instance> {
    double seconds = 0, cpu_seconds = 0;
    auto made = SetUp(traced, &seconds, &cpu_seconds);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return nullptr;
    }
    setup_s.push_back(seconds);
    setup_cpu_s.push_back(cpu_seconds);
    return std::move(made).value();
  };
  std::unique_ptr<Instance> in = set_up(args_.trace);
  if (in == nullptr) return 1;
  Deployment& dep = *in->dep;
  AppProbe& probe = *in->probe;
  probe.timed.store(args_.trace);
  if (args_.inject_refused_publish) {
    // Self-test hook: a publish to an undeclared stream is refused.
    const Status s = dep.engines()[0]->Publish("undeclared", "k", "v", 1);
    s.ok() ? ++in->accepted : ++in->refused;
  }

  const CpuStat host_before = ReadCpuStat();
  const Totals before = Snapshot(dep);
  const ShardTotals shards_before = ShardSnapshot(dep);
  SampleSink publish_call_us;
  const ClosedResult closed = ClosedLoop(
      *in, closed_s, args_.trace ? &publish_call_us : nullptr);
  WaitCompleted(*in, 60.0);
  (void)dep.Drain();
  muppet::Histogram queue_wait;
  for (const auto& e : dep.engines()) {
    e->metrics()->GetHistogram("muppet_queue_wait_us")->Reset();
  }
  const OpenResult open = OpenLoop(*in, open_s, args_.trace);
  for (const auto& e : dep.engines()) {
    queue_wait.MergeFrom(*e->metrics()->GetHistogram("muppet_queue_wait_us"));
  }
  const double peak_rss_mb = PeakRssMb();
  const CpuStat host_after = ReadCpuStat();
  m.Add("host.steal_frac",
        Ratio(static_cast<double>(host_after.steal - host_before.steal),
              static_cast<double>(host_after.total - host_before.total)),
        "frac");
  const Totals after = Snapshot(dep);
  const Totals phase = after - before;
  const ShardTotals shards_after = ShardSnapshot(dep);

  const double eps = Median(closed.slice_eps);
  const int64_t missing = in->accepted - in->probe->completed.load();
  const int64_t failed = in->refused + std::max<int64_t>(missing, 0) +
                         open.bad_reads;
  const int64_t attempted = in->accepted + in->refused + open.reads;
  const double ops_per_event =
      Ratio(static_cast<double>(after.processed),
            static_cast<double>(after.published));

  // Share of the closed loop's CPU time the generator spent waiting for
  // window slots: benchmark overhead inside cpu_us_per_event.
  m.Add("workload.wait_cpu_frac", Ratio(closed.wait_cpu_s, closed.cpu_s),
        "frac");
  if (!args_.trace) {
    m.Add("throughput_eps", eps, "ev/s", closed.completed);
    AddSlicedPercentiles("latency", open.latency_slices, &m);
    // A slice holds too few reads for a p99; reads use the whole phase.
    AddPercentiles("read", open.read_us, &m);
    m.Add("cpu_us_per_event", Median(closed.slice_cpu_us_per_event), "us",
          closed.completed);
    m.Add("peak_rss_mb", peak_rss_mb, "MB");
    m.Add("failed_frac",
          Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "frac", attempted);
  } else {
    const double events = static_cast<double>(closed.completed + open.events);
    const double workers = dep.worker_threads();
    m.Add("trace_overhead_frac", 1.0 - Ratio(eps, untraced_eps), "frac");
    std::vector<double> late = open.late_us;
    m.Add("workload.gen_late_p99_us", Quantile(&late, 0.99), "us",
          static_cast<int64_t>(late.size()));
    AddPercentiles("engine.publish_call", publish_call_us.Collect(), &m);
    m.Add("engine.queue_wait_p50_us", HistogramQuantile(queue_wait, 0.5),
          "us", queue_wait.count());
    m.Add("engine.queue_wait_p99_us", HistogramQuantile(queue_wait, 0.99),
          "us", queue_wait.count());
    m.Add("engine.secondary_dispatch_frac",
          Ratio(static_cast<double>(phase.secondary),
                static_cast<double>(phase.processed)),
          "frac");
    m.Add("engine.slate_contentions", static_cast<double>(phase.contentions),
          "count");
    m.Add("engine.ops_per_event", ops_per_event, "ops/ev");
    m.Add("engine.drain_tail_ms", open.drain_tail_ms, "ms");
    AddPercentiles("core.map_exec", probe.map_self_us.Collect(), &m, false);
    AddPercentiles("core.update_exec", probe.update_self_us.Collect(), &m,
                   false);
    m.Add("core.update_busy_frac",
          Ratio(static_cast<double>(closed.update_busy_ns) / 1e9,
                workers * closed.seconds),
          "frac");
    m.Add("core.slate_cache_hit_ratio",
          Ratio(static_cast<double>(phase.hits),
                static_cast<double>(phase.hits + phase.misses)),
          "frac");
    m.Add("core.evictions_per_event",
          Ratio(static_cast<double>(phase.evictions), events), "1/ev");
    AddPercentiles("json.slate_decode", probe.decode_us.Collect(), &m, false);
    AddPercentiles("json.slate_encode", probe.encode_us.Collect(), &m, false);

    NetProbe& net = *in->net;
    AddPercentiles("net.send_call", net.send_call_us.Collect(), &m);
    m.Add("net.msgs_per_frame",
          Ratio(static_cast<double>(net.messages.load()),
                static_cast<double>(net.frames.load())),
          "msg/frame");
    m.Add("net.bytes_per_msg",
          Ratio(static_cast<double>(net.bytes.load()),
                static_cast<double>(net.messages.load())),
          "B/msg");
    AddPercentiles("net.recv_handler", net.recv_handler_us.Collect(), &m,
                   false);
    m.Add("net.io_busy_frac",
          Ratio(static_cast<double>(closed.net_handler_ns) / 1e9,
                closed.seconds * std::max(1, dep.transports())),
          "frac");
    AddPercentiles("net.hop", net.hop_us.Collect(), &m, false);
    m.Add("net.decline_frac",
          Ratio(static_cast<double>(net.declines.load()),
                static_cast<double>(net.deliveries.load())),
          "frac");
    m.Add("io.write_syscalls_per_kmsg",
          Ratio(static_cast<double>(closed.io.syscw) * 1000.0,
                static_cast<double>(closed.net_messages)),
          "1/kmsg");
    m.Add("slatelog.appends_per_event",
          Ratio(static_cast<double>(phase.appends), events), "1/ev");
    m.Add("slatelog.checkpoints", static_cast<double>(phase.checkpoints),
          "count");
    m.Add("io.wchar_bytes_per_event",
          Ratio(static_cast<double>(closed.io.wchar),
                static_cast<double>(closed.completed)),
          "B/ev");
    m.Add("kvstore.reads_per_event",
          Ratio(static_cast<double>(phase.store_reads), events), "1/ev");
    m.Add("kvstore.writes_per_event",
          Ratio(static_cast<double>(phase.store_writes), events), "1/ev");
    m.Add("kvstore.flushes",
          static_cast<double>(shards_after.flushes - shards_before.flushes),
          "count");
    m.Add("kvstore.compactions",
          static_cast<double>(shards_after.compactions -
                              shards_before.compactions),
          "count");
    m.Add("kvstore.sstables_end", static_cast<double>(shards_after.sstables),
          "count");
    AddPercentiles("service.fetch_call", open.fetch_call_us, &m, false);
    AddCriticalPath(dep, &m);
  }

  // Correctness: every final slate equals ReferenceExecutor's.
  muppet::Result<ReferenceResult> ref = CheckAgainstReference(
      inputs_, [&dep](const std::string& key) { return dep.Fetch(key); },
      args_.perturb_expected);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference check failed to run: %s\n",
                 ref.status().ToString().c_str());
    return 1;
  }
  if (args_.trace) {
    m.Add("baseline.reference_eps",
          Ratio(static_cast<double>(ref.value().events), ref.value().seconds),
          "ev/s", ref.value().events);
  }
  const bool correct = ref.value().mismatches == 0 && missing == 0 &&
                       phase.dropped == 0 && phase.lost == 0 &&
                       after.processed == 2 * after.published;
  const int worker_threads = dep.worker_threads();
  in.reset();
  if (!args_.trace) {
    for (int k = 1; k < kSetups; ++k) {
      if (set_up(/*traced=*/false) == nullptr) return 1;
    }
    // setup_s is the set-up's CPU time: its wall time follows the
    // hypervisor's steal on a shared host (README.md, "Set-up").
    m.Add("setup_s", Median(setup_cpu_s), "s",
          static_cast<int64_t>(setup_cpu_s.size()));
    m.Add("setup_wall_s", Median(setup_s), "s",
          static_cast<int64_t>(setup_s.size()));
  }

  Json result = Json::MakeObject();
  result["workload"] = spec_.name;
  result["seed"] = static_cast<int64_t>(args_.seed);
  result["seconds"] = args_.seconds;
  result["trace"] = args_.trace ? 1 : 0;
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = m.json();
  Json check = Json::MakeObject();
  check["keys_checked"] = ref.value().keys_checked;
  check["mismatches"] = ref.value().mismatches;
  check["missing_terminal_updates"] = missing;
  check["dropped"] = phase.dropped;
  check["ops_per_event"] = ops_per_event;
  result["check"] = std::move(check);
  Json shape = Json::MakeObject();
  shape["worker_threads"] = worker_threads;
  shape["window"] = kWindow;
  shape["open_loop_eps"] = spec_.open_loop_eps;
  shape["read_eps"] = kReadEps;
  shape["num_keys"] = static_cast<int64_t>(spec_.num_keys);
  shape["setups"] = static_cast<int64_t>(setup_s.size());
  Json wall = Json::MakeArray();
  Json cpu = Json::MakeArray();
  for (double v : setup_s) wall.Append(v);
  for (double v : setup_cpu_s) cpu.Append(v);
  shape["setup_wall_s_each"] = std::move(wall);
  shape["setup_cpu_s_each"] = std::move(cpu);
  result["shape"] = std::move(shape);
  Json host = Json::MakeObject();
  host["nproc"] = nproc_;
  host["compiler"] = PERFBENCH_COMPILER;
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  result["build"] = std::move(host);

  std::error_code ec;
  std::filesystem::remove_all(args_.workdir, ec);
  std::printf("RESULT %s\n", result.Dump().c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--perturb-expected") {
      args->perturb_expected = true;
    } else if (a == "--inject-refused-publish") {
      args->inject_refused_publish = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (a == "--workdir") {
      args->workdir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Sleeps in the open-loop generator and reader should end at their due
  // time, not up to the default 50 us slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  perfbench::Runner runner(*spec, args);
  return runner.Main();
}
