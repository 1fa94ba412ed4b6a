// The three benchmark workloads and the deployments they drive. A
// Deployment owns everything one workload instance starts — engines,
// transports, the kvstore, the slate HTTP service — and stops it all in
// its destructor.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app.h"
#include "common/status.h"
#include "core/slate_store.h"
#include "engine/muppet2.h"
#include "kvstore/cluster.h"
#include "net/tcp_transport.h"
#include "probes.h"
#include "service/http_server.h"
#include "service/slate_service.h"

namespace perfbench {

enum class Shape {
  kLocal,    // one engine, one machine, no store, no network
  kTcpPair,  // two engines joined by two TcpTransports on loopback
  kDurable,  // one machine, at-least-once changelog, SlateStore on KvCluster
};

struct WorkloadSpec {
  const char* name;
  Shape shape;
  uint64_t num_keys;
  double zipf_skew;
  size_t value_bytes;
  // Open loop: fixed publish rate, about half the closed-loop throughput
  // on the reference host. Never adapted at run time.
  double open_loop_eps;
  // Slate cache capacity per machine.
  size_t cache_slates;
  // kDurable only: the changelog's fsync and checkpoint cadences, in
  // appended records, and each kvstore node's memtable flush threshold.
  uint32_t sync_every_records = 0;
  uint64_t checkpoint_every_records = 0;
  size_t memtable_flush_bytes = 0;
};

// Closed loop: events outstanding (published, terminal update pending).
inline constexpr int64_t kWindow = 2048;
// A generator that finds the window full waits until this many slots are
// free (or kWaitMicros pass) before it publishes again.
inline constexpr int64_t kRefill = kWindow / 8;
inline constexpr int64_t kWaitMicros = 5000;
// Slate GETs per second issued by the reader during the open loop.
inline constexpr double kReadEps = 500.0;

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct DeployOptions {
  // Trace every event (sample_period=1) and wrap transports in the
  // timing decorator. The end-to-end run keeps the production default.
  bool traced = false;
  // Directory for the changelog and kvstore (kDurable only). Must exist
  // and be empty.
  std::string workdir;
  // Cores available to the process; sizes the worker pools.
  int nproc = 4;
};

class Deployment {
 public:
  // Builds and starts the workload's deployment; returns once every
  // transport handshake is done and the slate service listens.
  static muppet::Result<std::unique_ptr<Deployment>> Start(
      const WorkloadSpec& spec, const DeployOptions& options,
      AppProbe* probe, NetProbe* net_probe);

  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Publish input event `index` (tcp_pair alternates between engines).
  muppet::Status Publish(uint64_t index, muppet::BytesView key,
                         muppet::BytesView value, muppet::Timestamp ts);
  // Flush outbound frames and drain every engine.
  muppet::Status Drain();
  // Final slate of `key`, read through FetchSlate on the owning engine.
  muppet::Result<muppet::Bytes> Fetch(const std::string& key);

  int http_port() const { return http_.port(); }
  int worker_threads() const { return worker_threads_; }
  // Threads that run flat out under load: workers plus transport IO.
  int busy_threads() const { return worker_threads_ + transports(); }
  const std::vector<std::unique_ptr<muppet::Muppet2Engine>>& engines() const {
    return engines_;
  }
  muppet::kv::KvCluster* kv() { return kv_.get(); }
  // Transports carrying cross-engine traffic.
  int transports() const { return static_cast<int>(tcp_.size()); }

 private:
  Deployment() = default;
  muppet::Status StartLocal(const WorkloadSpec& spec,
                            const DeployOptions& options);
  muppet::Status StartTcpPair(const WorkloadSpec& spec,
                              const DeployOptions& options,
                              NetProbe* net_probe);
  muppet::Status StartDurable(const WorkloadSpec& spec,
                              const DeployOptions& options);
  muppet::Status StartService();
  void Stop();

  // Declaration order is teardown order reversed: the service and engines
  // go before the transports and store they use.
  muppet::AppConfig config_;
  std::unique_ptr<muppet::kv::KvCluster> kv_;
  std::unique_ptr<muppet::SlateStore> store_;
  std::vector<std::unique_ptr<muppet::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TracingTransport>> decorators_;
  std::vector<std::unique_ptr<muppet::Muppet2Engine>> engines_;
  std::unique_ptr<muppet::SlateService> service_;
  muppet::HttpServer http_;
  int worker_threads_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
