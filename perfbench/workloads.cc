#include "workloads.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

using muppet::Bytes;
using muppet::BytesView;
using muppet::MachineId;
using muppet::Muppet2Engine;
using muppet::Status;

namespace {

// Open-loop rates are half the closed-loop throughput measured on the
// reference host (README.md); they are constants of the workload.
const WorkloadSpec kWorkloads[] = {
    {"skew_local", Shape::kLocal, 100000, 1.0, 16, 65000.0, 200000},
    {"tcp_pair", Shape::kTcpPair, 100000, 0.0, 200, 36000.0, 200000},
    // Every slate stays cached: the store takes checkpoint write-backs.
    // Syncs are spaced so that the run measures the engine rather than
    // the disk's fsync latency. 50k slates are about 2 MB per kvstore
    // node, under the default 4 MiB memtable: scaled down with the data,
    // the memtable flushes and compactions run in the timed phases
    // (README.md, "durable_log").
    {"durable_log", Shape::kDurable, 50000, 0.0, 16, 40000.0, 100000, 4096,
     8192, 1u << 20},
    // Most updates miss the cache and read the store; evictions write
    // back. The engine's and the kvstore's defaults. Fails its
    // correctness check (README.md, "durable_rw").
    {"durable_rw", Shape::kDurable, 50000, 0.0, 16, 8000.0, 4096, 32, 512,
     4u << 20},
};

muppet::EngineOptions BaseOptions(const DeployOptions& options) {
  muppet::EngineOptions o;
  o.queue_capacity = 1 << 16;
  o.trace.sample_period = options.traced ? 1 : 1024;
  if (options.traced) o.trace.recent_traces = 16384;
  return o;
}

// An ephemeral loopback port, released for the transport to bind.
muppet::Result<int> ReservePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) return Status::Unavailable("cannot reserve a loopback port");
  return static_cast<int>(ntohs(addr.sin_port));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

muppet::Result<std::unique_ptr<Deployment>> Deployment::Start(
    const WorkloadSpec& spec, const DeployOptions& options, AppProbe* probe,
    NetProbe* net_probe) {
  std::unique_ptr<Deployment> d(new Deployment());
  MUPPET_RETURN_IF_ERROR(BuildApp(probe, &d->config_));
  switch (spec.shape) {
    case Shape::kLocal:
      MUPPET_RETURN_IF_ERROR(d->StartLocal(spec, options));
      break;
    case Shape::kTcpPair:
      MUPPET_RETURN_IF_ERROR(d->StartTcpPair(spec, options, net_probe));
      break;
    case Shape::kDurable:
      MUPPET_RETURN_IF_ERROR(d->StartDurable(spec, options));
      break;
  }
  MUPPET_RETURN_IF_ERROR(d->StartService());
  return d;
}

Status Deployment::StartLocal(const WorkloadSpec& spec,
                              const DeployOptions& options) {
  muppet::EngineOptions o = BaseOptions(options);
  // Three workers beside the generator on a 4-core host.
  worker_threads_ = std::clamp(options.nproc - 1, 1, 3);
  o.threads_per_machine = worker_threads_;
  o.slate_cache_capacity = spec.cache_slates;
  engines_.push_back(std::make_unique<Muppet2Engine>(config_, o));
  return engines_[0]->Start();
}

Status Deployment::StartTcpPair(const WorkloadSpec& spec,
                                const DeployOptions& options,
                                NetProbe* net_probe) {
  constexpr int kNodes = 2;
  int ports[kNodes];
  for (int& port : ports) {
    muppet::Result<int> p = ReservePort();
    if (!p.ok()) return p.status();
    port = p.value();
  }
  for (int n = 0; n < kNodes; ++n) {
    muppet::TcpTransportOptions t;
    t.node_id = static_cast<uint32_t>(n);
    t.listen_port = ports[n];
    muppet::TcpPeerConfig peer;
    peer.node_id = static_cast<uint32_t>(1 - n);
    peer.port = ports[1 - n];
    peer.machines = {static_cast<MachineId>(1 - n)};
    t.peers.push_back(peer);
    tcp_.push_back(std::make_unique<muppet::TcpTransport>(std::move(t)));
    if (options.traced) {
      decorators_.push_back(
          std::make_unique<TracingTransport>(tcp_.back().get(), net_probe));
    }
  }
  worker_threads_ = kNodes;
  for (int n = 0; n < kNodes; ++n) {
    muppet::EngineOptions o = BaseOptions(options);
    o.num_machines = kNodes;
    o.hosted_machines = {static_cast<MachineId>(n)};
    o.threads_per_machine = 1;
    o.slate_cache_capacity = spec.cache_slates;
    o.transport_backend = options.traced
                              ? static_cast<muppet::Transport*>(
                                    decorators_[static_cast<size_t>(n)].get())
                              : tcp_[static_cast<size_t>(n)].get();
    // A slate owned by the other engine is read from it in-process (a
    // muppetd deployment proxies the same call over HTTP).
    o.remote_fetch = [this](MachineId owner, const std::string& updater,
                            BytesView key) -> muppet::Result<Bytes> {
      if (owner < 0 || static_cast<size_t>(owner) >= engines_.size()) {
        return Status::Unavailable("no engine hosts the owner");
      }
      return engines_[static_cast<size_t>(owner)]->FetchSlate(updater, key);
    };
    engines_.push_back(std::make_unique<Muppet2Engine>(config_, o));
  }
  // Engines register their handlers first; transports then dial.
  for (auto& e : engines_) MUPPET_RETURN_IF_ERROR(e->Start());
  for (size_t n = 0; n < tcp_.size(); ++n) {
    muppet::Transport* t = options.traced
                               ? static_cast<muppet::Transport*>(
                                     decorators_[n].get())
                               : tcp_[n].get();
    MUPPET_RETURN_IF_ERROR(t->Start());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!(tcp_[0]->PeerUp(1) && tcp_[1]->PeerUp(0))) {
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Unavailable("tcp_pair handshake timed out");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::OK();
}

Status Deployment::StartDurable(const WorkloadSpec& spec,
                                const DeployOptions& options) {
  muppet::kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 3;
  kv_options.replication_factor = 2;
  kv_options.node.data_dir = options.workdir + "/kv";
  kv_options.node.memtable_flush_bytes = spec.memtable_flush_bytes;
  kv_ = std::make_unique<muppet::kv::KvCluster>(kv_options);
  MUPPET_RETURN_IF_ERROR(kv_->Open());
  store_ = std::make_unique<muppet::SlateStore>(kv_.get(),
                                                muppet::SlateStoreOptions{});

  muppet::EngineOptions o = BaseOptions(options);
  // Two workers beside the generator and the reader on a 4-core host.
  worker_threads_ = std::clamp(options.nproc - 2, 1, 2);
  o.threads_per_machine = worker_threads_;
  o.slate_cache_capacity = spec.cache_slates;
  o.slate_store = store_.get();
  o.durability.consistency = muppet::Consistency::kAtLeastOnce;
  o.durability.dir = options.workdir + "/changelog";
  o.durability.sync_every_records = spec.sync_every_records;
  o.durability.checkpoint_every_records = spec.checkpoint_every_records;
  engines_.push_back(std::make_unique<Muppet2Engine>(config_, o));
  return engines_[0]->Start();
}

Status Deployment::StartService() {
  service_ = std::make_unique<muppet::SlateService>(engines_[0].get());
  service_->AttachTo(&http_);
  return http_.Start(0);
}

Status Deployment::Publish(uint64_t index, BytesView key, BytesView value,
                           muppet::Timestamp ts) {
  Muppet2Engine& e = *engines_[index % engines_.size()];
  return e.Publish(kInputStream, key, value, ts);
}

Status Deployment::Drain() {
  // Cross-engine traffic can re-fill a drained engine, so sweep until
  // every engine reports nothing in flight.
  for (int pass = 0; pass < 100; ++pass) {
    for (auto& t : tcp_) {
      MUPPET_RETURN_IF_ERROR(t->FlushOutbound(5 * 1000 * 1000));
    }
    for (auto& e : engines_) MUPPET_RETURN_IF_ERROR(e->Drain());
    bool idle = true;
    for (auto& e : engines_) idle = idle && e->InflightEvents() == 0;
    if (idle) return Status::OK();
  }
  return Status::TimedOut("engines did not go idle");
}

muppet::Result<Bytes> Deployment::Fetch(const std::string& key) {
  return engines_[0]->FetchSlate(kUpdater, key);
}

void Deployment::Stop() {
  if (stopped_) return;
  stopped_ = true;
  (void)http_.Stop();
  for (auto& t : tcp_) (void)t->FlushOutbound(5 * 1000 * 1000);
  for (auto& e : engines_) (void)e->Stop();
  for (auto& t : tcp_) t->Stop();
}

Deployment::~Deployment() { Stop(); }

}  // namespace perfbench
