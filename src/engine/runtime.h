// The machine runtime both engine generations share. Paper §4.5 names what
// Muppet 2.0 changes relative to 1.0: a per-machine thread pool instead of a
// process per function, one central slate cache instead of per-worker
// caches, and two-choice dispatch (plus, here, 2.0's key splitting). Every
// other part of a running engine is the same mechanism in both, and lives
// here once:
//
//  * the common state: config, options, clock, transport (owned, or
//    borrowed from a multi-process deployment), master, ring, throttle, the
//    engine counters, taps, the drain condvar, the SLO tracker, the
//    incident log and the stall watchdog;
//  * one MachineBase per hosted machine: its worker slots (one queue plus
//    the thread draining it), its slate caches, its failed-machine view,
//    the flusher thread, the trace ring, and the durability plane
//    (changelog, dedup table, checkpoint cursor);
//  * the §4.3 send policy every engine send path runs (SendWithPolicy):
//    failure detection on send, and drop / overflow stream / throttle on
//    a declined push, with §5's self-emit deadlock guard;
//  * changelog appends, checkpoints and replay, the in-flight count and
//    Drain(), stats, statuses, watchdog signals, callback metrics, and the
//    Stop / CrashMachine / RestartMachine lifecycle.
//
// An engine supplies its topology by filling each machine's `slots` and
// `caches` at Start(), and reaches back through a few hooks: the loop one
// worker slot runs, the cache a replayed changelog record belongs to, and
// its own metric families. Per-event calls (AppendSlateLog, DecInflight,
// RunTaps, FailedSetFor, SendWithPolicy) are non-virtual.
#ifndef MUPPET_ENGINE_RUNTIME_H_
#define MUPPET_ENGINE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"
#include "core/hash_ring.h"
#include "core/slate_cache.h"
#include "engine/engine.h"
#include "engine/master.h"
#include "engine/queue.h"

namespace muppet {

class EngineRuntime : public Engine {
 public:
  ~EngineRuntime() override;

  // Threads and callbacks hold `this`.
  EngineRuntime(const EngineRuntime&) = delete;
  EngineRuntime& operator=(const EngineRuntime&) = delete;

  Status Drain() override;
  Status Stop() override;
  Status CrashMachine(MachineId machine) override;
  Status RestartMachine(MachineId machine) override;
  EngineStats Stats() const override;
  const AppConfig& config() const override { return config_; }

  // Observability plane (engine.h).
  MetricsRegistry* metrics() override { return &metrics_; }
  TraceSink* trace_sink(MachineId machine) override {
    return SinkFor(machine);
  }
  std::vector<MachineStatus> MachineStatuses() const override;
  int64_t InflightEvents() const override {
    return inflight_.load(std::memory_order_acquire);
  }
  SloTracker* slo() override { return slo_.get(); }
  void HarvestSlo() override;
  const IncidentLog* incidents() const override { return &incident_log_; }
  Timestamp UptimeMicros() const override;

  // Observe events published to `stream` (tests/examples; invoked inline
  // on the publishing thread). Register before Start().
  void TapStream(const std::string& stream,
                 std::function<void(const Event&)> tap);

  // Introspection for tests, benches and the slate service.
  Transport& transport() { return *transport_; }
  Master& master() { return master_; }
  ThrottleGovernor& throttle() { return throttle_; }
  int64_t events_lost() const { return lost_failure_->Get(); }
  // The failed-machine set as known on machine `m` (chaos harness asserts
  // every live machine's view converges to the master's after a drain).
  std::set<MachineId> KnownFailedOn(MachineId m) const {
    return FailedSetFor(m);
  }

  // Lock-hierarchy levels for the runtime's own locks (pinned by
  // tests/common/sync_test.cc against DESIGN.md).
  static constexpr LockLevel kTapsLockLevel = LockLevel::kTaps;
  static constexpr LockLevel kFailedSetLockLevel = LockLevel::kFailedSet;
  static constexpr LockLevel kDrainLockLevel = LockLevel::kDrain;

 protected:
  // One input queue and the thread that drains it: a 1.0 worker (conductor
  // plus task processor) or a 2.0 pool thread.
  struct WorkerSlot {
    EventQueue* queue = nullptr;
    // Labels of the slot's muppet_queue_depth series, after "machine".
    MetricLabels labels;
    std::thread thread;
  };

  // A slate cache on the machine. `updater` names the only updater whose
  // slates it holds (a 1.0 worker's partition); null for a cache shared by
  // every updater (the 2.0 central cache).
  struct CacheSlot {
    SlateCache* cache = nullptr;
    const OperatorSpec* updater = nullptr;
  };

  struct MachineBase {
    MachineBase() = default;
    virtual ~MachineBase() = default;
    // Worker, flusher and metric callbacks hold the machine's address.
    MachineBase(const MachineBase&) = delete;
    MachineBase& operator=(const MachineBase&) = delete;

    MachineId id = kInvalidMachine;
    // Filled by the engine at Start(); slot i runs WorkerLoop(this, i).
    std::vector<WorkerSlot> slots;
    std::vector<CacheSlot> caches;
    mutable Mutex failed_mutex{kFailedSetLockLevel};
    std::set<MachineId> failed MUPPET_GUARDED_BY(failed_mutex);
    // Lock-free emptiness check so the hot path skips the failed-set copy.
    std::atomic<size_t> failed_count{0};
    std::atomic<bool> crashed{false};
    // muppet-lint: allow(guarded): set by StartThreads, joined at stop
    std::thread flusher;
    // Per-machine trace ring (null when tracing is disabled).
    // muppet-lint: allow(guarded): set by InitMachine before threads start
    std::unique_ptr<TraceSink> trace_sink;
    // Durability plane (engine/slatelog.h); both null in kLossy mode,
    // dedup additionally null below kExactlyOnce. Records carry
    // (updater, key), so one changelog per machine serves any number of
    // caches.
    // muppet-lint: allow(guarded): set by InitMachine before threads start
    std::unique_ptr<SlateChangelog> changelog;
    // muppet-lint: allow(guarded): set by InitMachine before threads start
    std::unique_ptr<DedupTable> dedup;
    // Checkpoint cursor as of the last checkpoint or replay.
    std::atomic<uint64_t> manifest_lsn{0};
    // Changelog appends since the last checkpoint (cadence trigger, read
    // by the flusher thread).
    std::atomic<uint64_t> appends_since_checkpoint{0};
    // Recovery replays completed on this machine (cold-start included).
    std::atomic<int64_t> replays{0};
  };

  // `engine_name` labels muppet_build_info and the watchdog artifacts.
  EngineRuntime(const AppConfig& config, EngineOptions options,
                const char* engine_name);

  // --- Engine hooks.
  // Body of worker slot `slot` on `machine` (returns when its queue stops).
  virtual void WorkerLoop(MachineBase* machine, size_t slot) = 0;
  // The cache a replayed (updater, key) record restores into; null skips
  // the record.
  virtual SlateCache* ReplayCacheFor(MachineBase* machine,
                                     const SlateLogRecord& rec) = 0;
  // Engine-only metric families, registered after the shared ones.
  virtual void RegisterEngineMetrics() {}
  // Join engine-only control threads once shutdown_ is set.
  virtual void StopControlLoops() {}

  // --- Start() building blocks, in call order.
  // Checks shared by both engines; `workers` is the per-machine (2.0) or
  // per-function (1.0) worker count.
  Status CheckStartable(int workers) const;
  // Trace ring and durability plane of a freshly built machine.
  Status InitMachine(MachineBase* machine);
  // Once every hosted machine is in machines_ with its slots and caches
  // filled and the transport handlers are registered: metrics, failure
  // broadcast, cold-start replay, SLO tracker, then the worker, flusher
  // and watchdog threads.
  Status Launch();

  // Validate an external publish and build its event (sequence, origin
  // time, counters, source pacing, root trace span); the engine then
  // delivers it from publish_machine_.
  Status MakeExternalEvent(const std::string& stream, BytesView key,
                           BytesView value, Timestamp ts, Event* event);

  bool durable() const {
    return options_.durability.consistency != Consistency::kLossy;
  }
  bool exactly_once() const {
    return options_.durability.consistency == Consistency::kExactlyOnce;
  }

  MachineBase* Machine(MachineId m) const {
    return m >= 0 && m < static_cast<MachineId>(machines_.size())
               ? machines_[static_cast<size_t>(m)].get()
               : nullptr;
  }
  // True when machine `m` runs in THIS process. With the default
  // single-process deployment every id is hosted; under muppetd only the
  // slots named in options_.hosted_machines are.
  bool Hosted(MachineId m) const { return Machine(m) != nullptr; }
  TraceSink* SinkFor(MachineId m) const {
    const MachineBase* machine = Machine(m);
    return machine != nullptr ? machine->trace_sink.get() : nullptr;
  }

  std::set<MachineId> FailedSetFor(MachineId machine) const;
  // The master's failed set plus every machine this process knows crashed
  // (FetchSlate routes around both before a send has detected a crash).
  std::set<MachineId> UnreachableMachines() const;
  void RunTaps(const Event& event) {
    if (has_taps_.load(std::memory_order_acquire)) CallTaps(event);
  }
  uint64_t NextSeq() { return seq_.fetch_add(1, std::memory_order_relaxed); }
  // Decrement in-flight count, waking Drain() when it reaches zero.
  void DecInflight(int64_t n);

  // --- The §4.3 send policy, shared by every engine send path.
  // Send one event with `send` (one attempt, returning its Status) and
  // handle a decline. A failed attempt runs the policy below; the success
  // path is the attempt plus, when `charge`, the in-flight increment.
  //  * `charge`: count the event in inflight_ across each attempt. A
  //    target hosted by another process charges it on receipt instead.
  //  * `own_queue`: the target is a queue the sending worker itself
  //    drains, where waiting can never help (the §5 self-emit deadlock).
  //  * `stream`: the event's stream (a full overflow stream drops).
  //  * `redirect`: redeliver the event on the overflow stream.
  template <typename Send, typename Redirect>
  void SendWithPolicy(MachineId to, bool charge, bool own_queue,
                      const std::string& stream, Send&& send,
                      Redirect&& redirect) {
    int attempts = 0;
    while (true) {
      if (charge) inflight_.fetch_add(1, std::memory_order_acq_rel);
      const Status s = send();
      if (s.ok()) return;
      if (charge) DecInflight(1);
      switch (OnDeclined(s, to, own_queue, stream, &attempts)) {
        case Declined::kRetry:
          continue;
        case Declined::kRedirect:
          redirect();
          return;
        case Declined::kSettled:
          return;
      }
    }
  }

  // Settle `n` events of a send to `to` that failed with anything but a
  // declined push: Unavailable is how a crash is detected (§4.3), so `to`
  // is reported to the master, which broadcasts; the events themselves
  // are lost, not re-dispatched. Returns false, settling nothing, for
  // ResourceExhausted (a full queue), which the overflow policy handles.
  bool SettleFailedSend(const Status& s, MachineId to, int64_t n);

  // Cache, then store (§4.2); NotFound if the slate is absent everywhere.
  // `source`, when non-null, reports the slate-fetch span note: "hit",
  // "absent_cached", "store", "store_absent".
  Status FetchFromCache(SlateCache* cache, const std::string& updater,
                        BytesView key, Bytes* slate,
                        const char** source = nullptr);
  // Write-back for every slate cache: persists to options_.slate_store
  // with the owning updater's TTL.
  SlateCache::WriteBack MakeWriteBack();

  // --- Durability plane (engine/slatelog.h; DESIGN.md §12).
  // Append one changelog record for a slate write/delete/mark on
  // `machine`. No-op in kLossy mode; append failures are logged, never
  // fail the update (durability degrades, the data path does not stop).
  void AppendSlateLog(MachineBase* machine, SlateLogKind kind,
                      const std::string& updater, BytesView slate_key,
                      BytesView value, const Event& event, uint64_t work,
                      uint64_t dedup);

  const AppConfig& config_;
  EngineOptions options_;
  const char* const engine_name_;
  Clock* clock_;
  // Owned only in the single-process default; with an external
  // transport_backend the unique_ptr stays null and transport_ aliases
  // the caller's backend.
  std::unique_ptr<Transport> owned_transport_;
  Transport* transport_ = nullptr;
  Master master_;
  HashRing ring_;
  ThrottleGovernor throttle_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_{false};

  // Sized num_machines; slots for machines hosted by other processes stay
  // null (see Hosted()).
  std::vector<std::unique_ptr<MachineBase>> machines_;
  // Where external Publish() (and 2.0's engine-manufactured control
  // events) enter the cluster: the lowest hosted machine id (the paper's
  // M0 role; 0 in single-process runs).
  MachineId publish_machine_ = 0;

  std::atomic<uint64_t> seq_{1};
  std::atomic<int64_t> inflight_{0};

  // Shared registry backing /metrics; the counters below are registry
  // children so the admin endpoints and EngineStats read the same cells.
  // Declared before the pointers (initialization order).
  MetricsRegistry metrics_;
  Counter* published_;
  Counter* processed_;
  Counter* emitted_;
  Counter* lost_failure_;
  Counter* dropped_overflow_;
  Counter* redirected_overflow_;
  Counter* deadlocks_avoided_;
  Counter* store_reads_;
  Counter* store_writes_;
  Counter* operator_instances_;
  Counter* slatelog_appends_;
  Counter* slatelog_replays_;
  Counter* slatelog_replayed_;
  Counter* slatelog_torn_tails_;
  Counter* slatelog_corrupt_segments_;
  Counter* checkpoints_;
  Counter* deduped_;
  Histogram* latency_;
  // Per-input-stream published counters.
  // muppet-lint: allow(guarded): built by Launch() inside Start()
  std::map<std::string, Counter*> stream_published_;

 private:
  // What SendWithPolicy does after a failed attempt.
  enum class Declined { kSettled, kRetry, kRedirect };
  // The decline policy: a failed send settles through SettleFailedSend; a
  // declined push drops, redirects, or throttles (bounded retries, except
  // into the sender's own queue) per options_.overflow.
  Declined OnDeclined(const Status& s, MachineId to, bool own_queue,
                      const std::string& stream, int* attempts);

  void FlusherLoop(MachineBase* machine);
  void StartThreads(MachineBase* machine);
  // Flusher-thread checkpoint pass: sync the changelog tail; when the
  // cadence fires (and a slate store is configured) flush dirty slates,
  // persist + mirror the manifest, rotate the segment and drop covered
  // history.
  void MaybeCheckpoint(MachineBase* machine);
  // Recovery replay: restore the machine's slates from the changelog
  // suffix past the manifest cursor and re-seed the dedup table with the
  // most recent event identities (the epoch cut). Must complete before
  // the machine becomes routable again (Master::BeginRecovery doc).
  Status ReplayChangelog(MachineBase* machine);
  void CallTaps(const Event& event);

  // Stall-watchdog control loop (one engine-wide thread) and its signal
  // collection pass — all lock-free reads (queue sizes/pops, inflight,
  // changelog cursors), so the watchdog never blocks the data path.
  void WatchdogLoop();
  WatchdogSignals GatherWatchdogSignals() const;
  // Register the callback-backed gauges/counters (queue depths, cache
  // occupancy, transport and fault counters) once the cluster is built.
  void RegisterCallbackMetrics();

  Mutex drain_mutex_{kDrainLockLevel};
  CondVar drain_cv_;

  std::atomic<bool> has_taps_{false};
  mutable SharedMutex taps_mutex_{kTapsLockLevel};
  std::map<std::string, std::vector<std::function<void(const Event&)>>> taps_
      MUPPET_GUARDED_BY(taps_mutex_);

  // --- Health & SLO plane (DESIGN.md §14). The tracker, watchdog and its
  // thread are created by Launch() inside Start().
  // muppet-lint: allow(guarded): created by Launch() inside Start()
  std::unique_ptr<SloTracker> slo_;
  IncidentLog incident_log_;
  // muppet-lint: allow(guarded): created by Launch() inside Start()
  std::unique_ptr<Watchdog> watchdog_;
  // muppet-lint: allow(guarded): spawned by Launch(), joined by Stop()
  std::thread wd_thread_;
  // Live Drain() waiters — the watchdog's drain-stall signal.
  std::atomic<int> drain_waiters_{0};
  // Engine clock reading at Start(); 0 before Start().
  std::atomic<Timestamp> started_at_{0};
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_RUNTIME_H_
