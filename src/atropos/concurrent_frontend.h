// Concurrent ingestion front-end for the Atropos instrumentation stream.
//
// AtroposRuntime is deliberately single-threaded: its registries, window
// accounting, and control loop are plain maps with no synchronization, which
// keeps the decision logic simple and deterministic. Real applications,
// however, call getResource/freeResource/slowByResource (§3.2) from many
// threads at once, and the paper's overhead argument only holds if those
// calls stay cheap under contention-free parallel traffic.
//
// ConcurrentFrontend bridges the two worlds:
//
//   app thread 1 ──► EventRing (SPSC) ─┐
//   app thread 2 ──► EventRing (SPSC) ─┼─► Tick(): merge in place by time,
//   app thread N ──► EventRing (SPSC) ─┘   replay into AtroposRuntime,
//                                          then run the control loop
//
// Each producer thread owns one fixed-capacity single-producer/single-
// consumer ring of TraceEvents — the same POD encoding every controller
// consumes through OverloadController::Apply, so the frontend neither
// re-encodes on the way in nor decodes on the way out: its Apply override
// pushes the event, and the drain hands it to the runtime's Apply unchanged.
// The hot path is one clock read plus one ring slot write — no locks, no
// allocation, no shared cache lines between producers. When a ring is full
// the event is dropped and counted (lossy-with-counter): under the overload
// conditions Atropos exists for, losing a trace event is strictly better than
// blocking an application thread.
//
// Timestamps are taken at enqueue, not at drain. The drainer replays each
// event through a ReplayClock that presents the enqueue-time clock reading
// to the runtime, so wait/hold attribution and the §3.2 sampled/per-event
// timestamp semantics are exactly those of an application that had called
// the runtime directly at the moment the event happened. Tick() snapshots
// every ring and replays the events where they lie, in one k-way merge by
// (stamp, producer registration order, FIFO); no event is copied or sorted,
// and a ring's snapshot slots stay held until the merge has read them all.
// The merge order is a stable timestamp sort — precondition: the frontend's
// clock is monotone, so each ring is already in stamp order — which makes
// the pipeline deterministic: the same events produce byte-for-byte the same
// decision stream as single-threaded feeding (proved by
// concurrent_frontend_test).
//
// Threading contract:
//   - Instrumentation hooks (On* / Apply): any thread; each calling thread is
//     bound to its own ring on first use (or via an explicit
//     RegisterProducer() handle and Producer::Push).
//   - Tick(): exactly one drainer thread (typically the control-loop timer).
//   - Setup (RegisterResource, SetCancelAction, BindMetrics, recorder
//     attachment): single-threaded, before producers start.
//
// Producer lifecycle: a thread that was auto-bound by the hooks may exit at
// any time (live-mode worker pools shrink mid-run). Its thread-local binding
// marks the producer retired on thread exit; the next Tick() drains whatever
// the ring still holds — every event pushed before the exit happens-before
// the retirement store, so none are lost — folds the ring's drop counter into
// the frontend totals, and frees the ring. Explicitly RegisterProducer()ed
// handles are never auto-retired; they stay valid for the frontend's
// lifetime.

#ifndef SRC_ATROPOS_CONCURRENT_FRONTEND_H_
#define SRC_ATROPOS_CONCURRENT_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/atropos/config.h"
#include "src/atropos/controller.h"
#include "src/atropos/runtime.h"
#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"

namespace atropos {

// Fixed-capacity single-producer/single-consumer ring. Push is producer-
// thread-only, the rest consumer-thread-only; the two sides synchronize
// through the head/tail indices (release on publish, acquire on read). A full
// ring drops the event and counts it — producers never block.
class EventRing {
 public:
  explicit EventRing(size_t capacity);

  // Producer side: stores `ev` stamped with `time`. Returns false (and
  // counts the drop) when full.
  bool Push(const TraceEvent& ev, TimeMicros time);

  // Consumer side, in place: Snapshot() is a cursor over the published range
  // [next, end), At(i) reads index i in its slot, Release(head) frees the
  // slots before `head`.
  struct Cursor {
    EventRing* ring;
    uint64_t next;
    uint64_t end;
  };
  // atropos-lint: alloc-free
  Cursor Snapshot() {
    return {this, head_.load(std::memory_order_relaxed), tail_.load(std::memory_order_acquire)};
  }
  // atropos-lint: alloc-free
  const TraceEvent& At(uint64_t i) const { return slots_[i & mask_]; }
  // atropos-lint: alloc-free
  void Release(uint64_t head) { head_.store(head, std::memory_order_release); }

  // Racy-but-monotone observation, safe from any thread.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> slots_;
  size_t mask_;
  // Producer and consumer indices on separate cache lines so the two sides
  // don't false-share.
  alignas(64) std::atomic<uint64_t> tail_{0};  // next write (producer-owned)
  alignas(64) std::atomic<uint64_t> head_{0};  // next read (consumer-owned)
  alignas(64) std::atomic<uint64_t> dropped_{0};
};

// Clock wrapper the frontend hands to its runtime: during drain it presents
// the event's enqueue-time reading, otherwise it delegates to the real clock.
// Only the drainer thread touches the replay state.
class ReplayClock final : public Clock {
 public:
  explicit ReplayClock(Clock* real) : real_(real) {}

  TimeMicros NowMicros() const override {
    return replaying_ ? replay_time_ : real_->NowMicros();
  }

  void BeginReplay(TimeMicros t) {
    replaying_ = true;
    replay_time_ = t;
  }
  void EndReplay() { replaying_ = false; }

 private:
  Clock* real_;
  bool replaying_ = false;
  TimeMicros replay_time_ = 0;
};

class ConcurrentFrontend final : public OverloadController {
 public:
  struct Options {
    // Per-producer ring capacity, rounded up to a power of two. Sized for
    // one control window of events from one thread; overflow is counted.
    // A Tick holds the slots it drains until its in-place replay has read
    // them all.
    size_t ring_capacity = 1 << 14;
  };

  ConcurrentFrontend(Clock* clock, AtroposConfig config, Options options);
  ConcurrentFrontend(Clock* clock, AtroposConfig config);
  ~ConcurrentFrontend() override;

  std::string_view name() const override { return "atropos_concurrent"; }

  // Explicit per-thread producer handle. One handle == one SPSC ring == one
  // producing thread (the SPSC discipline is the caller's responsibility when
  // handles are held explicitly; Apply() binds the calling thread
  // automatically instead). Handles stay valid for the frontend's lifetime.
  // Thread-safe.
  class Producer {
   public:
    // Stamps `ev.time` with the current clock reading and enqueues it.
    // Returns true when the event reached the ring and false when a full ring
    // dropped (and counted) it — callers that need loss-free delivery
    // (benchmarks, batch loaders) can retry on false as backpressure; Apply()
    // ignores the result (lossy-with-counter).
    bool Push(const TraceEvent& ev);

    uint64_t dropped() const { return ring_.dropped(); }

   private:
    friend class ConcurrentFrontend;
    Producer(Clock* clock, size_t ring_capacity) : clock_(clock), ring_(ring_capacity) {}

    Clock* clock_;
    EventRing ring_;
    // Set (release) by the owning thread's TLS destructor at thread exit,
    // after its last Push; observed (acquire) by Tick(), which then drains
    // the ring to empty and frees the producer.
    std::atomic<bool> retired_{false};
  };

  Producer* RegisterProducer() ATROPOS_EXCLUDES(registry_mu_);

  // ---- OverloadController: producer side ----------------------------------
  // Every On* hook lands here: the event is stamped with the current time
  // and enqueued on the calling thread's ring, auto-registering the thread
  // on first use.
  void Apply(const TraceEvent& ev) override;

  // ---- Setup (single-threaded, before producers start) --------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls) override {
    return runtime_.RegisterResource(std::move(name), cls);
  }
  // Publishes intake gauges (intake.ring_depth, intake.drained_per_tick,
  // intake.dropped_events, intake.producers) at every Tick. Null detaches.
  void BindMetrics(MetricsRegistry* metrics);

  // ---- Drainer thread -----------------------------------------------------
  // Snapshots every ring, replays the snapshots into the runtime in one
  // in-place timestamp merge at their enqueue-time clock readings, releases
  // the slots, then runs the runtime's control loop for the closing window.
  void Tick() override ATROPOS_EXCLUDES(registry_mu_);

  bool ReexecutionRecommended() const override {  // drainer thread only
    return runtime_.ReexecutionRecommended();
  }

  // Direct access to the wrapped runtime for setup (SetCancelAction,
  // SetRecorder) and introspection; drainer thread only once producers run.
  AtroposRuntime& runtime() { return runtime_; }
  const AtroposRuntime& runtime() const { return runtime_; }

  struct IntakeStats {
    uint64_t drained_total = 0;      // events applied to the runtime, ever
    uint64_t drained_last_tick = 0;  // events applied by the last Tick()
    uint64_t dropped_total = 0;      // ring-overflow drops, incl. freed rings
    uint64_t max_ring_depth = 0;     // deepest ring observed at last drain
    uint64_t producers = 0;          // currently live producer rings
    uint64_t producers_seen = 0;     // producers ever registered
    uint64_t producers_retired = 0;  // producers drained and freed after exit
  };
  // Drainer thread only (values are refreshed by Tick()).
  const IntakeStats& intake_stats() const { return intake_; }

  // Rings still registered (not yet retired-and-drained). Thread-safe.
  size_t live_producer_count() ATROPOS_EXCLUDES(registry_mu_);

 private:
  friend struct CapturedTlsBindings;

  Producer* ThisThreadProducer() ATROPOS_EXCLUDES(registry_mu_);
  // Replays cursors_ in merge order, releasing each ring as it empties;
  // returns the number of events applied.
  uint64_t ReplayMerged();
  // Called from an exiting thread's TLS destructor (under the process-wide
  // frontend registry lock, so `p` cannot be concurrently destroyed). Lock-
  // free on the frontend itself: a single release store.
  void RetireProducer(Producer* p) { p->retired_.store(true, std::memory_order_release); }

  const uint64_t instance_id_;  // never reused; keys the thread-local cache
  Clock* clock_;
  ReplayClock replay_clock_;
  AtroposRuntime runtime_;
  Options options_;

  // Guards producers_. Taken only at thread registration and once per Tick.
  std::mutex registry_mu_;
  std::vector<std::unique_ptr<Producer>> producers_ ATROPOS_GUARDED_BY(registry_mu_);
  uint64_t producers_seen_ ATROPOS_GUARDED_BY(registry_mu_) = 0;
  uint64_t producers_retired_ ATROPOS_GUARDED_BY(registry_mu_) = 0;
  // Drops carried over from rings already freed, so dropped_total stays
  // monotone across retirements.
  uint64_t retired_dropped_ ATROPOS_GUARDED_BY(registry_mu_) = 0;

  // Drainer-thread state: one cursor per non-empty ring snapshot, in
  // registration order, and the retired producers the replay still reads.
  std::vector<EventRing::Cursor> cursors_;
  std::vector<std::unique_ptr<Producer>> retiring_;
  IntakeStats intake_;
  Gauge* ring_depth_gauge_ = nullptr;
  Gauge* drained_gauge_ = nullptr;
  Gauge* dropped_gauge_ = nullptr;
  Gauge* producers_gauge_ = nullptr;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_CONCURRENT_FRONTEND_H_
