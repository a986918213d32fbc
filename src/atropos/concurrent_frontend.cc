#include "src/atropos/concurrent_frontend.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <unordered_map>

namespace atropos {

namespace {

std::atomic<uint64_t> g_next_frontend_id{1};

// Process-wide registry of live frontends, keyed by never-reused instance id.
// An exiting thread's TLS destructor resolves its bindings through this map
// so a binding to an already-destroyed frontend is simply skipped, never
// dereferenced. Function-local statics so the registry outlives any static
// frontend regardless of construction order.
std::mutex& FrontendRegistryMu() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<uint64_t, ConcurrentFrontend*>& FrontendRegistry() {
  static std::unordered_map<uint64_t, ConcurrentFrontend*> map;
  return map;
}

}  // namespace

// One thread's auto-registered producer bindings. The destructor runs at
// thread exit — after the thread's last instrumentation call — and marks each
// bound producer retired so the drainer can reclaim its ring once emptied.
// Holding the registry lock across RetireProducer pins the frontend (its
// destructor unregisters under the same lock before members are torn down).
struct CapturedTlsBindings {
  struct Binding {
    uint64_t frontend_id;
    ConcurrentFrontend::Producer* producer;
  };
  std::vector<Binding> bindings;

  ~CapturedTlsBindings() {
    std::lock_guard<std::mutex> lock(FrontendRegistryMu());
    for (const Binding& b : bindings) {
      auto it = FrontendRegistry().find(b.frontend_id);
      if (it != FrontendRegistry().end()) {
        it->second->RetireProducer(b.producer);
      }
    }
  }
};

// ---- EventRing -------------------------------------------------------------

EventRing::EventRing(size_t capacity) : slots_(std::bit_ceil(std::max<size_t>(capacity, 2))) {
  mask_ = slots_.size() - 1;
}

// atropos-lint: alloc-free
bool EventRing::Push(const TraceEvent& ev, TimeMicros time) {
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  const uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  TraceEvent& slot = slots_[tail & mask_];
  slot = ev;
  slot.time = time;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

// ---- Producer --------------------------------------------------------------

// atropos-lint: alloc-free
bool ConcurrentFrontend::Producer::Push(const TraceEvent& ev) {
  return ring_.Push(ev, clock_->NowMicros());
}

// ---- ConcurrentFrontend ----------------------------------------------------

ConcurrentFrontend::ConcurrentFrontend(Clock* clock, AtroposConfig config, Options options)
    : instance_id_(g_next_frontend_id.fetch_add(1, std::memory_order_relaxed)),
      clock_(clock),
      replay_clock_(clock),
      runtime_(&replay_clock_, config),
      options_(options) {
  std::lock_guard<std::mutex> lock(FrontendRegistryMu());
  FrontendRegistry().emplace(instance_id_, this);
}

ConcurrentFrontend::ConcurrentFrontend(Clock* clock, AtroposConfig config)
    : ConcurrentFrontend(clock, config, Options{}) {}

ConcurrentFrontend::~ConcurrentFrontend() {
  // Unregister before members are destroyed: an exiting thread holding the
  // registry lock may still be retiring a producer owned by this frontend.
  std::lock_guard<std::mutex> lock(FrontendRegistryMu());
  FrontendRegistry().erase(instance_id_);
}

ConcurrentFrontend::Producer* ConcurrentFrontend::RegisterProducer() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  producers_.push_back(
      std::unique_ptr<Producer>(new Producer(clock_, options_.ring_capacity)));
  producers_seen_++;
  return producers_.back().get();
}

size_t ConcurrentFrontend::live_producer_count() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return producers_.size();
}

inline ConcurrentFrontend::Producer* ConcurrentFrontend::ThisThreadProducer() {
  // Keyed by a never-reused instance id so a binding to a destroyed frontend
  // can go stale but never alias a live one. The wrapper's destructor retires
  // the bindings at thread exit (see CapturedTlsBindings).
  thread_local CapturedTlsBindings tls;
  for (const CapturedTlsBindings::Binding& b : tls.bindings) {
    if (b.frontend_id == instance_id_) {
      return b.producer;
    }
  }
  Producer* p = RegisterProducer();
  tls.bindings.push_back(CapturedTlsBindings::Binding{instance_id_, p});
  return p;
}

// Defined here, next to ThisThreadProducer and Producer::Push, so both inline
// into the one call the hooks make.
void ConcurrentFrontend::Apply(const TraceEvent& ev) { ThisThreadProducer()->Push(ev); }

void ConcurrentFrontend::BindMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    ring_depth_gauge_ = drained_gauge_ = dropped_gauge_ = producers_gauge_ = nullptr;
    return;
  }
  ring_depth_gauge_ = metrics->GetGauge("intake.ring_depth");
  drained_gauge_ = metrics->GetGauge("intake.drained_per_tick");
  dropped_gauge_ = metrics->GetGauge("intake.dropped_events");
  producers_gauge_ = metrics->GetGauge("intake.producers");
}

// atropos-lint: alloc-free
uint64_t ConcurrentFrontend::ReplayMerged() {
  uint64_t applied = 0;
  while (!cursors_.empty()) {
    // The ring whose head sorts first by (stamp, registration order), and the
    // head that sorts second, which bounds the run taken from the first.
    const size_t n = cursors_.size();
    size_t first = 0;
    size_t second = n;
    TimeMicros first_time = cursors_[0].ring->At(cursors_[0].next).time;
    TimeMicros second_time = std::numeric_limits<TimeMicros>::max();
    for (size_t i = 1; i < n; i++) {
      const TimeMicros t = cursors_[i].ring->At(cursors_[i].next).time;
      if (t < first_time) {
        second = first;
        second_time = first_time;
        first = i;
        first_time = t;
      } else if (second == n || t < second_time) {
        second = i;
        second_time = t;
      }
    }
    // Ties at the bound go to the earlier-registered producer.
    EventRing::Cursor& c = cursors_[first];
    const bool takes_ties = first < second;
    TimeMicros t = first_time;
    do {
      const TraceEvent& ev = c.ring->At(c.next++);
      replay_clock_.BeginReplay(ev.time);
      runtime_.Apply(ev);
      applied++;
    } while (c.next != c.end && ((t = c.ring->At(c.next).time) < second_time ||
                                 (t == second_time && takes_ties)));
    if (c.next == c.end) {
      c.ring->Release(c.end);
      cursors_.erase(cursors_.begin() + static_cast<std::ptrdiff_t>(first));
    }
  }
  return applied;
}

void ConcurrentFrontend::Tick() {
  intake_.max_ring_depth = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    uint64_t dropped = 0;
    size_t keep = 0;
    for (std::unique_ptr<Producer>& p : producers_) {
      // Retirement is observed *before* the snapshot: the owning thread's
      // last Push happens-before its TLS destructor's release store, so a
      // retired ring's snapshot holds everything it will ever hold. A later
      // flip waits for the next Tick: this snapshot may miss events pushed
      // just before the exit.
      const bool retired = p->retired_.load(std::memory_order_acquire);
      const EventRing::Cursor snapshot = p->ring_.Snapshot();
      intake_.max_ring_depth = std::max(intake_.max_ring_depth, snapshot.end - snapshot.next);
      if (snapshot.next != snapshot.end) {
        cursors_.push_back(snapshot);
      }
      if (retired) {
        retired_dropped_ += p->ring_.dropped();
        producers_retired_++;
        retiring_.push_back(std::move(p));
      } else {
        dropped += p->ring_.dropped();
        producers_[keep++] = std::move(p);
      }
    }
    producers_.resize(keep);
    intake_.dropped_total = dropped + retired_dropped_;
    intake_.producers = keep;
    intake_.producers_seen = producers_seen_;
    intake_.producers_retired = producers_retired_;
  }

  // Only this thread frees producers, so the snapshot rings stay valid
  // outside the lock; retired ones are freed once the replay has read them.
  intake_.drained_last_tick = ReplayMerged();
  intake_.drained_total += intake_.drained_last_tick;
  replay_clock_.EndReplay();
  retiring_.clear();
  if (ring_depth_gauge_ != nullptr) {
    ring_depth_gauge_->Set(static_cast<double>(intake_.max_ring_depth));
    drained_gauge_->Set(static_cast<double>(intake_.drained_last_tick));
    dropped_gauge_->Set(static_cast<double>(intake_.dropped_total));
    producers_gauge_->Set(static_cast<double>(intake_.producers));
  }

  runtime_.Tick();
}

}  // namespace atropos
