#include "src/atropos/concurrent_frontend.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace atropos {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

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

EventRing::EventRing(size_t capacity) : slots_(RoundUpPow2(std::max<size_t>(capacity, 2))) {
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

size_t EventRing::PopBatch(TraceEvent* out, size_t max) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  const size_t n = std::min(static_cast<size_t>(tail - head), max);
  if (n == 0) {
    return 0;
  }
  // Slots in [head, head + n) were published by the release store of tail_,
  // so after the acquire load above they are plain memory: copy them in at
  // most two contiguous spans (the ring may wrap) and retire them with a
  // single release store of head_.
  const size_t start = static_cast<size_t>(head & mask_);
  const size_t first = std::min(n, slots_.size() - start);
  std::memcpy(out, slots_.data() + start, first * sizeof(TraceEvent));
  if (n > first) {
    std::memcpy(out + first, slots_.data(), (n - first) * sizeof(TraceEvent));
  }
  head_.store(head + n, std::memory_order_release);
  return n;
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

void ConcurrentFrontend::Tick() {
  drain_buf_.clear();
  uint64_t max_depth = 0;
  uint64_t dropped = 0;
  size_t producer_count = 0;
  uint64_t seen = 0;
  uint64_t retired_count = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    size_t keep = 0;
    for (size_t i = 0; i < producers_.size(); i++) {
      std::unique_ptr<Producer>& p = producers_[i];
      // Retirement is observed *before* draining: the owning thread's last
      // Push happens-before its TLS destructor's release store, so seeing
      // retired==true here guarantees this drain empties the ring for good.
      // A flip to retired *after* this load is deliberately ignored until
      // the next Tick — removing on a post-drain observation could free a
      // ring that still holds events pushed just before the exit.
      const bool retired = p->retired_.load(std::memory_order_acquire);
      const size_t before = drain_buf_.size();
      // Batched drain: each PopBatch is one acquire/release pair and at most
      // two memcpy spans, instead of a fence pair per event.
      constexpr size_t kChunk = 256;
      TraceEvent chunk[kChunk];
      size_t n;
      while ((n = p->ring_.PopBatch(chunk, kChunk)) > 0) {
        drain_buf_.insert(drain_buf_.end(), chunk, chunk + n);
      }
      max_depth = std::max<uint64_t>(max_depth, drain_buf_.size() - before);
      if (retired) {
        retired_dropped_ += p->ring_.dropped();
        producers_retired_++;
      } else {
        dropped += p->ring_.dropped();
        producers_[keep++] = std::move(p);
      }
    }
    producers_.resize(keep);
    dropped += retired_dropped_;
    producer_count = producers_.size();
    seen = producers_seen_;
    retired_count = producers_retired_;
  }

  // Stable merge: rings are FIFO with per-ring monotone stamps, so a stable
  // sort by time yields global timestamp order with ties broken by producer
  // registration order — the same deterministic order the determinism test
  // feeds a bare runtime in.
  std::stable_sort(drain_buf_.begin(), drain_buf_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  for (const TraceEvent& ev : drain_buf_) {
    replay_clock_.BeginReplay(ev.time);
    runtime_.Apply(ev);
  }
  replay_clock_.EndReplay();

  intake_.drained_last_tick = drain_buf_.size();
  intake_.drained_total += drain_buf_.size();
  intake_.dropped_total = dropped;
  intake_.max_ring_depth = max_depth;
  intake_.producers = producer_count;
  intake_.producers_seen = seen;
  intake_.producers_retired = retired_count;
  if (ring_depth_gauge_ != nullptr) {
    ring_depth_gauge_->Set(static_cast<double>(max_depth));
    drained_gauge_->Set(static_cast<double>(intake_.drained_last_tick));
    dropped_gauge_->Set(static_cast<double>(dropped));
    producers_gauge_->Set(static_cast<double>(producer_count));
  }

  runtime_.Tick();
}

}  // namespace atropos
