#include "src/baselines/protego.h"

#include <algorithm>
#include <vector>

namespace atropos {

Protego::Protego(Clock* clock, ControlSurface* surface, ProtegoConfig config)
    : clock_(clock),
      surface_(surface),
      config_(config),
      baseline_p99_(config.baseline_p99),
      rng_(config.seed) {}

bool Protego::AdmitRequest(uint64_t key, int request_type, int client_class) {
  if (shed_probability_ <= 0.0) {
    return true;
  }
  if (rng_.NextBernoulli(shed_probability_)) {
    drops_++;
    return false;
  }
  return true;
}

void Protego::HandleRequestStart(uint64_t key, int request_type, int client_class) {
  if (client_class != 0) {
    client_class_[key] = client_class;
  }
}

TimeMicros Protego::slo_latency() const {
  return static_cast<TimeMicros>(static_cast<double>(baseline_p99_) *
                                 (1.0 + config_.slo_latency_increase));
}

bool Protego::IsLockLike(ResourceId resource) const {
  auto it = resource_classes().find(resource);
  if (it == resource_classes().end()) {
    return false;
  }
  // Protego instruments synchronization primitives only (§2.2: it cannot see
  // buffer pools, caches, or application queues).
  return it->second == ResourceClass::kLock;
}

void Protego::HandleWaitBegin(uint64_t key, ResourceId resource) {
  if (!IsLockLike(resource)) {
    return;
  }
  waiting_.emplace(key, clock_->NowMicros());
}

void Protego::HandleWaitEnd(uint64_t key, ResourceId resource) {
  if (!IsLockLike(resource)) {
    return;
  }
  auto it = waiting_.find(key);
  if (it == waiting_.end()) {
    return;
  }
  lock_delay_[key] += clock_->NowMicros() - it->second;
  waiting_.erase(it);
}

void Protego::HandleWaitObserved(uint64_t key, ResourceId resource, TimeMicros waited) {
  if (!IsLockLike(resource)) {
    return;
  }
  lock_delay_[key] += waited;
}

void Protego::HandleRequestEnd(uint64_t key, TimeMicros latency, int request_type,
                               int client_class) {
  if (client_class == 0) {
    window_latency_.Record(latency);
    window_completions_++;
  }
  lock_delay_.erase(key);
}

void Protego::HandleTaskFreed(uint64_t key) {
  waiting_.erase(key);
  lock_delay_.erase(key);
  client_class_.erase(key);
}

void Protego::Tick() {
  TimeMicros now = clock_->NowMicros();
  // Baseline calibration (when not provided).
  if (baseline_p99_ == 0) {
    if (window_completions_ > 0 && ++calibration_seen_ >= config_.calibration_windows) {
      baseline_p99_ = window_latency_.P99();
    }
    window_latency_.Reset();
    window_completions_ = 0;
    return;
  }
  // Performance-driven admission: ramp the shed probability while the window
  // p99 (or any in-progress lock wait) violates the SLO, decay otherwise.
  bool violated = window_completions_ > 0 && window_latency_.P99() > slo_latency();
  for (const auto& [key, start] : waiting_) {
    if (now - start > slo_latency()) {
      violated = true;
      break;
    }
  }
  if (violated) {
    shed_probability_ = std::min(config_.shed_max, shed_probability_ + config_.shed_step);
  } else {
    shed_probability_ *= config_.shed_decay;
    if (shed_probability_ < 0.01) {
      shed_probability_ = 0.0;
    }
  }
  window_latency_.Reset();
  window_completions_ = 0;

  // Drop every request whose lock delay (including the open wait) is past the
  // drop threshold. These are victims of the contention, not its cause.
  auto threshold =
      static_cast<TimeMicros>(config_.drop_wait_fraction * static_cast<double>(slo_latency()));
  std::vector<uint64_t> to_drop;
  for (const auto& [key, start] : waiting_) {
    if (client_class_.count(key) != 0) {
      continue;  // batch/maintenance traffic is outside Protego's SLO scope
    }
    TimeMicros wait = now - start;
    auto acc = lock_delay_.find(key);
    if (acc != lock_delay_.end()) {
      wait += acc->second;
    }
    if (wait >= threshold) {
      to_drop.push_back(key);
    }
  }
  // Requests not waiting right now can still be past the threshold on
  // accumulated delay alone — closed brackets and after-the-fact
  // HandleWaitObserved reports land here.
  for (const auto& [key, acc] : lock_delay_) {
    if (waiting_.count(key) != 0 || client_class_.count(key) != 0) {
      continue;
    }
    if (acc >= threshold) {
      to_drop.push_back(key);
    }
  }
  for (uint64_t key : to_drop) {
    waiting_.erase(key);
    lock_delay_.erase(key);
    drops_++;
    surface_->CancelTask(key, CancelReason::kVictimDrop);
  }
}

}  // namespace atropos
