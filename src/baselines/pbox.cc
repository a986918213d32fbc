#include "src/baselines/pbox.h"

#include <algorithm>

namespace atropos {

PBox::PBox(Clock* clock, ControlSurface* surface, PBoxConfig config)
    : clock_(clock), surface_(surface), config_(config), window_start_(clock->NowMicros()) {}

void PBox::HandleTaskRegistered(uint64_t key, bool background, bool cancellable) {
  usage_[key];
}

void PBox::HandleTaskFreed(uint64_t key) {
  usage_.erase(key);
  wait_start_.erase(key);
  penalized_.erase(key);
}

void PBox::HandleGet(uint64_t key, ResourceId resource, uint64_t amount) {
  auto it = usage_.find(key);
  if (it == usage_.end()) {
    return;
  }
  Usage& u = it->second[resource];
  if (u.held == 0) {
    u.hold_started = clock_->NowMicros();
  }
  u.held += amount;
}

void PBox::HandleFree(uint64_t key, ResourceId resource, uint64_t amount) {
  auto it = usage_.find(key);
  if (it == usage_.end()) {
    return;
  }
  Usage& u = it->second[resource];
  uint64_t dec = std::min(u.held, amount);
  u.held -= dec;
  if (u.held == 0 && dec > 0) {
    u.hold_time += clock_->NowMicros() - u.hold_started;
  }
}

void PBox::HandleWaitBegin(uint64_t key, ResourceId resource) {
  wait_start_.emplace(key, clock_->NowMicros());
}

void PBox::HandleWaitEnd(uint64_t key, ResourceId resource) {
  auto it = wait_start_.find(key);
  if (it == wait_start_.end()) {
    return;
  }
  window_wait_[resource] += clock_->NowMicros() - it->second;
  wait_start_.erase(it);
}

void PBox::HandleWaitObserved(uint64_t key, ResourceId resource, TimeMicros waited) {
  window_wait_[resource] += waited;
}

void PBox::HandleHoldObserved(uint64_t key, ResourceId resource, TimeMicros used) {
  auto it = usage_.find(key);
  if (it == usage_.end()) {
    return;
  }
  it->second[resource].hold_time += used;
}

void PBox::Tick() {
  TimeMicros now = clock_->NowMicros();
  TimeMicros window = now > window_start_ ? now - window_start_ : 1;
  window_start_ = now;

  // Find the most-contended resource this window.
  ResourceId hot = kInvalidResourceId;
  TimeMicros hot_wait = 0;
  for (const auto& [resource, wait] : window_wait_) {
    if (wait > hot_wait) {
      hot = resource;
      hot_wait = wait;
    }
  }
  window_wait_.clear();

  double contention = static_cast<double>(hot_wait) / static_cast<double>(window);
  if (hot == kInvalidResourceId || contention < config_.contention_threshold) {
    // Calm window: eventually lift penalties.
    if (++calm_ >= config_.calm_windows && !penalized_.empty()) {
      for (uint64_t key : penalized_) {
        surface_->ThrottleTask(key, 1.0);
      }
      penalized_.clear();
    }
    return;
  }
  calm_ = 0;

  // Penalize the top holder of the hot resource (isolation, not cancellation:
  // whatever it already holds stays held).
  uint64_t top_key = 0;
  double top_score = 0.0;
  for (const auto& [key, resources] : usage_) {
    auto it = resources.find(hot);
    if (it == resources.end()) {
      continue;
    }
    double score = static_cast<double>(it->second.held) +
                   static_cast<double>(it->second.HoldAt(now)) / 1000.0;
    if (score > top_score) {
      top_score = score;
      top_key = key;
    }
  }
  if (top_key != 0 && penalized_.count(top_key) == 0) {
    penalized_.insert(top_key);
    penalties_++;
    surface_->ThrottleTask(top_key, config_.penalty_factor);
  }
}

}  // namespace atropos
