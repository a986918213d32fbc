#include "src/atropos/window.h"

#include <algorithm>

namespace atropos {

WindowAggregator::WindowAggregator(Clock* clock, const AtroposConfig& config,
                                   AtroposStats* stats)
    : clock_(clock), config_(config), stats_(stats) {
  window_start_ = clock_->NowMicros();
}

// atropos-lint: alloc-free
void WindowAggregator::DropKey(uint64_t key) {
  // The last entry moves into the freed slot: the registry stays packed.
  const uint32_t slot = inflight_index_.Find(key);
  if (slot == kNilSlot) {
    return;
  }
  inflight_index_.Erase(key);
  const uint32_t last = static_cast<uint32_t>(req_key_.size() - 1);
  if (slot != last) {
    req_key_[slot] = req_key_[last];
    req_start_[slot] = req_start_[last];
    req_class_[slot] = req_class_[last];
    inflight_index_.Repoint(req_key_[slot], slot);
  }
  req_key_.pop_back();
  req_start_.pop_back();
  req_class_.pop_back();
}

void WindowAggregator::OnRequestStart(uint64_t key, int client_class) {
  const TimeMicros now = clock_->NowMicros();
  const uint32_t existing = inflight_index_.Find(key);
  if (existing != kNilSlot) {
    // A second start under a live key: the application reused the key without
    // reporting the prior request's end. Treat it as an implicit end — the
    // stale slot would otherwise silently mis-attribute overdue_actives to
    // the wrong start time with no trace of the loss.
    stats_->request_restarts++;
    req_start_[existing] = now;
    req_class_[existing] = client_class;
    return;
  }
  inflight_index_.Put(key, static_cast<uint32_t>(req_key_.size()));
  req_key_.push_back(key);
  req_start_.push_back(now);
  req_class_.push_back(client_class);
}

// atropos-lint: alloc-free
void WindowAggregator::OnRequestEnd(uint64_t key, TimeMicros latency, int client_class) {
  if (config_.slo_client_class < 0 || client_class == config_.slo_client_class) {
    window_latency_.Record(latency);
    window_completions_++;
  }
  // T_exec contribution, clipped to the window so long requests don't inflate
  // the denominator with execution that belongs to earlier windows.
  TimeMicros now = clock_->NowMicros();
  TimeMicros in_window = now > window_start_ ? now - window_start_ : 0;
  window_exec_time_ += std::min(latency, in_window);
  DropKey(key);
}

// atropos-lint: alloc-free
uint64_t WindowAggregator::CountOverdue(TimeMicros now, TimeMicros slo) const {
  uint64_t overdue = 0;
  for (size_t slot = 0; slot < req_start_.size(); slot++) {
    if (config_.slo_client_class >= 0 && req_class_[slot] != config_.slo_client_class) {
      continue;  // long-running batch requests are not SLO violations
    }
    if (now > req_start_[slot] && now - req_start_[slot] > slo) {
      overdue++;
    }
  }
  return overdue;
}

TimeMicros WindowAggregator::ExecTimeFloored(TimeMicros now) const {
  return std::max<TimeMicros>(window_exec_time_, now - window_start_);
}

// atropos-lint: alloc-free
void WindowAggregator::Roll(TimeMicros now) {
  window_latency_.Reset();  // O(1) epoch bump
  window_completions_ = 0;
  window_exec_time_ = 0;
  window_start_ = now;
}

}  // namespace atropos
