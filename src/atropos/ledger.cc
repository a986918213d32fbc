#include "src/atropos/ledger.h"

#include <algorithm>

namespace atropos {

TaskLedger::TaskLedger(Clock* clock, const AtroposConfig& config, AtroposStats* stats)
    : clock_(clock), config_(config), stats_(stats), effective_mode_(config.timestamp_mode) {
  window_start_ = clock_->NowMicros();
  cached_now_ = window_start_;
  trace_now_fn_ = &TaskLedger::TraceNowPerEvent;  // overwritten just below
  SetEffectiveMode(config.timestamp_mode);
}

ResourceId TaskLedger::RegisterResource(std::string name, ResourceClass cls) {
  ResourceId id = next_resource_id_++;
  ResourceRecord rec;
  rec.id = id;
  rec.cls = cls;
  rec.name = std::move(name);
  // Setup-time: widen every task's usage row by one cell, repacking rows.
  const size_t old_stride = resources_.size();
  resources_.push_back(std::move(rec));
  std::vector<TaskResourceUsage> wider(task_slots_.size() * resources_.size());
  for (size_t s = 0; s < task_slots_.size(); s++) {
    std::copy_n(usage_.begin() + static_cast<ptrdiff_t>(s * old_stride), old_stride,
                wider.begin() + static_cast<ptrdiff_t>(s * resources_.size()));
  }
  usage_ = std::move(wider);
  return id;
}

const ResourceRecord* TaskLedger::FindResource(ResourceId id) const {
  const size_t i = ResourceSlot(id);
  return i == static_cast<size_t>(-1) ? nullptr : &resources_[i];
}

const TaskRecord* TaskLedger::FindTask(uint64_t key) const {
  const uint32_t slot = key_index_.Find(key);
  return slot == kNilSlot ? nullptr : &task_slots_[slot];
}

TaskRecord* TaskLedger::FindTaskById(TaskId id) {
  // The arena is sorted by id, and dead slots keep theirs.
  auto it = std::lower_bound(task_slots_.begin(), task_slots_.end(), id,
                             [](const TaskRecord& rec, TaskId want) { return rec.id < want; });
  if (it == task_slots_.end() || it->id != id) {
    return nullptr;
  }
  return live_at(static_cast<uint32_t>(it - task_slots_.begin())) ? &*it : nullptr;
}

TimeMicros TaskLedger::TraceNowPerEvent(TaskLedger* self) {
  self->cached_now_ = self->clock_->NowMicros();
  return self->cached_now_;
}

TimeMicros TaskLedger::TraceNowSampled(TaskLedger* self) {
  // Sampled mode: reuse the cached timestamp within the sampling interval —
  // the batching that amortizes timestamp retrieval (§3.2). In a real
  // deployment the refresh is driven by a timer; here the cached-deadline
  // compare plays that role without a second clock source.
  const TimeMicros now = self->clock_->NowMicros();
  if (now >= self->sample_deadline_) {
    self->cached_now_ = now - now % self->config_.timestamp_sample_interval;
    self->sample_deadline_ = self->cached_now_ + self->config_.timestamp_sample_interval;
  }
  return self->cached_now_;
}

void TaskLedger::SetEffectiveMode(TimestampMode mode) {
  effective_mode_ = mode;
  if (mode == TimestampMode::kPerEvent) {
    trace_now_fn_ = &TaskLedger::TraceNowPerEvent;
  } else {
    trace_now_fn_ = &TaskLedger::TraceNowSampled;
    // Rearm the deadline against the current cached stamp, preserving the
    // "refresh once now >= cached + interval" semantics across mode flips.
    sample_deadline_ = cached_now_ + config_.timestamp_sample_interval;
  }
}

void TaskLedger::RegisterTask(uint64_t key, bool background, bool cancellable) {
  // Replace any stale registration under the same key.
  FreeTask(key);
  // A full arena that is at least half dead is compacted instead of grown:
  // the O(slots) compaction follows at least slots/2 appends since the last
  // one, so registration stays amortized O(1), and a stable population
  // cycles through the arena without allocating.
  if (task_slots_.size() == task_slots_.capacity() &&
      2 * live_task_count() <= task_slots_.size()) {
    Compact();
  }
  const uint32_t slot = static_cast<uint32_t>(task_slots_.size());
  // Appending keeps the arena sorted: ids are monotone.
  TaskRecord& rec = task_slots_.emplace_back();
  rec.id = next_task_id_++;
  rec.key = key;
  rec.created_at = clock_->NowMicros();
  rec.background = background;
  rec.cancellable = cancellable;
  slot_live_.push_back(1);
  usage_.resize(usage_.size() + resources_.size());
  key_index_.Put(key, slot);
}

// atropos-lint: alloc-free
void TaskLedger::FreeTask(uint64_t key) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return;
  }
  key_index_.Erase(key);
  // Fold the departing task's open holdings into the per-resource ledger and
  // clear its usage row: dead rows are all zero.
  TaskResourceUsage* row = Row(slot);
  for (size_t r = 0; r < resources_.size(); r++) {
    if (row[r].active_units != 0) {
      resources_[r].leaked_units += row[r].active_units;
    }
  }
  std::fill_n(row, resources_.size(), TaskResourceUsage{});
  slot_live_[slot] = 0;
}

// atropos-lint: alloc-free
void TaskLedger::Compact() {
  const size_t stride = resources_.size();
  uint32_t end = 0;
  for (uint32_t slot = 0; slot < task_slots_.size(); slot++) {
    if (!live_at(slot)) {
      continue;
    }
    if (slot != end) {
      task_slots_[end] = task_slots_[slot];
      slot_live_[end] = 1;
      std::copy_n(Row(slot), stride, Row(end));
      key_index_.Repoint(task_slots_[end].key, end);
    }
    end++;
  }
  task_slots_.erase(task_slots_.begin() + static_cast<ptrdiff_t>(end), task_slots_.end());
  slot_live_.erase(slot_live_.begin() + static_cast<ptrdiff_t>(end), slot_live_.end());
  usage_.erase(usage_.begin() + static_cast<ptrdiff_t>(end * stride), usage_.end());
}

std::vector<ResourceAudit> TaskLedger::AuditAccounting() const {
  std::vector<uint64_t> live_held(resources_.size(), 0);
  for (uint32_t slot = 0; slot < slot_count(); slot++) {
    if (!live_at(slot)) {
      continue;
    }
    const TaskResourceUsage* row = usage_row(slot);
    for (size_t r = 0; r < resources_.size(); r++) {
      live_held[r] += row[r].active_units;
    }
  }
  std::vector<ResourceAudit> out;
  out.reserve(resources_.size());
  for (size_t r = 0; r < resources_.size(); r++) {
    const ResourceRecord& res = resources_[r];
    ResourceAudit row;
    row.id = res.id;
    row.name = res.name;
    row.cls = res.cls;
    row.acquired = res.total_gets;
    row.released = res.total_frees;
    row.leaked = res.leaked_units;
    row.overfreed = res.overfreed_units;
    row.live_held = live_held[r];
    out.push_back(std::move(row));
  }
  return out;
}

// atropos-lint: alloc-free
TaskRecord* TaskLedger::Lookup(uint64_t key) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    stats_->ignored_events++;
    return nullptr;
  }
  return &task_slots_[slot];
}

// atropos-lint: alloc-free
TaskResourceUsage* TaskLedger::UsageFor(uint64_t key, ResourceId resource) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    stats_->ignored_events++;
    return nullptr;
  }
  const size_t r = ResourceSlot(resource);
  if (r == static_cast<size_t>(-1)) {
    // Event against a resource id that was never registered: counted in
    // trace_events by the caller (like always), otherwise untracked — such
    // usage was observationally dead weight in the map-based ledger too (it
    // could never reach the estimator, audits, or digests).
    return nullptr;
  }
  TaskResourceUsage* cell = Row(slot) + r;
  cell->touched = true;
  return cell;
}

// atropos-lint: alloc-free
void TaskLedger::RecordGet(uint64_t key, ResourceId resource, uint64_t amount) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr) {
    return;
  }
  TimeMicros now = TraceNow();
  usage->acquired += amount;
  if (usage->active_units == 0) {
    usage->hold_started_at = now;
  }
  usage->active_units += amount;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  // Window gets count API calls, not units: the §3.4 eviction ratio is
  // "slowByResource calls / getResource calls" regardless of whether a call
  // acquires one page or a multi-KB allocation.
  res.window.gets++;
  res.total_gets += amount;
}

// atropos-lint: alloc-free
void TaskLedger::RecordFree(uint64_t key, ResourceId resource, uint64_t amount) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr) {
    return;
  }
  TimeMicros now = TraceNow();
  usage->released += amount;
  uint64_t dec = std::min(usage->active_units, amount);
  usage->active_units -= dec;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  res.total_frees += amount;
  res.overfreed_units += amount - dec;
  if (usage->active_units == 0 && dec > 0 && now > usage->hold_started_at) {
    usage->hold_time += now - usage->hold_started_at;
    // Window counters take the part of the closed interval inside this
    // window; earlier parts were visible as an open interval before.
    TimeMicros from = std::max(usage->hold_started_at, window_start_);
    if (now > from) {
      res.window.hold_time += now - from;
    }
  }
  res.window.frees += amount;
}

// atropos-lint: alloc-free
void TaskLedger::RecordWaitBegin(uint64_t key, ResourceId resource) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr || usage->waiting) {
    return;
  }
  usage->waiting = true;
  usage->wait_started_at = TraceNow();
}

// atropos-lint: alloc-free
void TaskLedger::RecordWaitEnd(uint64_t key, ResourceId resource) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr || !usage->waiting) {
    return;
  }
  TimeMicros now = TraceNow();
  usage->waiting = false;
  if (now > usage->wait_started_at) {
    usage->wait_time += now - usage->wait_started_at;
  }
  usage->slow_events++;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  res.window.slow_events++;
  res.total_slow_events++;
  TimeMicros from = std::max(usage->wait_started_at, window_start_);
  if (now > from) {
    res.window.wait_time += now - from;
  }
}

// atropos-lint: alloc-free
void TaskLedger::RecordUsage(uint64_t key, ResourceId resource, TimeMicros waited,
                             TimeMicros used) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr) {
    return;
  }
  usage->wait_time += waited;
  usage->hold_time += used;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  res.window.wait_time += waited;
  res.window.hold_time += used;
  if (waited > 0) {
    res.window.slow_events++;
    res.total_slow_events++;
    usage->slow_events++;
  }
}

// atropos-lint: alloc-free
void TaskLedger::RecordProgress(uint64_t key, uint64_t done, uint64_t total) {
  TaskRecord* task = Lookup(key);
  if (task == nullptr) {
    return;
  }
  task->has_progress = true;
  task->progress_done = done;
  task->progress_total = total;
}

void TaskLedger::RollWindow(TimeMicros now) {
  window_start_ = now;
  for (ResourceRecord& res : resources_) {
    res.window.Reset();
  }
}

const TaskResourceUsage* TaskLedger::FindUsage(uint64_t key, ResourceId resource) const {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return nullptr;
  }
  const size_t r = ResourceSlot(resource);
  if (r == static_cast<size_t>(-1)) {
    return nullptr;
  }
  const TaskResourceUsage* cell = usage_row(slot) + r;
  return cell->touched ? cell : nullptr;
}

std::vector<ResourceId> TaskLedger::UsedResources(uint64_t key) const {
  std::vector<ResourceId> out;
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return out;
  }
  const TaskResourceUsage* row = usage_row(slot);
  for (size_t r = 0; r < resources_.size(); r++) {
    if (row[r].touched) {
      out.push_back(static_cast<ResourceId>(r + 1));
    }
  }
  return out;
}

TaskResourceUsage* TaskLedger::MutableUsage(uint64_t key, ResourceId resource) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return nullptr;
  }
  const size_t r = ResourceSlot(resource);
  if (r == static_cast<size_t>(-1)) {
    return nullptr;
  }
  TaskResourceUsage* cell = Row(slot) + r;
  cell->touched = true;
  return cell;
}

TaskRecord* TaskLedger::MutableTask(uint64_t key) {
  const uint32_t slot = key_index_.Find(key);
  return slot == kNilSlot ? nullptr : &task_slots_[slot];
}

ResourceRecord* TaskLedger::MutableResource(ResourceId id) {
  const size_t i = ResourceSlot(id);
  return i == static_cast<size_t>(-1) ? nullptr : &resources_[i];
}

}  // namespace atropos
