// Hot-path task/resource ledger (paper §3.1–3.2).
//
// The TaskLedger is the bottom layer of the decomposed runtime: it owns the
// task and resource registries, per-task per-resource usage accounting, the
// sampled/per-event timestamp handling, and the conservation ledger the
// fuzzer's accounting oracles audit. It makes no decisions — the
// DecisionPipeline reads its books once per window, and the AtroposRuntime
// façade coordinates the two.
//
// Layout (DESIGN.md §17): struct-of-arrays registries laid out in the order
// they are walked. Task records live in an id-ordered slot arena:
// registration appends, and task ids are monotone, so slot order is
// ascending-TaskId order — the deterministic iteration the estimator saw when
// these were std::maps. A free marks its slot dead in a byte-per-slot
// liveness array and zeroes its usage row; an append that finds the arena at capacity with at
// least half of it dead compacts it in place, keeping order, instead of
// growing. An open-addressed DenseKeyIndex maps application keys to slots;
// dead slots keep their ids, so id lookup is a binary search over the arena.
// Per-(task, resource) usage is a flat matrix indexed
// slot * resource_count() + (resource - 1). Resources are a plain vector
// indexed by id - 1 (they are never freed).
//
// Steady-state RecordGet/RecordFree/RecordUsage are O(1), branch-light, and
// allocation-free. Registration is amortized O(1) and allocation-free at a
// stable population: allocation happens only on first-touch growth (more
// live tasks or resources than ever before).
//
// Threading: single-threaded by design — the ledger is owned by whichever
// thread drives the runtime (the drainer thread behind ConcurrentFrontend,
// or the caller in single-threaded embeddings). It holds no mutexes, so it
// carries no src/common/thread_annotations.h attributes; cross-thread intake
// must go through ConcurrentFrontend's rings, never call into the ledger.

#ifndef SRC_ATROPOS_LEDGER_H_
#define SRC_ATROPOS_LEDGER_H_

#include <string>
#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/dense_index.h"
#include "src/atropos/stats.h"
#include "src/common/clock.h"

namespace atropos {

// Per-resource conservation ledger row: every unit a task reported acquired
// is either returned (released), still held by a live task (live_held), or
// was held at task teardown (leaked); frees beyond a task's holdings are
// overfreed. The identity below holds for correct ledger bookkeeping
// regardless of application behaviour; leaked/overfreed themselves expose
// application-side imbalance.
struct ResourceAudit {
  ResourceId id = kInvalidResourceId;
  std::string name;
  ResourceClass cls = ResourceClass::kLock;
  uint64_t acquired = 0;   // units reported via getResource
  uint64_t released = 0;   // units reported via freeResource
  uint64_t leaked = 0;     // units held at task teardown
  uint64_t overfreed = 0;  // free amounts beyond the task's holdings
  uint64_t live_held = 0;  // units held by currently registered tasks
  bool Balanced() const { return acquired + overfreed == released + leaked + live_held; }
};

class TaskLedger {
 public:
  TaskLedger(Clock* clock, const AtroposConfig& config, AtroposStats* stats);

  // ---- Resource registry ---------------------------------------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls);
  const ResourceRecord* FindResource(ResourceId id) const;

  // ---- Task registry -------------------------------------------------------
  // `cancellable` is the already-resolved flag: the façade consults the
  // dispatcher's §4 cancelled-key memo before registering. Registration may
  // compact or grow the arena, which invalidates every TaskRecord pointer.
  void RegisterTask(uint64_t key, bool background, bool cancellable);
  void FreeTask(uint64_t key);
  const TaskRecord* FindTask(uint64_t key) const;
  // Binary search over the id-sorted arena; null for freed ids.
  TaskRecord* FindTaskById(TaskId id);
  size_t live_task_count() const { return key_index_.size(); }

  // ---- Usage tracing (§3.2) ------------------------------------------------
  void RecordGet(uint64_t key, ResourceId resource, uint64_t amount);
  void RecordFree(uint64_t key, ResourceId resource, uint64_t amount);
  void RecordWaitBegin(uint64_t key, ResourceId resource);
  void RecordWaitEnd(uint64_t key, ResourceId resource);
  void RecordUsage(uint64_t key, ResourceId resource, TimeMicros waited, TimeMicros used);
  void RecordProgress(uint64_t key, uint64_t done, uint64_t total);

  // ---- Timestamp-mode handling (§3.2) --------------------------------------
  // The façade escalates to per-event timestamps while an overload is
  // suspected; the ledger owns the cached-timestamp machinery. The mode
  // selects a function pointer, so TraceNow itself is branch-free; sampled
  // mode refreshes against a cached deadline instead of re-deriving the
  // interval arithmetic per event.
  void SetEffectiveMode(TimestampMode mode);
  TimestampMode effective_mode() const { return effective_mode_; }
  TimeMicros TraceNow() { return trace_now_fn_(this); }

  // ---- Window boundary -----------------------------------------------------
  // Resets the per-resource window counters; closed wait/hold intervals are
  // clipped against window_start() as they complete.
  void RollWindow(TimeMicros now);
  TimeMicros window_start() const { return window_start_; }

  // ---- Estimation-stage access ---------------------------------------------
  // Slot-based iteration in ascending-TaskId order: walk [0, slot_count())
  // and skip slots that are not live_at(slot). The usage row of a slot holds
  // resource_count() cells, cell r belonging to ResourceId r + 1; a dead
  // slot's row is all zero.
  uint32_t slot_count() const { return static_cast<uint32_t>(task_slots_.size()); }
  bool live_at(uint32_t slot) const { return slot_live_[slot] != 0; }
  const TaskRecord& task_at(uint32_t slot) const { return task_slots_[slot]; }
  const TaskResourceUsage* usage_row(uint32_t slot) const {
    return usage_.data() + static_cast<size_t>(slot) * resources_.size();
  }
  size_t resource_count() const { return resources_.size(); }
  ResourceRecord& resource_at(size_t i) { return resources_[i]; }
  const ResourceRecord& resource_at(size_t i) const { return resources_[i]; }

  // ---- Introspection / test access -----------------------------------------
  // The (task, resource) usage cell, or null when the task is unknown, the
  // resource id is out of range, or no tracing event ever touched the pair.
  const TaskResourceUsage* FindUsage(uint64_t key, ResourceId resource) const;
  // Resource ids this task's tracing events have touched, ascending.
  std::vector<ResourceId> UsedResources(uint64_t key) const;
  // Mutable cell access for tests that stage ledger state directly; creates
  // (and marks touched) the cell. Null when key/resource are unknown.
  TaskResourceUsage* MutableUsage(uint64_t key, ResourceId resource);
  TaskRecord* MutableTask(uint64_t key);
  ResourceRecord* MutableResource(ResourceId id);

  // ---- Accounting audit (fuzzer oracles) -----------------------------------
  std::vector<ResourceAudit> AuditAccounting() const;

 private:
  using TraceNowFn = TimeMicros (*)(TaskLedger*);
  static TimeMicros TraceNowPerEvent(TaskLedger* self);
  static TimeMicros TraceNowSampled(TaskLedger* self);

  static constexpr uint32_t kNilSlot = DenseKeyIndex::kNotFound;

  TaskResourceUsage* Row(uint32_t slot) {
    return usage_.data() + static_cast<size_t>(slot) * resources_.size();
  }
  TaskRecord* Lookup(uint64_t key);
  TaskResourceUsage* UsageFor(uint64_t key, ResourceId resource);
  // Valid resource slot index for `id`, or SIZE_MAX when out of range.
  size_t ResourceSlot(ResourceId id) const {
    const size_t i = static_cast<size_t>(id) - 1;
    return i < resources_.size() ? i : static_cast<size_t>(-1);
  }
  // Squeezes the dead slots out of the arena, keeping slot order, and
  // repoints the moved keys. O(slots), allocation-free.
  void Compact();

  Clock* clock_;
  const AtroposConfig config_;
  AtroposStats* stats_;

  // Id-ordered task arena: its capacity is task_slots_.capacity(). The
  // liveness bytes sit apart from the records so the walks that skip dead
  // slots, and compaction, do not pull dead records into cache.
  std::vector<TaskRecord> task_slots_;
  std::vector<uint8_t> slot_live_;
  DenseKeyIndex key_index_;  // application key -> live slot

  // Resource registry: ids are dense and never freed; index = id - 1.
  std::vector<ResourceRecord> resources_;

  // Flat task×resource usage matrix: cell = slot * resource_count() + (rid - 1).
  std::vector<TaskResourceUsage> usage_;

  TaskId next_task_id_ = 1;
  ResourceId next_resource_id_ = 1;

  TimeMicros window_start_ = 0;

  // Timestamp sampling (§3.2).
  TimestampMode effective_mode_;
  TraceNowFn trace_now_fn_;
  TimeMicros cached_now_ = 0;
  TimeMicros sample_deadline_ = 0;  // cached_now_ + sample interval
};

}  // namespace atropos

#endif  // SRC_ATROPOS_LEDGER_H_
