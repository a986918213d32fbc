// Per-task and per-resource usage accounting (paper §3.2).
//
// The runtime manager records every getResource / freeResource /
// slowByResource event against the calling task and the touched resource.
// Cumulative counters feed the per-task resource-gain estimates; windowed
// counters feed the per-resource contention levels.

#ifndef SRC_ATROPOS_ACCOUNTING_H_
#define SRC_ATROPOS_ACCOUNTING_H_

#include <string>
#include <vector>

#include "src/atropos/types.h"
#include "src/common/clock.h"

namespace atropos {

// Usage of one resource by one task. Stored as one cell of the TaskLedger's
// dense task×resource usage matrix; a default-constructed (all-zero) cell is
// semantically "this task never touched this resource".
struct TaskResourceUsage {
  // Cumulative over the task's lifetime.
  uint64_t acquired = 0;       // units obtained (pages, locks, queue slots)
  uint64_t released = 0;       // units given back
  uint64_t slow_events = 0;    // waits / evictions suffered or caused
  TimeMicros wait_time = 0;    // total completed time stalled on this resource
  TimeMicros hold_time = 0;    // total completed time holding this resource

  // Hold-time derivation: counted from the instant the task first holds any
  // unit until it holds none again.
  uint64_t active_units = 0;
  TimeMicros hold_started_at = 0;

  // Open wait interval: a task blocked on a lock must be visible to the
  // estimator *while* it is blocked, not only after the wait completes.
  bool waiting = false;
  // Whether any tracing event ever landed on this (task, resource) cell —
  // distinguishes "never touched" from "touched with zero totals" for
  // introspection (TaskLedger::UsedResources).
  bool touched = false;
  TimeMicros wait_started_at = 0;

  uint64_t held_now() const { return acquired > released ? acquired - released : 0; }

  // Hold time including the currently open holding interval.
  TimeMicros HoldTimeAt(TimeMicros now) const {
    TimeMicros t = hold_time;
    if (active_units > 0 && now > hold_started_at) {
      t += now - hold_started_at;
    }
    return t;
  }

  // Wait time including the currently open wait.
  TimeMicros WaitTimeAt(TimeMicros now) const {
    TimeMicros t = wait_time;
    if (waiting && now > wait_started_at) {
      t += now - wait_started_at;
    }
    return t;
  }
};

// One registered cancellable task (§3.1).
struct TaskRecord {
  TaskId id = kInvalidTaskId;
  uint64_t key = 0;           // application-provided identity
  TimeMicros created_at = 0;
  bool background = false;    // background tasks have no SLO (§4)
  bool cancellable = true;    // false once re-executed (§4 fairness)
  int cancel_count = 0;       // cancellations issued against this task
  TimeMicros cancelled_at = 0;

  // GetNext progress model (§3.4): rows processed / rows expected.
  uint64_t progress_done = 0;
  uint64_t progress_total = 0;
  bool has_progress = false;

  // Per-resource usage lives in the TaskLedger's dense usage matrix, keyed by
  // this record's slot — not inline, so freeing a task never frees per-pair
  // map nodes on the hot path.

  // Progress in (0, 1]; `fallback` is used when the task reports none.
  double Progress(double fallback) const {
    if (!has_progress || progress_total == 0) {
      return fallback;
    }
    double p = static_cast<double>(progress_done) / static_cast<double>(progress_total);
    if (p < 0.01) {
      p = 0.01;  // avoid an unbounded future-gain factor at start-of-task
    }
    return p > 1.0 ? 1.0 : p;
  }
};

// Per-window aggregates for one resource; reset at every estimator tick.
// wait_time/hold_time collect *closed* intervals, clipped to the window, as
// they complete — so waits by requests that finish (and are freed) within the
// window still count. The estimator adds the still-open intervals of live
// tasks on top.
struct ResourceWindow {
  uint64_t gets = 0;
  uint64_t frees = 0;
  uint64_t slow_events = 0;
  TimeMicros wait_time = 0;
  TimeMicros hold_time = 0;

  void Reset() { *this = ResourceWindow{}; }
};

// One registered application resource.
struct ResourceRecord {
  ResourceId id = kInvalidResourceId;
  ResourceClass cls = ResourceClass::kLock;
  std::string name;
  ResourceWindow window;

  // Cumulative (used by tests and stats export).
  uint64_t total_gets = 0;
  uint64_t total_slow_events = 0;
  TimeMicros total_wait_time = 0;

  // Conservation ledger (audited by the fuzzer's accounting oracle).
  // Invariant: total_gets + overfreed_units ==
  //            total_frees + leaked_units + (units held by live tasks).
  uint64_t total_frees = 0;     // units returned across all tasks
  uint64_t leaked_units = 0;    // units still held when their task was torn down
  uint64_t overfreed_units = 0; // freeResource amounts beyond the task's holdings
};

// Output of the estimator for one resource in one window (§3.4–3.5).
struct ResourceMetrics {
  ResourceId id = kInvalidResourceId;
  ResourceClass cls = ResourceClass::kLock;
  double contention_raw = 0.0;   // class-specific formula (eviction ratio, wait/hold)
  double contention_norm = 0.0;  // C_r = D_r / (T_base + D_r)
  TimeMicros delay = 0;          // D_r: contention-induced delay in the window
  bool overloaded = false;       // contention_norm above threshold
};

}  // namespace atropos

#endif  // SRC_ATROPOS_ACCOUNTING_H_
