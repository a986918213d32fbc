#include "src/atropos/estimator.h"

#include <algorithm>
#include <vector>

namespace atropos {

namespace {

// Future-gain factor (1 - p) / p of §3.4: a task at 10% progress with usage U
// is predicted to demand 9U more; one at 90% only U/9.
double FutureFactor(double progress) {
  return (1.0 - progress) / progress;
}

}  // namespace

Estimator::Output Estimator::Estimate(TaskLedger& ledger, TimeMicros exec_time,
                                      TimeMicros window_start, TimeMicros now) {
  Output out;
  const size_t resource_count = ledger.resource_count();
  out.all_resources.reserve(resource_count);

  // ---- Per-resource window wait/hold: closed intervals were folded into
  // the resource windows as they completed; add the still-open intervals of
  // live tasks, clipped to this window. Deltas are dense (indexed by
  // resource slot = id - 1); untouched usage cells are all-zero and
  // contribute nothing, exactly like absent map entries did.
  struct Delta {
    TimeMicros wait = 0;
    TimeMicros hold = 0;
  };
  std::vector<Delta> deltas(resource_count);
  for (uint32_t slot = 0; slot < ledger.slot_count(); slot++) {
    if (!ledger.live_at(slot)) {
      continue;
    }
    const TaskResourceUsage* row = ledger.usage_row(slot);
    for (size_t r = 0; r < resource_count; r++) {
      const TaskResourceUsage& usage = row[r];
      if (usage.waiting) {
        TimeMicros from = std::max(usage.wait_started_at, window_start);
        if (now > from) {
          deltas[r].wait += now - from;
        }
      }
      if (usage.active_units > 0) {
        TimeMicros from = std::max(usage.hold_started_at, window_start);
        if (now > from) {
          deltas[r].hold += now - from;
        }
      }
    }
  }
  for (size_t r = 0; r < resource_count; r++) {
    const ResourceRecord& res = ledger.resource_at(r);
    deltas[r].wait += res.window.wait_time;
    deltas[r].hold += res.window.hold_time;
  }

  // ---- Contention levels (§3.4 formulas, §3.5 normalization).
  double t_exec = static_cast<double>(std::max<TimeMicros>(exec_time, 1));
  for (size_t r = 0; r < resource_count; r++) {
    const ResourceRecord& res = ledger.resource_at(r);
    ResourceMetrics m;
    m.id = res.id;
    m.cls = res.cls;
    const Delta d = deltas[r];
    switch (res.cls) {
      case ResourceClass::kMemory: {
        // Eviction ratio sum(E_i) / sum(M_i); D_r = eviction time weighted by
        // the contention level.
        double gets = static_cast<double>(std::max<uint64_t>(res.window.gets, 1));
        m.contention_raw = static_cast<double>(res.window.slow_events) / gets;
        m.delay = static_cast<TimeMicros>(static_cast<double>(d.wait) * std::min(m.contention_raw, 1.0));
        break;
      }
      case ResourceClass::kLock:
      case ResourceClass::kQueue:
      case ResourceClass::kCpu:
      case ResourceClass::kIo: {
        // Wait-vs-use ratio; D_r is the measured waiting time.
        double hold = static_cast<double>(std::max<TimeMicros>(d.hold, 1));
        m.contention_raw = static_cast<double>(d.wait) / hold;
        m.delay = d.wait;
        break;
      }
    }
    // Normalized per resource as the fraction of window execution lost to
    // this resource: D_r / (T_base + D_r). Bounded in [0, 1) and independent
    // of stalls on *other* resources (a lock convoy must not dilute the
    // buffer pool's contention by inflating a shared denominator).
    m.contention_norm =
        static_cast<double>(m.delay) / (t_exec + static_cast<double>(m.delay));
    if (calibrating_) {
      // Record the healthy level; nothing is overloaded while calibrating.
      Baseline& baseline = baseline_contention_[m.id];
      baseline.sum += m.contention_norm;
      baseline.windows++;
    } else {
      // Contention saturates near 1.0 in a full stall (T_exec then consists
      // of the blocked time itself), so the baseline-scaled floor is capped
      // below that ceiling.
      double floor = std::max(config_.contention_threshold,
                              std::min(config_.contention_baseline_factor *
                                           BaselineContention(m.id),
                                       0.75));
      m.overloaded = m.contention_norm >= floor;
    }
    if (m.overloaded) {
      out.resource_overload = true;
    }
    out.all_resources.push_back(m);
  }

  // ---- Policy input: objectives are the overloaded resources.
  PolicyInput& input = out.policy_input;
  for (const ResourceMetrics& m : out.all_resources) {
    if (m.overloaded) {
      input.resources.push_back(m);
    }
  }
  const auto& objectives = input.resources;
  if (objectives.empty()) {
    return out;
  }

  // Raw gains per (task, objective): one row per live task, written once
  // into the flat matrices, sized once for the window. Arena order is
  // ascending TaskId, so candidate order matches the map-based estimator
  // byte for byte. Each column's max is tracked in the same pass.
  const size_t k = objectives.size();
  const size_t live = ledger.live_task_count();
  input.candidates.resize(live);
  input.gain_matrix.resize(live * k);
  input.current_matrix.resize(live * k);
  column_max_.assign(2 * k, 0.0);  // [0, k): gain maxima; [k, 2k): current
  double* max_gain = column_max_.data();
  double* max_cur = max_gain + k;
  PolicyInput::Candidate* candidate = input.candidates.data();
  double* gain_row = input.gain_matrix.data();
  double* current_row = input.current_matrix.data();
  double min_time_gain =
      config_.min_gain_window_fraction * static_cast<double>(config_.window);
  for (uint32_t slot = 0; slot < ledger.slot_count(); slot++) {
    if (!ledger.live_at(slot)) {
      continue;
    }
    const TaskRecord& task = ledger.task_at(slot);
    const TaskResourceUsage* row_cells = ledger.usage_row(slot);
    bool cancellable = task.cancellable && task.cancel_count < config_.max_cancels_per_task;
    double factor = FutureFactor(task.Progress(config_.default_progress));
    bool significant = false;
    for (size_t r = 0; r < k; r++) {
      const ResourceMetrics& m = objectives[r];
      const TaskResourceUsage& u = row_cells[static_cast<size_t>(m.id) - 1];
      if (!u.touched) {
        // Never-touched pair: zero contribution (the sized rows start at
        // zero), and — exactly like the absent map entry it replaces —
        // exempt from the significance test.
        continue;
      }
      double current = 0.0;
      if (m.cls == ResourceClass::kMemory) {
        // Pages (units) held right now.
        current = static_cast<double>(u.held_now());
      } else {
        // Accumulated holding/usage time (µs).
        current = static_cast<double>(u.HoldTimeAt(now));
      }
      double gain = current * factor;
      current_row[r] = current;
      gain_row[r] = gain;
      max_cur[r] = std::max(max_cur[r], current);
      max_gain[r] = std::max(max_gain[r], gain);
      double floor = m.cls == ResourceClass::kMemory ? config_.min_gain_memory_units
                                                     : min_time_gain;
      if (gain >= floor) {
        significant = true;
      }
    }
    // A task predicted to release less than the significance floor resolves
    // itself faster than cancelling it would; it is never a useful victim.
    if (!significant) {
      cancellable = false;
    }
    *candidate++ = PolicyInput::Candidate{task.id, cancellable};
    gain_row += k;
    current_row += k;
  }

  // Normalize each objective column to [0, 1] in one row-major sweep so that
  // units (pages vs µs) are comparable when scalarized (§3.5's "make
  // contention level comparable" requirement applies to gains too once
  // multiple resources mix).
  gain_row = input.gain_matrix.data();
  current_row = input.current_matrix.data();
  for (size_t i = 0; i < live; i++, gain_row += k, current_row += k) {
    for (size_t r = 0; r < k; r++) {
      if (max_gain[r] > 0.0) {
        gain_row[r] /= max_gain[r];
      }
      if (max_cur[r] > 0.0) {
        current_row[r] /= max_cur[r];
      }
    }
  }
  return out;
}

}  // namespace atropos
