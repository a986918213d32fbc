// Resource-overload estimation (paper §3.4–3.5).
//
// Per window, the estimator computes each resource's contention level (raw,
// class-specific formula) and its normalized form C_r = D_r / (T_base + D_r),
// then — for the resources flagged overloaded — each candidate task's
// resource gain (future-usage prediction via the GetNext progress model) and
// the current-usage variant used by the Fig 13 ablation.

#ifndef SRC_ATROPOS_ESTIMATOR_H_
#define SRC_ATROPOS_ESTIMATOR_H_

#include <map>
#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/ledger.h"
#include "src/atropos/policy.h"

namespace atropos {

class Estimator {
 public:
  explicit Estimator(const AtroposConfig& config) : config_(config) {}

  // While calibrating (the detector is still learning the latency baseline),
  // per-resource contention levels are recorded as the healthy baseline and
  // no resource is flagged overloaded.
  void SetCalibrating(bool calibrating) { calibrating_ = calibrating; }
  double BaselineContention(ResourceId id) const {
    auto it = baseline_contention_.find(id);
    if (it == baseline_contention_.end() || it->second.windows == 0) {
      return 0.0;
    }
    return it->second.sum / static_cast<double>(it->second.windows);
  }

  struct Output {
    std::vector<ResourceMetrics> all_resources;  // one entry per registered resource
    PolicyInput policy_input;                    // objectives = overloaded resources only
    bool resource_overload = false;              // any resource over threshold
  };

  // Computes the window's metrics from the ledger's books: live tasks are
  // walked in ascending-TaskId order (the ledger's id-ordered arena) and
  // resources in ascending-id order, so the output is deterministic.
  // `exec_time` is T_base: the window's *productive* execution time
  // (completed request time attributed to the window, floored at the window
  // length). The §3.5 normalization is then C_r = D_r / (T_base + D_r),
  // bounded and per-resource. `window_start` clips the open wait/hold
  // intervals of live tasks to this window; closed intervals are expected in
  // the resources' window counters.
  Output Estimate(TaskLedger& ledger, TimeMicros exec_time, TimeMicros window_start,
                  TimeMicros now);

 private:
  AtroposConfig config_;
  bool calibrating_ = true;
  struct Baseline {
    double sum = 0.0;
    uint64_t windows = 0;
  };
  std::map<ResourceId, Baseline> baseline_contention_;
  // Per-window scratch: the objective columns' maxima. A member so that a
  // warm estimator does not allocate it every window.
  std::vector<double> column_max_;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_ESTIMATOR_H_
