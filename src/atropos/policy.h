// Cancellation victim selection (paper §3.5, Algorithm 1).
//
// The multi-objective policy first filters candidate tasks to the
// non-dominated (Pareto) set over their per-resource gain vectors, then
// scalarizes with the normalized contention levels as weights. Two ablation
// policies reproduce the Fig 13 baselines.

#ifndef SRC_ATROPOS_POLICY_H_
#define SRC_ATROPOS_POLICY_H_

#include <span>
#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/types.h"

namespace atropos {

// Everything victim selection needs, assembled by the estimator.
//
// Per-candidate gains and current usage live in two flat row-major
// `candidates.size() x resources.size()` matrices, so one window's input
// costs a constant number of allocations whatever the candidate count, and
// the Pareto filter scans contiguous rows.
struct PolicyInput {
  // Only resources currently flagged as overloaded participate as objectives.
  std::vector<ResourceMetrics> resources;

  struct Candidate {
    TaskId task = kInvalidTaskId;
    bool cancellable = true;
  };
  std::vector<Candidate> candidates;

  // Row i holds candidate i's values aligned with `resources` (same
  // indexing); each column is normalized to [0, 1] per resource so units are
  // comparable across resource classes.
  std::vector<double> gain_matrix;
  std::vector<double> current_matrix;

  std::span<const double> Gains(size_t i) const { return Row(gain_matrix, i); }
  std::span<const double> CurrentUsage(size_t i) const { return Row(current_matrix, i); }

  // Appends one candidate; both rows must have `resources.size()` entries.
  void AddCandidate(TaskId task, bool cancellable, std::span<const double> gains,
                    std::span<const double> current) {
    candidates.push_back(Candidate{task, cancellable});
    gain_matrix.insert(gain_matrix.end(), gains.begin(), gains.end());
    current_matrix.insert(current_matrix.end(), current.begin(), current.end());
  }

 private:
  std::span<const double> Row(const std::vector<double>& matrix, size_t i) const {
    const size_t k = resources.size();
    return {matrix.data() + i * k, k};
  }
};

struct PolicyDecision {
  TaskId victim = kInvalidTaskId;
  double score = 0.0;
  bool found() const { return victim != kInvalidTaskId; }
};

// Optional decision trace: how every candidate fared, for the flight
// recorder. Filled only when a non-null pointer is passed to the selectors,
// so the normal control path pays nothing for it.
struct PolicyExplain {
  struct Entry {
    TaskId task = kInvalidTaskId;
    bool cancellable = false;
    bool pareto = false;  // survived the non-dominated filter
    double score = 0.0;   // scalarized score (0 when not scored)
    std::vector<double> gains;
  };
  std::vector<Entry> entries;
};

// Returns true iff `a` dominates `b`: a is >= b on every objective and
// strictly greater on at least one.
bool Dominates(std::span<const double> a, std::span<const double> b);

// Each selector returns no victim when the best score is not positive: such
// a cancellation frees nothing anywhere.

// Algorithm 1: non-dominated filter + contention-weighted scalarization.
PolicyDecision SelectMultiObjective(const PolicyInput& input, PolicyExplain* explain = nullptr);

// Fig 13 baseline 1: greedy — highest gain on the single most contended
// resource.
PolicyDecision SelectHeuristic(const PolicyInput& input, PolicyExplain* explain = nullptr);

// Fig 13 baseline 2: multi-objective shape, but scores use current usage
// instead of predicted future gain.
PolicyDecision SelectCurrentUsage(const PolicyInput& input, PolicyExplain* explain = nullptr);

}  // namespace atropos

#endif  // SRC_ATROPOS_POLICY_H_
