#include "src/atropos/policy.h"

#include <algorithm>

namespace atropos {

bool Dominates(std::span<const double> a, std::span<const double> b) {
  bool strictly_greater = false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i] < b[i]) {
      return false;
    }
    if (a[i] > b[i]) {
      strictly_greater = true;
    }
  }
  return strictly_greater;
}

namespace {

// The row a policy ranks candidate `i` by: predicted gains, or current usage
// for the Fig 13 ablation.
std::span<const double> Objectives(const PolicyInput& input, size_t i, bool use_current_usage) {
  return use_current_usage ? input.CurrentUsage(i) : input.Gains(i);
}

// Scalarizes a gain vector with the normalized contention levels as weights
// (Algorithm 1 lines 12-20).
double Scalarize(const PolicyInput& input, std::span<const double> gains) {
  double total = 0.0;
  for (size_t r = 0; r < input.resources.size(); r++) {
    total += input.resources[r].contention_norm * gains[r];
  }
  return total;
}

// Algorithm 1 lines 2-10: the indices, ascending, of the cancellable
// candidates not dominated by any other cancellable candidate.
//
// Block-nested-loop skyline: `set` is a running antichain. A candidate that a
// member dominates is dropped; otherwise it evicts the members it dominates
// and joins. Dominance is a strict partial order, so every candidate seen so
// far is in `set` or dominated by a member of it, and the final `set` is
// exactly the non-dominated set an all-pairs scan finds. Members join in
// ascending index order and eviction keeps the order of the rest, so `set`
// stays in candidate order, on which ScalarizeOver's first-max tie-break
// depends.
std::vector<uint32_t> NonDominatedSet(const PolicyInput& input, bool use_current_usage) {
  std::vector<uint32_t> set;
  set.reserve(input.candidates.size());
  for (size_t i = 0; i < input.candidates.size(); i++) {
    if (!input.candidates[i].cancellable) {
      continue;
    }
    const std::span<const double> row = Objectives(input, i, use_current_usage);
    const bool dominated = std::any_of(set.begin(), set.end(), [&](uint32_t j) {
      return Dominates(Objectives(input, j, use_current_usage), row);
    });
    if (dominated) {
      continue;
    }
    std::erase_if(set, [&](uint32_t j) {
      return Dominates(row, Objectives(input, j, use_current_usage));
    });
    set.push_back(static_cast<uint32_t>(i));
  }
  return set;
}

PolicyDecision ScalarizeOver(const PolicyInput& input, const std::vector<uint32_t>& set,
                             bool use_current_usage) {
  PolicyDecision decision;
  for (uint32_t i : set) {
    double score = Scalarize(input, Objectives(input, i, use_current_usage));
    if (!decision.found() || score > decision.score) {
      decision.victim = input.candidates[i].task;
      decision.score = score;
    }
  }
  return decision;
}

// Fills the decision trace: one entry per candidate, marking Pareto
// survivors and their scalarized scores.
void Explain(const PolicyInput& input, const std::vector<uint32_t>& pareto_set,
             bool use_current_usage, PolicyExplain* explain) {
  if (explain == nullptr) {
    return;
  }
  explain->entries.clear();
  explain->entries.reserve(input.candidates.size());
  auto next = pareto_set.begin();  // ascending, so one merge walk suffices
  for (size_t i = 0; i < input.candidates.size(); i++) {
    const std::span<const double> row = Objectives(input, i, use_current_usage);
    PolicyExplain::Entry entry;
    entry.task = input.candidates[i].task;
    entry.cancellable = input.candidates[i].cancellable;
    entry.gains.assign(row.begin(), row.end());
    if (next != pareto_set.end() && *next == i) {
      ++next;
      entry.pareto = true;
      entry.score = Scalarize(input, row);
    }
    explain->entries.push_back(std::move(entry));
  }
}

}  // namespace

PolicyDecision SelectMultiObjective(const PolicyInput& input, PolicyExplain* explain) {
  if (input.resources.empty()) {
    return {};
  }
  auto set = NonDominatedSet(input, /*use_current_usage=*/false);
  Explain(input, set, /*use_current_usage=*/false, explain);
  return ScalarizeOver(input, set, /*use_current_usage=*/false);
}

PolicyDecision SelectHeuristic(const PolicyInput& input, PolicyExplain* explain) {
  if (input.resources.empty()) {
    return {};
  }
  // The single most contended resource.
  size_t top = 0;
  for (size_t r = 1; r < input.resources.size(); r++) {
    if (input.resources[r].contention_norm > input.resources[top].contention_norm) {
      top = r;
    }
  }
  if (explain != nullptr) {
    explain->entries.clear();
  }
  PolicyDecision decision;
  for (size_t i = 0; i < input.candidates.size(); i++) {
    const PolicyInput::Candidate& c = input.candidates[i];
    const std::span<const double> gains = input.Gains(i);
    if (explain != nullptr) {
      // The greedy policy has no Pareto filter: every cancellable candidate
      // is in the scored set.
      explain->entries.push_back(PolicyExplain::Entry{
          c.task, c.cancellable, c.cancellable, c.cancellable ? gains[top] : 0.0,
          std::vector<double>(gains.begin(), gains.end())});
    }
    if (!c.cancellable) {
      continue;
    }
    double score = gains[top];
    if (!decision.found() || score > decision.score) {
      decision.victim = c.task;
      decision.score = score;
    }
  }
  // A victim with zero gain on the chosen resource frees nothing; in that
  // case the greedy policy has no useful action.
  if (decision.found() && decision.score <= 0.0) {
    return {};
  }
  return decision;
}

PolicyDecision SelectCurrentUsage(const PolicyInput& input, PolicyExplain* explain) {
  if (input.resources.empty()) {
    return {};
  }
  auto set = NonDominatedSet(input, /*use_current_usage=*/true);
  Explain(input, set, /*use_current_usage=*/true, explain);
  return ScalarizeOver(input, set, /*use_current_usage=*/true);
}

PolicyDecision SelectVictim(PolicyKind kind, const PolicyInput& input, PolicyExplain* explain) {
  PolicyDecision decision;
  switch (kind) {
    case PolicyKind::kMultiObjective:
      decision = SelectMultiObjective(input, explain);
      break;
    case PolicyKind::kHeuristic:
      decision = SelectHeuristic(input, explain);
      break;
    case PolicyKind::kCurrentUsage:
      decision = SelectCurrentUsage(input, explain);
      break;
  }
  // Never select a victim whose cancellation frees nothing anywhere.
  if (decision.found() && decision.score <= 0.0) {
    return {};
  }
  return decision;
}

}  // namespace atropos
