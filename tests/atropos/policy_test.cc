#include "src/atropos/policy.h"

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/atropos/pipeline.h"

namespace atropos {
namespace {

ResourceMetrics MakeResource(ResourceId id, double contention_norm) {
  ResourceMetrics m;
  m.id = id;
  m.contention_norm = contention_norm;
  m.overloaded = true;
  return m;
}

// Appends one candidate; `current` defaults to the gains.
void AddCandidate(PolicyInput* input, TaskId id, std::vector<double> gains,
                  std::vector<double> current = {}, bool cancellable = true) {
  if (current.empty()) {
    current = gains;
  }
  input->AddCandidate(id, cancellable, gains, current);
}

using Vec = std::vector<double>;

TEST(DominatesTest, StrictDomination) {
  EXPECT_TRUE(Dominates(Vec{5, 2}, Vec{4, 1}));
  EXPECT_TRUE(Dominates(Vec{5, 2}, Vec{5, 1}));
  EXPECT_FALSE(Dominates(Vec{5, 2}, Vec{5, 2}));  // equal: not strictly greater anywhere
  EXPECT_FALSE(Dominates(Vec{5, 0}, Vec{4, 1}));  // trade-off: incomparable
  EXPECT_FALSE(Dominates(Vec{4, 1}, Vec{5, 2}));
}

TEST(MultiObjectiveTest, PaperScalarizationExample) {
  // §3.5 worked example: C_mem=0.6, C_lock=0.4; task A gains (3,1), B (2,2).
  // Score(A) = 0.6*3 + 0.4*1 = 2.2 > Score(B) = 2.0 -> cancel A.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.6), MakeResource(2, 0.4)};
  AddCandidate(&input, 100, {3, 1});
  AddCandidate(&input, 200, {2, 2});
  PolicyDecision d = SelectMultiObjective(input);
  EXPECT_EQ(d.victim, 100u);
  EXPECT_DOUBLE_EQ(d.score, 2.2);
}

TEST(MultiObjectiveTest, DominatedTasksExcluded) {
  // §3.5: (5,2) dominates (4,1); even with weights favouring the dominated
  // task it must not be selected because it never enters the Pareto set.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.5), MakeResource(2, 0.5)};
  AddCandidate(&input, 1, {5, 2});
  AddCandidate(&input, 2, {4, 1});
  PolicyDecision d = SelectMultiObjective(input);
  EXPECT_EQ(d.victim, 1u);
}

TEST(MultiObjectiveTest, NonCancellableTasksSkipped) {
  PolicyInput input;
  input.resources = {MakeResource(1, 1.0)};
  AddCandidate(&input, 1, {10}, {}, /*cancellable=*/false);
  AddCandidate(&input, 2, {3});
  PolicyDecision d = SelectMultiObjective(input);
  EXPECT_EQ(d.victim, 2u);
}

TEST(MultiObjectiveTest, NoResourcesNoDecision) {
  PolicyInput input;
  AddCandidate(&input, 1, {});
  EXPECT_FALSE(SelectMultiObjective(input).found());
}

TEST(MultiObjectiveTest, AllZeroGainsNoDecision) {
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9)};
  AddCandidate(&input, 1, {0});
  AddCandidate(&input, 2, {0});
  EXPECT_FALSE(SelectMultiObjective(input).found());
  EXPECT_FALSE(SelectCurrentUsage(input).found());
}

TEST(MultiObjectiveTest, IncomparableTasksBothConsidered) {
  // X: (3,0), Y: (2,2) — neither dominates. Weights decide.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9), MakeResource(2, 0.1)};
  AddCandidate(&input, 1, {3, 0});
  AddCandidate(&input, 2, {2, 2});
  EXPECT_EQ(SelectMultiObjective(input).victim, 1u);  // 2.7 vs 2.0

  input.resources = {MakeResource(1, 0.2), MakeResource(2, 0.8)};
  EXPECT_EQ(SelectMultiObjective(input).victim, 2u);  // 0.6 vs 2.0
}

TEST(HeuristicTest, PicksMaxGainOnMostContendedResource) {
  // Resource 2 is most contended; task 1 has the highest gain there even
  // though task 2 is globally better.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.3), MakeResource(2, 0.7)};
  AddCandidate(&input, 1, {0.1, 0.9});
  AddCandidate(&input, 2, {1.0, 0.8});
  PolicyDecision d = SelectHeuristic(input);
  EXPECT_EQ(d.victim, 1u);
}

TEST(HeuristicTest, ZeroGainOnTopResourceMeansNoVictim) {
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9)};
  AddCandidate(&input, 1, {0.0});
  EXPECT_FALSE(SelectHeuristic(input).found());
}

TEST(CurrentUsageTest, UsesCurrentNotFutureGain) {
  // Task 1: near completion, large current usage, tiny future gain.
  // Task 2: just started, small current usage, huge future gain.
  // The current-usage baseline picks task 1; multi-objective picks task 2.
  PolicyInput input;
  input.resources = {MakeResource(1, 1.0)};
  AddCandidate(&input, 1, /*gains=*/{0.1}, /*current=*/{1.0});
  AddCandidate(&input, 2, /*gains=*/{1.0}, /*current=*/{0.2});
  EXPECT_EQ(SelectCurrentUsage(input).victim, 1u);
  EXPECT_EQ(SelectMultiObjective(input).victim, 2u);
}

// The one PolicyKind dispatch: the default pipeline's selection stage.
TEST(SelectionPolicyDispatchTest, DispatchesAllPolicies) {
  PolicyInput input;
  input.resources = {MakeResource(1, 1.0)};
  AddCandidate(&input, 7, {1.0});
  for (PolicyKind kind :
       {PolicyKind::kMultiObjective, PolicyKind::kHeuristic, PolicyKind::kCurrentUsage}) {
    AtroposConfig config;
    config.policy = kind;
    EXPECT_EQ(DecisionPipeline::Default(config).selection->Select(input, nullptr).victim, 7u);
  }
}

// Property-style sweep: the multi-objective winner is never dominated by
// any other cancellable candidate.
class PolicyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PolicyPropertyTest, WinnerIsParetoOptimal) {
  // Deterministic pseudo-random inputs derived from the parameter.
  uint64_t seed = static_cast<uint64_t>(GetParam());
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((seed >> 33) % 1000) / 1000.0;
  };
  PolicyInput input;
  int resources = 1 + GetParam() % 4;
  for (int r = 0; r < resources; r++) {
    input.resources.push_back(MakeResource(static_cast<ResourceId>(r + 1), next()));
  }
  for (int t = 0; t < 12; t++) {
    std::vector<double> gains;
    for (int r = 0; r < resources; r++) {
      gains.push_back(next());
    }
    AddCandidate(&input, static_cast<TaskId>(t + 1), std::move(gains));
  }
  PolicyDecision d = SelectMultiObjective(input);
  ASSERT_TRUE(d.found());
  size_t winner = input.candidates.size();
  for (size_t i = 0; i < input.candidates.size(); i++) {
    if (input.candidates[i].task == d.victim) {
      winner = i;
    }
  }
  ASSERT_LT(winner, input.candidates.size());
  for (size_t i = 0; i < input.candidates.size(); i++) {
    if (i != winner) {
      EXPECT_FALSE(Dominates(input.Gains(i), input.Gains(winner)))
          << "winner " << d.victim << " dominated by " << input.candidates[i].task;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, PolicyPropertyTest, ::testing::Range(1, 40));

// ---- Differential test: the skyline Pareto filter against the all-pairs
// reference scan it replaced.

// The original O(n^2) filter, kept as the reference: candidate i survives
// iff it is cancellable and no other cancellable candidate dominates it.
std::vector<bool> ReferenceParetoFlags(const PolicyInput& input, bool use_current_usage) {
  auto row = [&](size_t i) {
    return use_current_usage ? input.CurrentUsage(i) : input.Gains(i);
  };
  const size_t n = input.candidates.size();
  std::vector<bool> flags(n, false);
  for (size_t a = 0; a < n; a++) {
    if (!input.candidates[a].cancellable) {
      continue;
    }
    bool dominated = false;
    for (size_t b = 0; b < n && !dominated; b++) {
      dominated = b != a && input.candidates[b].cancellable && Dominates(row(b), row(a));
    }
    flags[a] = !dominated;
  }
  return flags;
}

// The reference decision: the first maximum, in candidate order, of
// `score(i)` over the flagged candidates, or no victim when that maximum is
// not positive (cancelling it would free nothing).
template <typename ScoreFn>
PolicyDecision ReferenceDecision(const PolicyInput& input, const std::vector<bool>& flags,
                                 ScoreFn score) {
  PolicyDecision decision;
  for (size_t i = 0; i < input.candidates.size(); i++) {
    if (flags[i] && (!decision.found() || score(i) > decision.score)) {
      decision.victim = input.candidates[i].task;
      decision.score = score(i);
    }
  }
  if (decision.found() && decision.score <= 0.0) {
    return {};
  }
  return decision;
}

// Seeded random inputs whose gains come from a coarse grid (so duplicate
// and tied rows are common), with occasional all-zero columns, copied rows
// and non-cancellable rows.
PolicyInput RandomInput(uint64_t seed, size_t n, size_t k) {
  auto next = [&seed](uint64_t bound) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return (seed >> 33) % bound;
  };
  PolicyInput input;
  for (size_t r = 0; r < k; r++) {
    input.resources.push_back(
        MakeResource(static_cast<ResourceId>(r + 1), static_cast<double>(next(5)) / 4.0));
  }
  std::vector<bool> zero_column(k);
  for (size_t r = 0; r < k; r++) {
    zero_column[r] = next(4) == 0;
  }
  const uint64_t grid = 1 + next(8);  // 1..8 distinct levels per objective
  for (size_t i = 0; i < n; i++) {
    std::vector<double> gains(k);
    std::vector<double> current(k);
    if (i > 0 && next(5) == 0) {
      // An exact duplicate of an earlier row.
      const size_t src = next(i);
      const auto g = input.Gains(src);
      const auto c = input.CurrentUsage(src);
      gains.assign(g.begin(), g.end());
      current.assign(c.begin(), c.end());
    } else {
      for (size_t r = 0; r < k; r++) {
        if (!zero_column[r]) {
          gains[r] = static_cast<double>(next(grid + 1)) / static_cast<double>(grid);
          current[r] = static_cast<double>(next(grid + 1)) / static_cast<double>(grid);
        }
      }
    }
    input.AddCandidate(static_cast<TaskId>(i + 1), next(5) != 0, gains, current);
  }
  return input;
}

class ParetoDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ParetoDifferentialTest, SkylineMatchesAllPairsScan) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Each block of eight seeds shares k; within a block, one input is large
  // (up to 2000 candidates) and the rest are small.
  const size_t k = 1 + (seed / 8) % 4;
  const size_t n = seed % 8 == 0 ? 2000 - seed : seed % 41;
  const PolicyInput input = RandomInput(seed, n, k);
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n << " k=" << k);

  auto scalarize = [&](std::span<const double> row) {
    double total = 0.0;
    for (size_t r = 0; r < k; r++) {
      total += input.resources[r].contention_norm * row[r];
    }
    return total;
  };
  size_t top = 0;
  for (size_t r = 1; r < k; r++) {
    if (input.resources[r].contention_norm > input.resources[top].contention_norm) {
      top = r;
    }
  }
  std::vector<bool> cancellable(n);
  for (size_t i = 0; i < n; i++) {
    cancellable[i] = input.candidates[i].cancellable;
  }

  struct Case {
    PolicyKind kind;
    std::vector<bool> flags;
    PolicyDecision expected;
  };
  const std::vector<bool> gain_flags = ReferenceParetoFlags(input, false);
  const std::vector<bool> usage_flags = ReferenceParetoFlags(input, true);
  const Case cases[] = {
      {PolicyKind::kMultiObjective, gain_flags,
       ReferenceDecision(input, gain_flags,
                         [&](size_t i) { return scalarize(input.Gains(i)); })},
      {PolicyKind::kCurrentUsage, usage_flags,
       ReferenceDecision(input, usage_flags,
                         [&](size_t i) { return scalarize(input.CurrentUsage(i)); })},
      // The greedy policy has no Pareto filter: every cancellable row is in.
      {PolicyKind::kHeuristic, cancellable,
       ReferenceDecision(input, cancellable, [&](size_t i) { return input.Gains(i)[top]; })},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "policy=" << static_cast<int>(c.kind));
    PolicyExplain explain;
    PolicyDecision d;
    switch (c.kind) {
      case PolicyKind::kMultiObjective:
        d = SelectMultiObjective(input, &explain);
        break;
      case PolicyKind::kCurrentUsage:
        d = SelectCurrentUsage(input, &explain);
        break;
      case PolicyKind::kHeuristic:
        d = SelectHeuristic(input, &explain);
        break;
    }
    ASSERT_EQ(explain.entries.size(), n);
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(explain.entries[i].pareto, c.flags[i]) << "candidate " << i;
    }
    EXPECT_EQ(d.victim, c.expected.victim);
    EXPECT_EQ(d.score, c.expected.score);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ParetoDifferentialTest, ::testing::Range(0, 96));

}  // namespace
}  // namespace atropos
