// Edge cases for the estimator and policy surfaced while building the
// fuzzer's oracles: zero-progress tasks (future-gain factor must stay
// bounded), empty windows, zero execution time, and single-candidate Pareto
// sets.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/atropos/estimator.h"
#include "src/common/clock.h"

namespace atropos {
namespace {

class EstimatorEdgeTest : public ::testing::Test {
 protected:
  EstimatorEdgeTest() {
    config_.contention_threshold = 0.10;
    config_.default_progress = 0.5;
    ledger_ = std::make_unique<TaskLedger>(&clock_, config_, &stats_);
  }

  void AddTask(uint64_t key, bool cancellable = true) {
    ledger_->RegisterTask(key, /*background=*/false, cancellable);
  }

  ResourceId AddResource(ResourceClass cls) {
    return ledger_->RegisterResource("r", cls);
  }

  TaskRecord& Task(uint64_t key) { return *ledger_->MutableTask(key); }
  TaskResourceUsage& Usage(uint64_t key, ResourceId rid) {
    return *ledger_->MutableUsage(key, rid);
  }
  ResourceRecord& Resource(ResourceId rid) { return *ledger_->MutableResource(rid); }

  // An overloaded memory pool: every get evicted, with measurable stalls.
  ResourceId AddThrashedPool() {
    ResourceId pool = AddResource(ResourceClass::kMemory);
    Resource(pool).window.gets = 100;
    Resource(pool).window.slow_events = 100;
    Resource(pool).window.wait_time = Millis(50);
    return pool;
  }

  Estimator::Output Estimate(TimeMicros exec_time = Millis(100)) {
    Estimator est(config_);
    est.SetCalibrating(false);
    return est.Estimate(*ledger_, exec_time, 0, Millis(100));
  }

  AtroposConfig config_;
  ManualClock clock_;
  AtroposStats stats_;
  std::unique_ptr<TaskLedger> ledger_;
};

// A task at 0% reported progress must not blow up the (1-p)/p future factor:
// Progress() floors at 1%, so gains stay finite and normalized.
TEST_F(EstimatorEdgeTest, ZeroProgressTaskHasBoundedFiniteGains) {
  ResourceId pool = AddThrashedPool();
  AddTask(10);
  Usage(10, pool).acquired = 500;
  Task(10).has_progress = true;
  Task(10).progress_done = 0;
  Task(10).progress_total = 100;
  AddTask(11);
  Usage(11, pool).acquired = 500;
  Task(11).has_progress = true;
  Task(11).progress_done = 50;
  Task(11).progress_total = 100;

  auto out = Estimate();
  ASSERT_TRUE(out.resource_overload);
  ASSERT_EQ(out.policy_input.candidates.size(), 2u);
  const std::span<const double> fresh_gains = out.policy_input.Gains(0);
  const std::span<const double> half_gains = out.policy_input.Gains(1);
  for (double g : fresh_gains) {
    EXPECT_TRUE(std::isfinite(g));
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
  // Equal holdings: the task with everything still ahead of it is the larger
  // predicted release (factor 99 vs 1) and normalizes to the column max.
  EXPECT_DOUBLE_EQ(fresh_gains[0], 1.0);
  EXPECT_LT(half_gains[0], fresh_gains[0]);
}

// progress_total == 0 means "no usable progress report": fall back to the
// configured default rather than dividing by zero.
TEST_F(EstimatorEdgeTest, ZeroTotalProgressFallsBackToDefault) {
  ResourceId pool = AddThrashedPool();
  AddTask(10);
  Usage(10, pool).acquired = 500;
  Task(10).has_progress = true;
  Task(10).progress_done = 7;
  Task(10).progress_total = 0;

  auto out = Estimate();
  ASSERT_EQ(out.policy_input.candidates.size(), 1u);
  for (double g : out.policy_input.Gains(0)) {
    EXPECT_TRUE(std::isfinite(g));
  }
  // default_progress = 0.5 -> factor 1 -> gain = holdings, normalized to 1.
  EXPECT_DOUBLE_EQ(out.policy_input.Gains(0)[0], 1.0);
}

TEST_F(EstimatorEdgeTest, EmptyWindowProducesEmptyOutput) {
  auto out = Estimate();
  EXPECT_TRUE(out.all_resources.empty());
  EXPECT_FALSE(out.resource_overload);
  EXPECT_TRUE(out.policy_input.candidates.empty());
  EXPECT_TRUE(out.policy_input.resources.empty());
}

TEST_F(EstimatorEdgeTest, ResourcesWithNoTrafficStayQuiet) {
  AddResource(ResourceClass::kLock);
  AddResource(ResourceClass::kMemory);
  AddResource(ResourceClass::kQueue);
  auto out = Estimate();
  ASSERT_EQ(out.all_resources.size(), 3u);
  for (const auto& m : out.all_resources) {
    EXPECT_TRUE(std::isfinite(m.contention_norm));
    EXPECT_EQ(m.contention_norm, 0.0);
    EXPECT_FALSE(m.overloaded);
  }
}

// A window with no productive execution time (full stall) must not divide by
// zero: contention saturates toward 1 and stays finite.
TEST_F(EstimatorEdgeTest, ZeroExecTimeSaturatesWithoutNan) {
  ResourceId lock = AddResource(ResourceClass::kLock);
  Resource(lock).window.wait_time = Millis(50);
  auto out = Estimate(/*exec_time=*/0);
  const ResourceMetrics& m = out.all_resources[0];
  EXPECT_TRUE(std::isfinite(m.contention_norm));
  EXPECT_GT(m.contention_norm, 0.99);
  EXPECT_LT(m.contention_norm, 1.0);
  EXPECT_TRUE(m.overloaded);
}

// ---- Single-candidate Pareto sets (policy layer) -------------------------

PolicyInput SingleCandidateInput(double gain, bool cancellable = true) {
  PolicyInput input;
  ResourceMetrics m;
  m.id = 1;
  m.cls = ResourceClass::kLock;
  m.contention_norm = 0.5;
  m.overloaded = true;
  input.resources.push_back(m);
  const double row[] = {gain};
  input.AddCandidate(10, cancellable, row, row);
  return input;
}

TEST(PolicySingleCandidateTest, LoneCandidateIsTriviallyPareto) {
  for (PolicyKind kind :
       {PolicyKind::kMultiObjective, PolicyKind::kHeuristic, PolicyKind::kCurrentUsage}) {
    PolicyExplain explain;
    PolicyDecision d = SelectVictim(kind, SingleCandidateInput(0.8), &explain);
    EXPECT_TRUE(d.found());
    EXPECT_EQ(d.victim, 10u);
    EXPECT_GT(d.score, 0.0);
    ASSERT_EQ(explain.entries.size(), 1u);
    EXPECT_TRUE(explain.entries[0].pareto);
  }
}

TEST(PolicySingleCandidateTest, ZeroGainLoneCandidateIsNoVictim) {
  PolicyDecision d = SelectVictim(PolicyKind::kMultiObjective, SingleCandidateInput(0.0));
  EXPECT_FALSE(d.found());
}

TEST(PolicySingleCandidateTest, NonCancellableLoneCandidateIsNoVictim) {
  PolicyDecision d = SelectVictim(PolicyKind::kMultiObjective,
                                  SingleCandidateInput(0.8, /*cancellable=*/false));
  EXPECT_FALSE(d.found());
}

TEST(PolicySingleCandidateTest, EmptyCandidateSetIsNoVictim) {
  PolicyInput input = SingleCandidateInput(0.8);
  input.candidates.clear();
  input.gain_matrix.clear();
  input.current_matrix.clear();
  PolicyDecision d = SelectVictim(PolicyKind::kMultiObjective, input);
  EXPECT_FALSE(d.found());
}

}  // namespace
}  // namespace atropos
