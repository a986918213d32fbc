// Steady-state allocation oracle (DESIGN.md §17).
//
// The SoA refactor's core promise is that the per-event hot path — tracing
// hooks into the TaskLedger, request lifecycle into the WindowAggregator, and
// task registration/teardown — performs ZERO heap allocations once the
// registries are warm. Registration appends to the ledger's task arena; at a
// stable population the arena compacts in place instead of growing, so
// register/free churn cycles through it without allocating. This binary overrides global
// operator new/delete with counting wrappers and asserts exactly that: warm
// the structures past their high-water mark, arm the counter, drive tens of
// thousands of events, and require the allocation count to still be zero.
//
// The oracle lives in its own test binary because replacing global
// operator new affects the whole program; keeping it isolated means the main
// suites run against the stock allocator.
//
// The once-per-window decision Tick is not allocation-free: the estimator
// returns its output by value, so each window builds that output's vectors
// and Select reserves its skyline window. It is bounded instead — a small
// constant number of allocations per Tick, independent of the live-task
// count, pinned by the TickAllocations test below.
//
// Deliberately NOT inside any armed region: first-touch growth (new tasks or
// resources beyond the high-water mark, including growth of the task arena)
// and resource registration.

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/atropos/ledger.h"
#include "src/atropos/runtime.h"
#include "src/atropos/window.h"
#include "src/common/clock.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_allocations{0};

void* CountingAlloc(size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountingAlloc(size); }
void* operator new[](size_t size) { return CountingAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace atropos {
namespace {

class AllocArmed {
 public:
  AllocArmed() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocArmed() { g_armed.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
};

TEST(AllocOracleTest, LedgerSteadyStateIsAllocationFree) {
  ManualClock clock;
  AtroposConfig config;
  AtroposStats stats;
  TaskLedger ledger(&clock, config, &stats);

  const ResourceId lock = ledger.RegisterResource("lock", ResourceClass::kLock);
  const ResourceId pool = ledger.RegisterResource("pool", ResourceClass::kMemory);

  // Warm past the high-water mark: more concurrent tasks than the steady
  // phase will ever hold, every (task, resource) cell touched, both key
  // indexes forced through their growth doublings.
  constexpr uint64_t kWarmTasks = 64;
  for (uint64_t k = 0; k < kWarmTasks; k++) {
    ledger.RegisterTask(1000 + k, false, true);
    ledger.RecordGet(1000 + k, lock, 1);
    ledger.RecordGet(1000 + k, pool, 16);
    ledger.RecordFree(1000 + k, lock, 1);
  }
  for (uint64_t k = 0; k < kWarmTasks; k++) {
    ledger.FreeTask(1000 + k);
  }

  AllocArmed armed;
  // 10k+ steady-state events over recycled slots: registration, the full
  // tracing surface, window rolls, and teardown.
  for (int round = 0; round < 1000; round++) {
    const uint64_t a = 2000 + static_cast<uint64_t>(round % 32);
    const uint64_t b = 3000 + static_cast<uint64_t>(round % 32);
    ledger.RegisterTask(a, false, true);
    ledger.RegisterTask(b, false, true);
    ledger.RecordGet(a, lock, 1);
    ledger.RecordWaitBegin(b, lock);
    clock.Advance(100);
    ledger.RecordWaitEnd(b, lock);
    ledger.RecordGet(b, pool, 8);
    ledger.RecordUsage(a, pool, 5, 20);
    ledger.RecordProgress(a, static_cast<uint64_t>(round), 1000);
    ledger.RecordFree(a, lock, 1);
    ledger.RecordFree(b, pool, 8);
    if (round % 16 == 15) {
      ledger.RollWindow(clock.NowMicros());
    }
    ledger.FreeTask(a);
    ledger.FreeTask(b);
  }
  EXPECT_EQ(armed.count(), 0u)
      << "ledger hot path allocated after warm-up";
}

TEST(AllocOracleTest, WindowAggregatorSteadyStateIsAllocationFree) {
  ManualClock clock;
  AtroposConfig config;
  AtroposStats stats;
  WindowAggregator window(&clock, config, &stats);

  // Warm the in-flight slot pool and the epoch histogram's (fixed) buckets.
  for (uint64_t k = 0; k < 64; k++) {
    window.OnRequestStart(100 + k, 0);
  }
  for (uint64_t k = 0; k < 64; k++) {
    clock.Advance(50);
    window.OnRequestEnd(100 + k, 500, 0);
  }
  window.Roll(clock.NowMicros());

  AllocArmed armed;
  for (int round = 0; round < 2000; round++) {
    const uint64_t key = 500 + static_cast<uint64_t>(round % 48);
    window.OnRequestStart(key, 0);
    clock.Advance(25);
    window.OnRequestEnd(key, 1000 + static_cast<TimeMicros>(round % 997), 0);
    if (round % 64 == 63) {
      (void)window.P99();
      (void)window.CountOverdue(clock.NowMicros(), 10000);
      window.Roll(clock.NowMicros());  // epoch bump, no memset, no alloc
    }
  }
  EXPECT_EQ(armed.count(), 0u)
      << "window aggregator hot path allocated after warm-up";
}

// Slot recycling keeps the ledger allocation-free even when the *set* of live
// keys churns completely — distinct keys forever, bounded concurrency.
TEST(AllocOracleTest, KeyChurnOverRecycledSlotsIsAllocationFree) {
  ManualClock clock;
  AtroposConfig config;
  AtroposStats stats;
  TaskLedger ledger(&clock, config, &stats);
  const ResourceId lock = ledger.RegisterResource("lock", ResourceClass::kLock);

  // Warm: the key index must have grown past the live-set size it will see.
  for (uint64_t k = 0; k < 128; k++) {
    ledger.RegisterTask(k, false, true);
  }
  for (uint64_t k = 0; k < 128; k++) {
    ledger.FreeTask(k);
  }

  AllocArmed armed;
  uint64_t next_key = 1000000;
  for (int round = 0; round < 5000; round++) {
    const uint64_t key = next_key++;  // never-repeating keys
    ledger.RegisterTask(key, false, true);
    ledger.RecordGet(key, lock, 1);
    ledger.RecordFree(key, lock, 1);
    ledger.FreeTask(key);
  }
  EXPECT_EQ(armed.count(), 0u)
      << "key churn over recycled slots allocated after warm-up";
}

// The arena at scale: over a thousand live tasks, with churn that retires the
// oldest task and registers a new one, so the arena fills and compacts in
// place again and again while the counter is armed.
TEST(AllocOracleTest, ArenaCompactionAtScaleIsAllocationFree) {
  ManualClock clock;
  AtroposConfig config;
  AtroposStats stats;
  TaskLedger ledger(&clock, config, &stats);
  const ResourceId lock = ledger.RegisterResource("lock", ResourceClass::kLock);
  const ResourceId pool = ledger.RegisterResource("pool", ResourceClass::kMemory);

  constexpr uint64_t kLive = 1200;
  uint64_t oldest = 0;
  uint64_t next_key = 0;
  auto churn = [&] {
    ledger.FreeTask(oldest++);
    const uint64_t key = next_key++;
    ledger.RegisterTask(key, false, true);
    ledger.RecordGet(key, pool, 4);
    ledger.RecordWaitBegin(key, lock);
    ledger.RecordProgress(key, 1, 2);
  };
  for (uint64_t k = 0; k < kLive; k++) {
    ledger.RegisterTask(next_key++, false, true);
  }
  // Warm: churn until the arena has grown to its steady capacity.
  for (int i = 0; i < 20000; i++) {
    churn();
  }

  int compactions = 0;
  AllocArmed armed;
  for (int i = 0; i < 40000; i++) {
    const uint32_t slots_before = ledger.slot_count();
    churn();
    if (ledger.slot_count() <= slots_before) {
      compactions++;
    }
    if (i % 100 == 99) {
      ledger.RollWindow(clock.NowMicros());
    }
  }
  EXPECT_EQ(armed.count(), 0u) << "arena churn allocated after warm-up";
  EXPECT_GE(compactions, 10) << "the armed churn must compact the arena repeatedly";
  EXPECT_EQ(ledger.live_task_count(), kLive);
}

// Heap allocations across `ticks` warm Ticks of a runtime holding `live`
// tasks under a sustained lock overload, with tracing off. Every tenth task
// holds the lock and reports progress; the rest wait on it. The application
// ignores cancels and the pacing gate is open, so every Tick runs the whole
// decision path: detect, estimate all `live` rows, Select, dispatch.
uint64_t TickAllocations(uint64_t live, int ticks) {
  ManualClock clock(0);
  AtroposConfig config;
  config.window = Millis(100);
  config.baseline_p99 = 1000;
  config.contention_threshold = 0.10;
  config.min_cancel_interval = 0;
  config.max_cancels_per_task = 1 << 30;
  AtroposRuntime runtime(&clock, config);
  runtime.SetCancelAction([](uint64_t) {});
  const ResourceId lock = runtime.RegisterResource("lock", ResourceClass::kLock);
  for (uint64_t k = 1; k <= live; k++) {
    runtime.OnTaskRegistered(k, false);
    if (k % 10 == 0) {
      runtime.OnGet(k, lock, 1);
      runtime.OnProgress(k, k % 9 + 1, 10);
    } else {
      runtime.OnWaitBegin(k, lock);
    }
  }
  auto overloaded_window = [&] {
    for (int i = 0; i < 20; i++) {
      runtime.OnRequestEnd(live + 1, /*latency=*/50000, 0, 0);
    }
    clock.Advance(Millis(100));
    runtime.Tick();
  };
  for (int w = 0; w < 8; w++) {
    overloaded_window();
  }
  const uint64_t cancels_before = runtime.stats().cancels_issued;
  AllocArmed armed;
  for (int w = 0; w < ticks; w++) {
    overloaded_window();
  }
  const uint64_t allocations = armed.count();
  EXPECT_EQ(runtime.stats().cancels_issued - cancels_before, static_cast<uint64_t>(ticks))
      << "every measured Tick must reach Select and dispatch";
  return allocations;
}

TEST(AllocOracleTest, TickAllocationsAreIndependentOfLiveTaskCount) {
  constexpr int kTicks = 10;
  const uint64_t small = TickAllocations(100, kTicks);
  const uint64_t large = TickAllocations(5000, kTicks);
  EXPECT_EQ(small, large) << "per-Tick allocations grow with the live-task count";
  // The estimator output's vectors (per-resource deltas and metrics, the
  // objectives, the candidate list and its two matrices) plus Select's
  // skyline window.
  EXPECT_LE(small, static_cast<uint64_t>(kTicks) * 7) << "allocations per Tick grew";
}

}  // namespace
}  // namespace atropos
