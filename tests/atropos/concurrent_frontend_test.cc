#include "src/atropos/concurrent_frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/testing/audit_controller.h"

namespace atropos {
namespace {

AtroposConfig TestConfig() {
  AtroposConfig cfg;
  cfg.window = Millis(100);
  cfg.baseline_p99 = 1000;  // 1ms baseline, SLO = 1.2ms
  cfg.slo_latency_increase = 0.20;
  cfg.contention_threshold = 0.10;
  cfg.min_cancel_interval = Millis(200);
  // Sampled mode on purpose: the determinism proof must cover the §3.2
  // quantizing TraceNow path, not just raw per-event stamps.
  cfg.timestamp_mode = TimestampMode::kSampled;
  cfg.timestamp_sample_interval = Millis(1);
  return cfg;
}

// One scripted instrumentation call: which producer thread emits it, when,
// and the flattened call itself.
struct ScriptOp {
  int producer = 0;
  TraceEvent ev;  // ev.time is the scripted emission time
};

ScriptOp Op(int producer, TimeMicros t, TraceEventKind kind, uint64_t key,
            ResourceId resource = kInvalidResourceId, uint64_t a = 0, uint64_t b = 0) {
  ScriptOp op;
  op.producer = producer;
  op.ev.time = t;
  op.ev.kind = kind;
  op.ev.key = key;
  op.ev.resource = resource;
  op.ev.a = a;
  op.ev.b = b;
  return op;
}

// The §5-style lock-convoy scenario spread over four producer threads:
// producer 0 registers and runs the culprit, producers 1-2 the waiting
// victims, producer 3 reports SLO-violating completions. Times are strictly
// increasing so global timestamp order is unambiguous.
std::vector<ScriptOp> ConvoyScript(ResourceId lock) {
  std::vector<ScriptOp> script;
  script.push_back(Op(0, 100, TraceEventKind::kTaskRegistered, 100));
  script.push_back(Op(1, 200, TraceEventKind::kTaskRegistered, 200));
  script.push_back(Op(2, 300, TraceEventKind::kTaskRegistered, 201));
  script.push_back(Op(0, 1100, TraceEventKind::kGet, 100, lock, 1));
  script.push_back(Op(0, 1150, TraceEventKind::kProgress, 100, kInvalidResourceId, 5, 100));
  script.push_back(Op(1, 1200, TraceEventKind::kRequestStart, 200));
  script.push_back(Op(1, 1300, TraceEventKind::kWaitBegin, 200, lock));
  script.push_back(Op(2, 1400, TraceEventKind::kWaitBegin, 201, lock));
  // Three windows of flat-throughput completions far past the SLO.
  TimeMicros t = 2000;
  for (int w = 0; w < 3; w++) {
    for (int i = 0; i < 20; i++) {
      script.push_back(Op(3, t, TraceEventKind::kRequestEnd, 9999, kInvalidResourceId, 50000));
      t += 137;  // off the sampling grid on purpose
    }
    t = (w + 1) * Millis(100) + 2000;
  }
  // A completed wait+use report riding along (the OnUsage path).
  script.push_back(Op(2, t, TraceEventKind::kUsage, 201, lock, 700, 1400));
  return script;
}

// The ledger books two runtimes ended in: stats, per-resource accounting,
// and every (key, resource) cell and task record the keys name.
void ExpectSameBooks(const AtroposRuntime& got, const AtroposRuntime& want,
                     const std::vector<uint64_t>& keys, const std::vector<ResourceId>& resources) {
  EXPECT_EQ(got.stats().trace_events, want.stats().trace_events);
  EXPECT_EQ(got.stats().ignored_events, want.stats().ignored_events);
  EXPECT_EQ(got.stats().cancels_issued, want.stats().cancels_issued);
  EXPECT_EQ(got.live_task_count(), want.live_task_count());
  const std::vector<ResourceAudit> got_audit = got.AuditAccounting();
  const std::vector<ResourceAudit> want_audit = want.AuditAccounting();
  ASSERT_EQ(got_audit.size(), want_audit.size());
  for (size_t r = 0; r < want_audit.size(); r++) {
    EXPECT_EQ(got_audit[r].id, want_audit[r].id);
    EXPECT_EQ(got_audit[r].acquired, want_audit[r].acquired);
    EXPECT_EQ(got_audit[r].released, want_audit[r].released);
    EXPECT_EQ(got_audit[r].leaked, want_audit[r].leaked);
    EXPECT_EQ(got_audit[r].overfreed, want_audit[r].overfreed);
    EXPECT_EQ(got_audit[r].live_held, want_audit[r].live_held);
  }
  for (uint64_t key : keys) {
    SCOPED_TRACE(key);
    const TaskRecord* got_t = got.FindTask(key);
    const TaskRecord* want_t = want.FindTask(key);
    ASSERT_EQ(got_t == nullptr, want_t == nullptr);
    if (want_t != nullptr) {
      EXPECT_EQ(got_t->created_at, want_t->created_at);
      EXPECT_EQ(got_t->cancellable, want_t->cancellable);
      EXPECT_EQ(got_t->has_progress, want_t->has_progress);
      EXPECT_EQ(got_t->progress_done, want_t->progress_done);
      EXPECT_EQ(got_t->progress_total, want_t->progress_total);
    }
    for (ResourceId resource : resources) {
      const TaskResourceUsage* got_u = got.FindUsage(key, resource);
      const TaskResourceUsage* want_u = want.FindUsage(key, resource);
      ASSERT_EQ(got_u == nullptr, want_u == nullptr);
      if (want_u == nullptr) {
        continue;
      }
      EXPECT_EQ(got_u->acquired, want_u->acquired);
      EXPECT_EQ(got_u->released, want_u->released);
      EXPECT_EQ(got_u->slow_events, want_u->slow_events);
      EXPECT_EQ(got_u->wait_time, want_u->wait_time);
      EXPECT_EQ(got_u->hold_time, want_u->hold_time);
      EXPECT_EQ(got_u->active_units, want_u->active_units);
      EXPECT_EQ(got_u->waiting, want_u->waiting);
    }
  }
}

// The tentpole property: draining N producers' rings produces decisions
// byte-for-byte identical (on the flight-recorder JSONL) to feeding the same
// events to a bare AtroposRuntime in timestamp order. Covers ring merge
// order, enqueue-time stamping, the ReplayClock, and the sampled-mode
// TraceNow replay.
TEST(ConcurrentFrontendDeterminism, DrainedDecisionsMatchDirectFeeding) {
  const int kProducers = 4;
  const TimeMicros kTick = Millis(100);
  const int kWindows = 4;

  // --- Pipeline run: scripted events through per-producer rings.
  ManualClock clock_a(0);
  ConcurrentFrontend frontend(&clock_a, TestConfig());
  ResourceId lock_a = frontend.RegisterResource("table_lock", ResourceClass::kLock);
  FlightRecorder rec_a;
  frontend.runtime().SetRecorder(&rec_a);
  std::vector<uint64_t> cancels_a;
  // atropos-lint: allow(cancel-action-safety)
  frontend.runtime().SetCancelAction([&](uint64_t key) { cancels_a.push_back(key); });
  std::vector<ConcurrentFrontend::Producer*> producers;
  for (int i = 0; i < kProducers; i++) {
    producers.push_back(frontend.RegisterProducer());
  }

  std::vector<ScriptOp> script = ConvoyScript(lock_a);
  size_t next = 0;
  for (int w = 1; w <= kWindows; w++) {
    const TimeMicros tick_at = w * kTick;
    while (next < script.size() && script[next].ev.time < tick_at) {
      clock_a.SetTime(script[next].ev.time);
      producers[script[next].producer]->Push(script[next].ev);
      next++;
    }
    clock_a.SetTime(tick_at);
    frontend.Tick();
  }
  ASSERT_EQ(next, script.size()) << "script must fit in the ticked horizon";

  // --- Reference run: same events, bare runtime, global timestamp order.
  ManualClock clock_b(0);
  AtroposRuntime runtime(&clock_b, TestConfig());
  ResourceId lock_b = runtime.RegisterResource("table_lock", ResourceClass::kLock);
  ASSERT_EQ(lock_a, lock_b);
  FlightRecorder rec_b;
  runtime.SetRecorder(&rec_b);
  std::vector<uint64_t> cancels_b;
  // atropos-lint: allow(cancel-action-safety)
  runtime.SetCancelAction([&](uint64_t key) { cancels_b.push_back(key); });

  std::vector<ScriptOp> sorted = script;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ScriptOp& a, const ScriptOp& b) { return a.ev.time < b.ev.time; });
  next = 0;
  for (int w = 1; w <= kWindows; w++) {
    const TimeMicros tick_at = w * kTick;
    while (next < sorted.size() && sorted[next].ev.time < tick_at) {
      clock_b.SetTime(sorted[next].ev.time);
      runtime.Apply(sorted[next].ev);
      next++;
    }
    clock_b.SetTime(tick_at);
    runtime.Tick();
  }

  // The scenario must actually decide something, or the comparison is hollow.
  ASSERT_EQ(cancels_b.size(), 1u);
  EXPECT_EQ(cancels_b[0], 100u);  // the lock holder, not a waiter
  EXPECT_EQ(cancels_a, cancels_b);

  EXPECT_EQ(EventsToJsonl(rec_a.Snapshot()), EventsToJsonl(rec_b.Snapshot()));

  const AtroposStats& sa = frontend.runtime().stats();
  const AtroposStats& sb = runtime.stats();
  EXPECT_EQ(sa.trace_events, sb.trace_events);
  EXPECT_EQ(sa.ignored_events, sb.ignored_events);
  EXPECT_EQ(sa.cancels_issued, sb.cancels_issued);
  EXPECT_EQ(sa.resource_overload_windows, sb.resource_overload_windows);

  EXPECT_EQ(frontend.intake_stats().drained_total, script.size());
  EXPECT_EQ(frontend.intake_stats().dropped_total, 0u);
}

// A forwarding controller passes the event stream on unchanged: the scripted
// convoy applied directly to a runtime and through an AuditController ends in
// the same books and the same decisions.
TEST(ForwarderEquivalence, DirectAndAuditEndInTheSameBooks) {
  const TimeMicros kTick = Millis(100);
  const int kWindows = 4;
  const std::vector<uint64_t> kKeys = {100, 200, 201, 9999};

  ManualClock clock_direct(0);
  AtroposRuntime direct(&clock_direct, TestConfig());
  ManualClock clock_audit(0);
  AtroposRuntime audited(&clock_audit, TestConfig());
  AuditController audit(audited);

  struct Path {
    ManualClock* clock;
    OverloadController* controller;
    AtroposRuntime* runtime;  // the books the path ends in
    int cancels = 0;
    uint64_t last_cancelled = 0;
    FlightRecorder recorder;
  };
  std::vector<Path> paths(2);
  paths[0].clock = &clock_direct;
  paths[0].controller = paths[0].runtime = &direct;
  paths[1].clock = &clock_audit;
  paths[1].controller = &audit;
  paths[1].runtime = &audited;
  ResourceId lock = kInvalidResourceId;
  for (Path& path : paths) {
    lock = path.controller->RegisterResource("table_lock", ResourceClass::kLock);
    path.runtime->SetRecorder(&path.recorder);
    Path* p = &path;
    path.runtime->SetCancelAction([p](uint64_t key) {
      p->cancels++;
      p->last_cancelled = key;
    });
  }

  const std::vector<ScriptOp> script = ConvoyScript(lock);
  for (Path& path : paths) {
    size_t next = 0;
    for (int w = 1; w <= kWindows; w++) {
      const TimeMicros tick_at = w * kTick;
      while (next < script.size() && script[next].ev.time < tick_at) {
        path.clock->SetTime(script[next].ev.time);
        path.controller->Apply(script[next].ev);
        next++;
      }
      path.clock->SetTime(tick_at);
      path.controller->Tick();
    }
    ASSERT_EQ(next, script.size());
  }

  const Path& ref = paths[0];
  // The comparison must cover a decision and non-empty books.
  ASSERT_EQ(ref.cancels, 1);
  ASSERT_EQ(ref.last_cancelled, 100u);
  ASSERT_NE(ref.runtime->FindUsage(100, lock), nullptr);
  ASSERT_NE(ref.runtime->FindUsage(201, lock), nullptr);
  for (size_t i = 1; i < paths.size(); i++) {
    const Path& path = paths[i];
    SCOPED_TRACE(path.controller->name());
    EXPECT_EQ(path.cancels, ref.cancels);
    EXPECT_EQ(path.last_cancelled, ref.last_cancelled);
    EXPECT_EQ(EventsToJsonl(path.recorder.Snapshot()), EventsToJsonl(ref.recorder.Snapshot()));
    ExpectSameBooks(*path.runtime, *ref.runtime, kKeys, {lock});
  }
  // The audit shadowed what it forwarded.
  EXPECT_EQ(audit.epochs().size(), 3u);
}

// ---- Drain-order differential test ----------------------------------------
//
// The drain replays the rings in place in (stamp, producer registration
// order, FIFO) order. The reference below is the definition of that order:
// the events one Tick drains, concatenated in registration order and
// stable-sorted by stamp, fed to a bare runtime. The scripts are seeded and
// order-sensitive: producers share a handful of keys and stamp most events at
// the same microsecond as their neighbours, progress reports are
// last-writer-wins with unique values, and registrations and frees race the
// events that need a live task, so any slip in the merge shows in the books
// compared after every Tick or in the flight JSONL compared at the end.

struct DrainCase {
  uint64_t seed = 1;
  int producers = 1;           // explicit RegisterProducer() handles
  size_t ring_capacity = 1 << 10;
  int windows = 4;
  int events_per_window = 400;
  bool exiting_thread = false;  // an auto-bound thread pushes, then exits
};

constexpr uint64_t kSharedKeys = 6;

TraceEvent RandomEvent(Rng& rng, ResourceId lock, ResourceId pool, uint64_t seq) {
  TraceEvent ev;
  ev.key = 1 + rng.NextBounded(kSharedKeys);
  ev.resource = rng.NextBernoulli(0.5) ? lock : pool;
  switch (rng.NextBounded(10)) {
    case 0:
      ev.kind = TraceEventKind::kTaskRegistered;
      ev.cancellable = rng.NextBernoulli(0.8);
      break;
    case 1:
      ev.kind = TraceEventKind::kTaskFreed;
      break;
    case 2:
      ev.kind = TraceEventKind::kGet;
      ev.a = 1 + rng.NextBounded(3);
      break;
    case 3:
      ev.kind = TraceEventKind::kFree;
      ev.a = 1 + rng.NextBounded(3);
      break;
    case 4:
      ev.kind = TraceEventKind::kWaitBegin;
      break;
    case 5:
      ev.kind = TraceEventKind::kWaitEnd;
      break;
    case 6:
      ev.kind = TraceEventKind::kRequestStart;
      break;
    case 7:
      ev.kind = TraceEventKind::kRequestEnd;
      ev.a = rng.NextBernoulli(0.5) ? 50000 : 300 + rng.NextBounded(500);
      break;
    case 8:
      ev.kind = TraceEventKind::kUsage;
      ev.a = rng.NextBounded(900);
      ev.b = rng.NextBounded(1800);
      break;
    default:
      ev.kind = TraceEventKind::kProgress;
      ev.a = seq;  // unique: the last progress report applied is visible
      ev.b = seq + 1000;
      break;
  }
  return ev;
}

void RunDrainDifferential(const DrainCase& dc, uint64_t* cancels) {
  SCOPED_TRACE("seed " + std::to_string(dc.seed) + ", " + std::to_string(dc.producers) +
               " producers, ring " + std::to_string(dc.ring_capacity));
  const TimeMicros kTick = Millis(100);
  Rng rng(dc.seed);

  ManualClock fe_clock(0);
  ConcurrentFrontend::Options options;
  options.ring_capacity = dc.ring_capacity;
  ConcurrentFrontend fe(&fe_clock, TestConfig(), options);
  ManualClock ref_clock(0);
  AtroposRuntime ref(&ref_clock, TestConfig());
  const ResourceId lock = fe.RegisterResource("lock", ResourceClass::kLock);
  const ResourceId pool = fe.RegisterResource("pool", ResourceClass::kMemory);
  ASSERT_EQ(ref.RegisterResource("lock", ResourceClass::kLock), lock);
  ASSERT_EQ(ref.RegisterResource("pool", ResourceClass::kMemory), pool);
  FlightRecorder fe_rec;
  FlightRecorder ref_rec;
  fe.runtime().SetRecorder(&fe_rec);
  ref.SetRecorder(&ref_rec);
  // Cancelled keys, folded in order: the actions only count and hash.
  uint64_t fe_cancels = 0;
  uint64_t ref_cancels = 0;
  fe.runtime().SetCancelAction([&](uint64_t key) { fe_cancels = fe_cancels * 1000003 + key; });
  ref.SetCancelAction([&](uint64_t key) { ref_cancels = ref_cancels * 1000003 + key; });

  std::vector<ConcurrentFrontend::Producer*> producers;
  for (int i = 0; i < dc.producers; i++) {
    producers.push_back(fe.RegisterProducer());
  }
  // Events each ring holds since the last Tick, by registration order; the
  // exiting thread's ring registers after every explicit one.
  std::vector<std::vector<TraceEvent>> pending(static_cast<size_t>(dc.producers) + 1);
  std::vector<uint64_t> shared_keys;
  for (uint64_t key = 1; key <= kSharedKeys; key++) {
    shared_keys.push_back(key);
  }
  uint64_t seq = 0;
  uint64_t pushed = 0;
  uint64_t drained = 0;

  for (int w = 0; w < dc.windows; w++) {
    const TimeMicros tick_at = static_cast<TimeMicros>(w + 1) * kTick;
    // A quarter of the producers sit the window out: their rings are empty.
    std::vector<int> active;
    for (int i = 0; i < dc.producers; i++) {
      if (dc.producers == 1 || !rng.NextBernoulli(0.25)) {
        active.push_back(i);
      }
    }
    for (int n = 0; n < dc.events_per_window && !active.empty(); n++) {
      if (rng.NextBernoulli(0.3)) {
        fe_clock.Advance(1 + rng.NextBounded(40));
      }
      const int p = active[rng.NextBounded(active.size())];
      const TraceEvent ev = RandomEvent(rng, lock, pool, ++seq);
      if (producers[static_cast<size_t>(p)]->Push(ev)) {
        TraceEvent stamped = ev;
        stamped.time = fe_clock.NowMicros();
        pending[static_cast<size_t>(p)].push_back(stamped);
        pushed++;
      }
      if (dc.exiting_thread && w == dc.windows / 2 && n == dc.events_per_window / 2) {
        // Auto-bound through the hooks, on the same microseconds as the
        // explicit rings; fewer events than the ring holds, so none drop.
        std::vector<TraceEvent>& mine = pending.back();
        std::thread worker([&] {
          const size_t m = std::min<size_t>(dc.ring_capacity, 24);
          for (size_t i = 0; i < m; i++) {
            if (i % 4 == 3) {
              fe_clock.Advance(1);
            }
            TraceEvent ev = RandomEvent(rng, lock, pool, ++seq);
            fe.Apply(ev);
            ev.time = fe_clock.NowMicros();
            mine.push_back(ev);
          }
        });
        worker.join();
        pushed += mine.size();
      }
    }
    ASSERT_LT(fe_clock.NowMicros(), tick_at);

    fe_clock.SetTime(tick_at);
    fe.Tick();

    std::vector<TraceEvent> merged;
    for (std::vector<TraceEvent>& ring : pending) {
      merged.insert(merged.end(), ring.begin(), ring.end());
      ring.clear();
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
    for (const TraceEvent& ev : merged) {
      ref_clock.SetTime(ev.time);
      ref.Apply(ev);
    }
    ref_clock.SetTime(tick_at);
    ref.Tick();
    drained += merged.size();

    SCOPED_TRACE("window " + std::to_string(w));
    ASSERT_EQ(fe.intake_stats().drained_last_tick, merged.size());
    ExpectSameBooks(fe.runtime(), ref, shared_keys, {lock, pool});
    if (::testing::Test::HasFailure()) {
      return;
    }
  }

  *cancels += ref.stats().cancels_issued;
  EXPECT_EQ(fe_cancels, ref_cancels);
  EXPECT_EQ(EventsToJsonl(fe_rec.Snapshot()), EventsToJsonl(ref_rec.Snapshot()));
  const ConcurrentFrontend::IntakeStats& intake = fe.intake_stats();
  EXPECT_EQ(intake.drained_total, drained);
  EXPECT_EQ(intake.drained_total, pushed);
  if (dc.exiting_thread) {
    EXPECT_EQ(intake.producers_retired, 1u);
    EXPECT_EQ(fe.live_producer_count(), static_cast<size_t>(dc.producers));
  }
}

TEST(DrainOrderDifferential, OneToSixteenExplicitProducers) {
  uint64_t cancels = 0;
  for (int producers = 1; producers <= 16; producers++) {
    for (uint64_t seed = 1; seed <= 3; seed++) {
      DrainCase dc;
      dc.seed = seed * 100 + static_cast<uint64_t>(producers);
      dc.producers = producers;
      RunDrainDifferential(dc, &cancels);
    }
  }
  EXPECT_GT(cancels, 0u);
}

TEST(DrainOrderDifferential, SmallWrappingRingsWithDrops) {
  uint64_t cancels = 0;
  for (size_t capacity : {8u, 16u, 64u}) {
    for (uint64_t seed = 1; seed <= 4; seed++) {
      DrainCase dc;
      dc.seed = seed * 7 + capacity;
      dc.producers = 2 + static_cast<int>(seed);
      dc.ring_capacity = capacity;
      dc.windows = 12;
      dc.events_per_window = 120;
      RunDrainDifferential(dc, &cancels);
    }
  }
  EXPECT_GT(cancels, 0u);
}

TEST(DrainOrderDifferential, AutoBoundThreadExitsMidRun) {
  uint64_t cancels = 0;
  for (uint64_t seed = 1; seed <= 4; seed++) {
    DrainCase dc;
    dc.seed = seed;
    dc.producers = static_cast<int>(seed) + 1;
    dc.ring_capacity = seed % 2 == 0 ? 16 : 1 << 10;
    dc.windows = 8;
    dc.exiting_thread = true;
    RunDrainDifferential(dc, &cancels);
  }
  EXPECT_GT(cancels, 0u);
}

// The slots a Tick drains go back to the producer by the end of that Tick: a
// ring filled to refusal accepts capacity-many pushes again afterwards.
TEST(ConcurrentFrontendTest, TickReleasesTheSlotsItDrained) {
  ManualClock clock(0);
  ConcurrentFrontend::Options opt;
  opt.ring_capacity = 16;
  ConcurrentFrontend frontend(&clock, TestConfig(), opt);
  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  const TraceEvent ev{.key = 1, .kind = TraceEventKind::kRequestStart};
  size_t accepted = 0;
  while (p->Push(ev)) {
    accepted++;
  }
  EXPECT_EQ(accepted, 16u);
  clock.SetTime(Millis(100));
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_last_tick, 16u);
  for (size_t i = 0; i < accepted; i++) {
    EXPECT_TRUE(p->Push(ev)) << "push " << i << " after the drain";
  }
  EXPECT_FALSE(p->Push(ev));
}

// Ring overflow is lossy-with-counter: a full ring drops the event, counts
// it, and the drain/gauge accounting reconciles drops against drains.
TEST(ConcurrentFrontendTest, RingOverflowDropsAreCounted) {
  ManualClock clock(0);
  ConcurrentFrontend::Options opt;
  opt.ring_capacity = 8;
  ConcurrentFrontend frontend(&clock, TestConfig(), opt);
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);
  MetricsRegistry metrics;
  frontend.BindMetrics(&metrics);

  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  p->Push({.key = 1, .kind = TraceEventKind::kTaskRegistered});
  for (int i = 0; i < 19; i++) {
    clock.Advance(10);
    p->Push({.key = 1, .a = 1, .resource = lock, .kind = TraceEventKind::kGet});
  }
  EXPECT_EQ(p->dropped(), 12u);  // 20 pushes into an 8-slot ring

  clock.SetTime(Millis(100));
  frontend.Tick();
  const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
  EXPECT_EQ(intake.drained_last_tick, 8u);
  EXPECT_EQ(intake.drained_total, 8u);
  EXPECT_EQ(intake.dropped_total, 12u);
  EXPECT_EQ(intake.max_ring_depth, 8u);
  EXPECT_EQ(intake.producers, 1u);

  MetricsRegistry::Snapshot snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.gauges.at("intake.ring_depth"), 8.0);
  EXPECT_EQ(snap.gauges.at("intake.drained_per_tick"), 8.0);
  EXPECT_EQ(snap.gauges.at("intake.dropped_events"), 12.0);
  EXPECT_EQ(snap.gauges.at("intake.producers"), 1.0);

  // The runtime saw exactly the drained prefix: the registration + 7 gets.
  EXPECT_EQ(frontend.runtime().stats().trace_events, 7u);
  EXPECT_EQ(frontend.runtime().live_task_count(), 1u);
}

// The OverloadController hooks bind each calling thread to its own ring on
// first use.
TEST(ConcurrentFrontendTest, HooksAutoRegisterCallingThread) {
  ManualClock clock(0);
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);
  frontend.OnTaskRegistered(7, false);
  frontend.OnGet(7, lock, 1);
  std::thread other([&] {
    frontend.OnTaskRegistered(8, false);
    frontend.OnGet(8, lock, 1);
  });
  other.join();
  clock.SetTime(Millis(100));
  frontend.Tick();
  // Both threads got their own ring; the exited one was drained in full and
  // then reclaimed, leaving only the calling thread's ring live.
  EXPECT_EQ(frontend.intake_stats().producers_seen, 2u);
  EXPECT_EQ(frontend.intake_stats().producers, 1u);
  EXPECT_EQ(frontend.intake_stats().drained_total, 4u);
  EXPECT_EQ(frontend.runtime().live_task_count(), 2u);
}

// Multi-producer stress with a concurrent drainer: real OS threads hammer
// the intake while Tick() drains. Run under the tsan preset this is the
// data-race proof; in any build it checks intake conservation (every push is
// either drained into the runtime or counted as dropped).
TEST(ConcurrentFrontendStress, ConcurrentProducersAndDrainerConserveEvents) {
  const int kThreads = 4;
  const int kEventsPerThread = 20000;
  SteadyClock clock;
  ConcurrentFrontend::Options opt;
  opt.ring_capacity = 1 << 10;  // small enough that overflow is plausible
  ConcurrentFrontend frontend(&clock, TestConfig(), opt);
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);

  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      frontend.Tick();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; t++) {
    producers.emplace_back([&, t] {
      const uint64_t key = 1000 + t;
      frontend.OnTaskRegistered(key, false);
      uint64_t mine = 1;
      for (int i = 0; i < kEventsPerThread; i += 4) {
        frontend.OnGet(key, lock, 1);
        frontend.OnWaitBegin(key, lock);
        frontend.OnWaitEnd(key, lock);
        frontend.OnFree(key, lock, 1);
        mine += 4;
      }
      frontend.OnTaskFreed(key);
      mine += 1;
      pushed.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (std::thread& p : producers) {
    p.join();
  }
  stop.store(true, std::memory_order_release);
  drainer.join();
  frontend.Tick();  // final drain of anything still buffered

  const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
  // Every auto-bound producer thread has exited and joined before the final
  // Tick, so its ring was retired and freed — but all of its events were
  // either drained or counted as dropped first (conservation below).
  EXPECT_EQ(intake.producers_seen, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(intake.producers_retired, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(intake.producers, 0u);
  EXPECT_EQ(frontend.live_producer_count(), 0u);
  EXPECT_EQ(intake.drained_total + intake.dropped_total, pushed.load());
  EXPECT_GT(intake.drained_total, 0u);
}

// Producer lifecycle regression (live mode): a worker thread that registers,
// enqueues, and exits *before any drain* must still have every queued event
// applied, and its ring must be reclaimed rather than left as a stale
// producers_ entry. Register → enqueue → exit → drain, under TSan when run
// with the tsan preset.
TEST(ConcurrentFrontendStress, ExitedProducerIsDrainedThenReclaimed) {
  SteadyClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);

  const int kEvents = 100;
  std::thread worker([&] {
    frontend.OnTaskRegistered(42, false);
    for (int i = 0; i < kEvents; i++) {
      frontend.OnGet(42, lock, 1);
      frontend.OnFree(42, lock, 1);
    }
  });
  worker.join();  // thread fully exited: TLS destructor has retired the ring
  EXPECT_EQ(frontend.live_producer_count(), 1u);

  // First drain after the exit applies everything the thread queued...
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_total,
            static_cast<uint64_t>(1 + 2 * kEvents));
  EXPECT_EQ(frontend.intake_stats().dropped_total, 0u);
  EXPECT_NE(frontend.runtime().FindTask(42), nullptr);
  // ...and reclaims the ring: no stale producers_ entry remains.
  EXPECT_EQ(frontend.live_producer_count(), 0u);
  EXPECT_EQ(frontend.intake_stats().producers_retired, 1u);
  EXPECT_EQ(frontend.intake_stats().producers_seen, 1u);

  // A second Tick is a no-op on the reclaimed ring.
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_last_tick, 0u);
  EXPECT_EQ(frontend.intake_stats().producers, 0u);
}

// An explicitly held RegisterProducer() handle must never be auto-retired —
// its owner may outlive many Tick() cycles (mt_ingest's reuse pattern).
TEST(ConcurrentFrontendStress, ExplicitProducerHandleSurvivesTicks) {
  SteadyClock clock;
  ConcurrentFrontend frontend(&clock, TestConfig());
  ResourceId lock = frontend.RegisterResource("l", ResourceClass::kLock);

  ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
  std::thread worker(
      [&] { p->Push({.key = 7, .a = 1, .resource = lock, .kind = TraceEventKind::kGet}); });
  worker.join();
  frontend.Tick();
  EXPECT_EQ(frontend.live_producer_count(), 1u);

  // The handle is still usable from another thread after the first exited.
  std::thread worker2(
      [&] { p->Push({.key = 7, .a = 1, .resource = lock, .kind = TraceEventKind::kFree}); });
  worker2.join();
  frontend.Tick();
  EXPECT_EQ(frontend.intake_stats().drained_total, 2u);
  EXPECT_EQ(frontend.intake_stats().producers_retired, 0u);
}

}  // namespace
}  // namespace atropos
