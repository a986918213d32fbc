// wide: 10k live tasks under a sustained resource overload.
//
// One thread drives a ManualClock and an AtroposRuntime with the default
// pipeline through a seeded synthetic trace. Every task is a request holding
// MEMORY pages; victims (99%) come and go, take short LOCK holds behind long
// LOCK waits, stall on memory now and then, and report progress; culprits
// (1%) hold the LOCK from birth, keep growing their memory and progress
// slowly. The benchmark's initiator frees each cancelled task and a fresh
// task takes its slot, so the ledger stays at 10k rows. There are no rings and
// no threads, and decisions depend only on the seed, so host time isolates the
// ledger and the decision layers: Estimate and Select walk all 10k rows every
// window.
//
// The trace is generated window by window outside the timed region; the
// timed region is the loop applying the window's events to the runtime, the
// Tick, and the teardown of cancelled tasks.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/atropos/runtime.h"
#include "src/common/rng.h"
#include "workloads.h"

namespace ctlbench {
namespace {

using atropos::TimeMicros;
using Steady = std::chrono::steady_clock;

constexpr uint32_t kTasks = 10000;
constexpr uint32_t kCulprits = kTasks / 100;
constexpr TimeMicros kWindow = atropos::Millis(50);
constexpr TimeMicros kStart = atropos::Seconds(10);  // room to back-date births
constexpr int kWarmupWindows = 20;
constexpr int kSetUps = 2;  // each a fifth of a second, in each of 16 processes
constexpr int kDigestWindows = 100;  // windows covered by the determinism digest
constexpr uint32_t kSlotBits = 16;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Steady::now().time_since_epoch())
      .count();
}

// ---- Timing decorators for the decision stages ------------------------------

struct StageTimes {
  uint64_t detect_ns = 0;
  uint64_t estimate_ns = 0;
  uint64_t select_ns = 0;
  uint64_t selects = 0;
  uint64_t candidates = 0;  // cancellable candidates offered to Select
  uint64_t pareto = 0;      // Pareto-set size of those candidates
  // Host time spent counting the Pareto set (a second, explained Select when
  // the runtime passes no explain). It runs inside Tick but is the
  // benchmark's own work, so it is taken out of the Tick time.
  uint64_t count_ns = 0;

  // The counters accumulated since `earlier`.
  StageTimes Since(const StageTimes& earlier) const {
    StageTimes d;
    d.detect_ns = detect_ns - earlier.detect_ns;
    d.estimate_ns = estimate_ns - earlier.estimate_ns;
    d.select_ns = select_ns - earlier.select_ns;
    d.selects = selects - earlier.selects;
    d.candidates = candidates - earlier.candidates;
    d.pareto = pareto - earlier.pareto;
    d.count_ns = count_ns - earlier.count_ns;
    return d;
  }
};

class TimedDetection final : public atropos::DetectionStage {
 public:
  TimedDetection(std::unique_ptr<atropos::DetectionStage> inner, StageTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  std::string_view name() const override { return inner_->name(); }
  atropos::OverloadDetector::Signal OnWindow(
      const atropos::OverloadDetector::WindowSample& sample) override {
    const int64_t t0 = NowNs();
    const atropos::OverloadDetector::Signal signal = inner_->OnWindow(sample);
    times_->detect_ns += static_cast<uint64_t>(NowNs() - t0);
    return signal;
  }
  bool calibrated() const override { return inner_->calibrated(); }
  TimeMicros slo_latency() const override { return inner_->slo_latency(); }

 private:
  std::unique_ptr<atropos::DetectionStage> inner_;
  StageTimes* times_;
};

class TimedEstimation final : public atropos::EstimationStage {
 public:
  TimedEstimation(std::unique_ptr<atropos::EstimationStage> inner, StageTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  std::string_view name() const override { return inner_->name(); }
  void SetCalibrating(bool calibrating) override { inner_->SetCalibrating(calibrating); }
  atropos::Estimator::Output Estimate(atropos::TaskLedger& ledger, TimeMicros exec_time,
                                      TimeMicros window_start, TimeMicros now) override {
    const int64_t t0 = NowNs();
    atropos::Estimator::Output out = inner_->Estimate(ledger, exec_time, window_start, now);
    times_->estimate_ns += static_cast<uint64_t>(NowNs() - t0);
    return out;
  }

 private:
  std::unique_ptr<atropos::EstimationStage> inner_;
  StageTimes* times_;
};

class TimedSelection final : public atropos::SelectionPolicy {
 public:
  TimedSelection(std::unique_ptr<atropos::SelectionPolicy> inner, StageTimes* times)
      : inner_(std::move(inner)), times_(times) {}
  std::string_view name() const override { return inner_->name(); }
  atropos::PolicyDecision Select(const atropos::PolicyInput& input,
                                 atropos::PolicyExplain* explain) override {
    const int64_t t0 = NowNs();
    const atropos::PolicyDecision decision = inner_->Select(input, explain);
    const int64_t t1 = NowNs();
    times_->select_ns += static_cast<uint64_t>(t1 - t0);
    // Counting happens outside the timed call: the shipped policies are pure
    // functions of their input, so a second explained call sees the same set.
    times_->selects++;
    for (const atropos::PolicyInput::Candidate& c : input.candidates) {
      times_->candidates += c.cancellable ? 1 : 0;
    }
    atropos::PolicyExplain scratch;
    atropos::PolicyExplain* counted = explain;
    if (counted == nullptr) {
      inner_->Select(input, &scratch);
      counted = &scratch;
    }
    for (const atropos::PolicyExplain::Entry& e : counted->entries) {
      times_->pareto += e.pareto ? 1 : 0;
    }
    times_->count_ns += static_cast<uint64_t>(NowNs() - t1);
    return decision;
  }

 private:
  std::unique_ptr<atropos::SelectionPolicy> inner_;
  StageTimes* times_;
};

atropos::DecisionPipeline TimedPipeline(const atropos::AtroposConfig& config,
                                        StageTimes* times) {
  atropos::DecisionPipeline p = atropos::DecisionPipeline::Default(config);
  p.detection = std::make_unique<TimedDetection>(std::move(p.detection), times);
  p.estimation = std::make_unique<TimedEstimation>(std::move(p.estimation), times);
  p.selection = std::make_unique<TimedSelection>(std::move(p.selection), times);
  return p;
}

// ---- The synthetic trace ----------------------------------------------------

enum class OpKind : uint8_t {
  kRegister,
  kRequestStart,
  kGet,
  kFree,
  kWaitBegin,
  kWaitEnd,
  kProgress,
  kRequestEnd,
  kFreed,
  kCount,
};

enum Res : uint8_t { kMem = 0, kLock = 1 };

struct Op {
  TimeMicros t = 0;
  uint64_t seq = 0;  // generation order, breaks time ties deterministically
  uint64_t key = 0;
  uint32_t slot = 0;
  OpKind kind = OpKind::kGet;
  uint8_t res = kMem;
  uint64_t a = 0;
  uint64_t b = 0;
};

struct Task {
  uint64_t key = 0;
  bool culprit = false;
  TimeMicros born = 0;
  TimeMicros end_at = 0;
  TimeMicros busy_until = 0;  // a victim runs one wait at a time
  uint64_t gen_pages = 0;     // memory pages held, as generated
  uint64_t done = 0;
  uint64_t total = 1;
  // State as applied to the runtime (ops before the current window's end),
  // which is what a cancellation has to tear down.
  uint64_t pages = 0;
  uint64_t locks = 0;
  bool waiting[2] = {false, false};
};

struct CostTable {
  uint64_t ns[static_cast<int>(OpKind::kCount)] = {};
  uint64_t calls[static_cast<int>(OpKind::kCount)] = {};
};

class WideTrace {
 public:
  WideTrace(uint64_t seed, bool traced)
      : rng_(seed),
        key_base_((seed & 0xffffull) << 44),
        runtime_(&clock_, Config(), traced ? TimedPipeline(Config(), &times_)
                                           : atropos::DecisionPipeline::Default(Config())),
        traced_(traced) {
    res_[kMem] = runtime_.RegisterResource("wide_memory", atropos::ResourceClass::kMemory);
    res_[kLock] = runtime_.RegisterResource("wide_lock", atropos::ResourceClass::kLock);
    runtime_.SetCancelAction([this](uint64_t key) { OnCancel(key); });
    tasks_.resize(kTasks);
    // Culprit slots: a seeded choice of 1% of the slots.
    std::vector<uint32_t> order(kTasks);
    for (uint32_t i = 0; i < kTasks; i++) {
      order[i] = i;
    }
    for (uint32_t i = kTasks - 1; i > 0; i--) {
      std::swap(order[i], order[rng_.NextBounded(i + 1)]);
    }
    for (uint32_t i = 0; i < kCulprits; i++) {
      tasks_[order[i]].culprit = true;
    }
    clock_.SetTime(kStart);
    for (uint32_t slot = 0; slot < kTasks; slot++) {
      Spawn(slot, kStart, /*initial=*/true);
    }
    const std::vector<Op> ops = TakeDue(kStart + 1);
    Account(ops);
    ApplyOps(ops);
  }

  // The runtime holds pointers to the clock, the stage timers and this object.
  WideTrace(const WideTrace&) = delete;
  WideTrace& operator=(const WideTrace&) = delete;

  static atropos::AtroposConfig Config() {
    atropos::AtroposConfig config;
    config.window = kWindow;
    config.baseline_p99 = atropos::Millis(20);  // pinned: overload is sustained
    // One cancel per window, so every Tick runs detect, estimate and select.
    config.min_cancel_interval = kWindow;
    return config;
  }

  // Runs one window: generate (untimed), apply + Tick + teardown (timed).
  struct WindowCost {
    int64_t apply_ns = 0;
    int64_t tick_ns = 0;
  };
  WindowCost Step() {
    const TimeMicros ws = window_start_;
    const TimeMicros we = ws + kWindow;
    Generate(ws, we);
    std::vector<Op> ops = TakeDue(we);
    Account(ops);
    WindowCost cost;
    const int64_t t0 = NowNs();
    ApplyOps(ops);
    clock_.SetTime(we);
    const uint64_t count_ns = times_.count_ns;
    const int64_t t1 = NowNs();
    runtime_.Tick();
    const int64_t t2 = NowNs();
    cost.tick_ns = t2 - t1 - static_cast<int64_t>(times_.count_ns - count_ns);
    // The initiator only queued its keys; tear the tasks down now, at the
    // Tick's time, as an application's cancellation path would.
    std::vector<Op> teardown = TearDown(we);
    const int64_t t3 = NowNs();
    ApplyOps(teardown);
    cost.apply_ns = (t1 - t0) + (NowNs() - t3);
    windows_++;
    if (first_overload_ == 0 && runtime_.stats().suspected_overload_windows > 0) {
      first_overload_ = we;
    }
    live_sum_ += static_cast<double>(runtime_.live_task_count());
    window_start_ = we;
    return cost;
  }

  uint64_t windows() const { return windows_; }
  uint64_t cancels() const { return cancels_; }
  uint64_t culprit_cancels() const { return culprit_cancels_; }
  uint64_t bad_cancels() const { return bad_cancels_; }
  uint64_t digest() const { return digest_; }
  TimeMicros first_overload() const { return first_overload_; }
  TimeMicros first_cancel() const { return first_cancel_; }
  double mean_live_tasks() const { return windows_ == 0 ? 0.0 : live_sum_ / windows_; }
  const StageTimes& times() const { return times_; }
  const CostTable& costs() const { return costs_; }
  const atropos::AtroposRuntime& runtime() const { return runtime_; }

 private:
  void Push(TimeMicros t, const Task& task, uint32_t slot, OpKind kind, uint8_t res = kMem,
            uint64_t a = 0, uint64_t b = 0) {
    Op op;
    op.t = t;
    op.seq = seq_++;
    op.key = task.key;
    op.slot = slot;
    op.kind = kind;
    op.res = res;
    op.a = a;
    op.b = b;
    pending_.push_back(op);
  }

  // A new task in `slot` at time t. Initial tasks are back-dated so the
  // population starts in steady state.
  void Spawn(uint32_t slot, TimeMicros t, bool initial) {
    Task& task = tasks_[slot];
    const bool culprit = task.culprit;
    task = Task{};
    task.culprit = culprit;
    task.key = key_base_ | (incarnation_++ << kSlotBits) | slot;
    const TimeMicros life =
        kWindow * (culprit ? 200 + rng_.NextBounded(200) : 20 + rng_.NextBounded(40));
    task.born = initial ? t - rng_.NextBounded(culprit ? 100 * kWindow : life) : t;
    task.end_at = std::max(task.born + life, t + kWindow);
    task.busy_until = t;
    task.total = culprit ? 1000 : 4 + rng_.NextBounded(8);
    task.gen_pages = culprit ? 4 * std::max<uint64_t>(1, (t - task.born) / kWindow)
                             : 1 + rng_.NextBounded(6);
    Push(t, task, slot, OpKind::kRegister);
    Push(t, task, slot, OpKind::kRequestStart);
    Push(t, task, slot, OpKind::kGet, kMem, task.gen_pages);
    if (culprit) {
      Push(t, task, slot, OpKind::kGet, kLock, 1);
    }
  }

  void Complete(uint32_t slot) {
    Task& task = tasks_[slot];
    const TimeMicros t = task.end_at;
    if (task.culprit) {
      Push(t, task, slot, OpKind::kFree, kLock, 1);
    }
    Push(t, task, slot, OpKind::kFree, kMem, task.gen_pages);
    Push(t, task, slot, OpKind::kRequestEnd, kMem, t - task.born);
    Push(t, task, slot, OpKind::kFreed);
    Spawn(slot, t, /*initial=*/false);
  }

  void Generate(TimeMicros ws, TimeMicros we) {
    for (uint32_t slot = 0; slot < kTasks; slot++) {
      Task& task = tasks_[slot];
      if (task.culprit) {
        const TimeMicros t = ws + rng_.NextBounded(kWindow);
        if (t < task.end_at) {
          task.gen_pages += 4;
          task.done = std::min(task.done + 1, task.total - 1);
          Push(t, task, slot, OpKind::kGet, kMem, 4);
          Push(t, task, slot, OpKind::kProgress, kMem, task.done, task.total);
        }
      } else {
        const TimeMicros t = ws + rng_.NextBounded(kWindow);
        const uint64_t roll = rng_.NextBounded(100);
        if (roll < 10 && t >= task.busy_until) {
          // Lock cycle: a long wait behind the holders, then a short hold.
          const TimeMicros wait = atropos::Millis(2) + rng_.NextBounded(atropos::Millis(8));
          const TimeMicros hold = 200 + rng_.NextBounded(800);
          if (t + wait + hold < task.end_at) {
            task.done = std::min(task.done + 1, task.total);
            Push(t, task, slot, OpKind::kWaitBegin, kLock);
            Push(t + wait, task, slot, OpKind::kWaitEnd, kLock);
            Push(t + wait, task, slot, OpKind::kGet, kLock, 1);
            Push(t + wait + hold, task, slot, OpKind::kFree, kLock, 1);
            Push(t + wait + hold, task, slot, OpKind::kProgress, kMem, task.done, task.total);
            task.busy_until = t + wait + hold;
          }
        } else if (roll < 15 && t >= task.busy_until) {
          // Memory stall: an eviction wait, then the page comes back.
          const TimeMicros stall = atropos::Millis(2) + rng_.NextBounded(atropos::Millis(6));
          if (t + stall < task.end_at) {
            task.gen_pages++;
            Push(t, task, slot, OpKind::kWaitBegin, kMem);
            Push(t + stall, task, slot, OpKind::kWaitEnd, kMem);
            Push(t + stall, task, slot, OpKind::kGet, kMem, 1);
            task.busy_until = t + stall;
          }
        }
      }
      if (task.end_at < we) {
        Complete(slot);
      }
    }
  }

  // Removes and returns the pending ops before `until`, in time order.
  std::vector<Op> TakeDue(TimeMicros until) {
    std::vector<Op> due;
    std::vector<Op> later;
    for (const Op& op : pending_) {
      (op.t < until ? due : later).push_back(op);
    }
    pending_.swap(later);
    std::sort(due.begin(), due.end(),
              [](const Op& a, const Op& b) { return a.t != b.t ? a.t < b.t : a.seq < b.seq; });
    return due;
  }

  // Mirrors the ops into the applied state a teardown must undo.
  void Account(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      Task& task = tasks_[op.slot];
      if (task.key != op.key) {
        continue;
      }
      switch (op.kind) {
        case OpKind::kGet:
          (op.res == kLock ? task.locks : task.pages) += op.a;
          break;
        case OpKind::kFree:
          (op.res == kLock ? task.locks : task.pages) -= op.a;
          break;
        case OpKind::kWaitBegin:
          task.waiting[op.res] = true;
          break;
        case OpKind::kWaitEnd:
          task.waiting[op.res] = false;
          break;
        default:
          break;
      }
    }
  }

  void Apply(const Op& op) {
    clock_.SetTime(op.t);
    const atropos::ResourceId rid = res_[op.res];
    switch (op.kind) {
      case OpKind::kRegister:
        runtime_.OnTaskRegistered(op.key, /*background=*/false);
        break;
      case OpKind::kRequestStart:
        runtime_.OnRequestStart(op.key, 0, 0);
        break;
      case OpKind::kGet:
        runtime_.OnGet(op.key, rid, op.a);
        break;
      case OpKind::kFree:
        runtime_.OnFree(op.key, rid, op.a);
        break;
      case OpKind::kWaitBegin:
        runtime_.OnWaitBegin(op.key, rid);
        break;
      case OpKind::kWaitEnd:
        runtime_.OnWaitEnd(op.key, rid);
        break;
      case OpKind::kProgress:
        runtime_.OnProgress(op.key, op.a, op.b);
        break;
      case OpKind::kRequestEnd:
        runtime_.OnRequestEnd(op.key, op.a, 0, 0);
        break;
      case OpKind::kFreed:
        runtime_.OnTaskFreed(op.key);
        break;
      case OpKind::kCount:
        break;
    }
  }

  void ApplyOps(const std::vector<Op>& ops) {
    if (!traced_) {
      for (const Op& op : ops) {
        Apply(op);
      }
      return;
    }
    for (const Op& op : ops) {
      const int64_t t0 = NowNs();
      Apply(op);
      const int k = static_cast<int>(op.kind);
      costs_.ns[k] += static_cast<uint64_t>(NowNs() - t0);
      costs_.calls[k]++;
    }
  }

  // The cancel initiator: runs inside Tick, so it only records the key.
  void OnCancel(uint64_t key) {
    const uint32_t slot = static_cast<uint32_t>(key & ((1u << kSlotBits) - 1));
    const bool live = slot < kTasks && tasks_[slot].key == key && runtime_.FindTask(key) != nullptr;
    cancels_++;
    if (!live) {
      bad_cancels_++;
      return;
    }
    culprit_cancels_ += tasks_[slot].culprit ? 1 : 0;
    if (first_cancel_ == 0) {
      first_cancel_ = clock_.NowMicros();
    }
    if (windows_ < static_cast<uint64_t>(kDigestWindows)) {
      for (int i = 0; i < 8; i++) {  // FNV-1a over the key's bytes
        digest_ = (digest_ ^ ((key >> (8 * i)) & 0xff)) * 0x100000001b3ull;
      }
    }
    cancelled_.push_back(slot);
  }

  std::vector<Op> TearDown(TimeMicros t) {
    std::vector<Op> ops;
    for (uint32_t slot : cancelled_) {
      Task& task = tasks_[slot];
      const uint64_t key = task.key;
      // Drop the task's not-yet-applied future.
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [key](const Op& op) { return op.key == key; }),
                     pending_.end());
      for (uint8_t r : {kMem, kLock}) {
        if (task.waiting[r]) {
          Push(t, task, slot, OpKind::kWaitEnd, r);
        }
      }
      if (task.locks > 0) {
        Push(t, task, slot, OpKind::kFree, kLock, task.locks);
      }
      if (task.pages > 0) {
        Push(t, task, slot, OpKind::kFree, kMem, task.pages);
      }
      Push(t, task, slot, OpKind::kRequestEnd, kMem, t - task.born);
      Push(t, task, slot, OpKind::kFreed);
      Spawn(slot, t, /*initial=*/false);
    }
    cancelled_.clear();
    ops = TakeDue(t + 1);
    Account(ops);
    return ops;
  }

  atropos::Rng rng_;
  const uint64_t key_base_;
  atropos::ManualClock clock_;
  StageTimes times_;
  CostTable costs_;
  atropos::AtroposRuntime runtime_;
  const bool traced_;
  atropos::ResourceId res_[2] = {};
  std::vector<Task> tasks_;
  std::vector<Op> pending_;
  std::vector<uint32_t> cancelled_;
  uint64_t seq_ = 0;
  uint64_t incarnation_ = 1;
  TimeMicros window_start_ = kStart;
  uint64_t windows_ = 0;
  uint64_t cancels_ = 0;
  uint64_t culprit_cancels_ = 0;
  uint64_t bad_cancels_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ull;
  TimeMicros first_overload_ = 0;
  TimeMicros first_cancel_ = 0;
  double live_sum_ = 0.0;
};

double PerCall(const CostTable& costs, std::initializer_list<OpKind> kinds, OpKind per) {
  uint64_t ns = 0;
  for (OpKind k : kinds) {
    ns += costs.ns[static_cast<int>(k)];
  }
  const uint64_t calls = costs.calls[static_cast<int>(per)];
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void WidePass(const RunArgs& args, bool traced, double seconds, Report* report) {
  // Set-up: the 10k-task population and the warm-up windows.
  std::unique_ptr<WideTrace> built;
  auto set_up = [&] {
    built.reset();
    const Steady::time_point t0 = Steady::now();
    built = std::make_unique<WideTrace>(args.seed, traced);
    for (int i = 0; i < kWarmupWindows; i++) {
      built->Step();
    }
    return SecondsSince(t0);
  };
  if (traced) {
    set_up();
  } else {
    TimeSetUps(report, kSetUps, set_up);
  }
  WideTrace& trace = *built;
  // The stage counters cover the timed windows only, as the Tick times do.
  const StageTimes warm = trace.times();

  std::vector<double> tick_us;
  std::vector<double> windows_per_s;
  double host_ns = 0.0;
  uint64_t timed_windows = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end || trace.windows() < static_cast<uint64_t>(kDigestWindows)) {
    const WideTrace::WindowCost cost = trace.Step();
    tick_us.push_back(static_cast<double>(cost.tick_ns) / 1000.0);
    const double ns = static_cast<double>(cost.apply_ns + cost.tick_ns);
    windows_per_s.push_back(1e9 / ns);
    host_ns += ns;
    timed_windows++;
  }

  // ---- Correctness: a second, untimed replay of the same seed must cancel
  // the same keys in the same order.
  WideTrace replay(args.seed, /*traced=*/false);
  while (replay.windows() < static_cast<uint64_t>(kDigestWindows)) {
    replay.Step();
  }
  report->Info("cancel_digest", static_cast<double>(trace.cancels()), "cancels",
               "(first " + std::to_string(kDigestWindows) + " windows: " + Hex(trace.digest()) +
                   ", replay " + Hex(replay.digest()) + ")");
  report->Check(trace.digest() == replay.digest(), "wide: same seed, same cancel digest");
  for (const atropos::ResourceAudit& audit : trace.runtime().AuditAccounting()) {
    report->Check(audit.Balanced(), "wide: accounting balanced for " + audit.name);
  }
  report->Check(trace.bad_cancels() == 0, "wide: every cancel names a live task");
  report->Check(trace.cancels() > 0, "wide: the overload is acted on");
  report->Count(trace.windows(), trace.bad_cancels());

  // ---- End-to-end.
  const Summary tick = Summarize(tick_us);  // sorts tick_us
  std::sort(windows_per_s.begin(), windows_per_s.end());
  const double precision = trace.cancels() == 0 ? 0.0
                                                : static_cast<double>(trace.culprit_cancels()) /
                                                      static_cast<double>(trace.cancels());
  // Every window does about the same work, and co-tenants of a shared host
  // only ever add time to it: to stretches of windows, and to whole
  // processes by up to 1.6x. The gates therefore read the fast end of the
  // per-window distribution (the p10 Tick time, the p90 window rate), and
  // run.py keeps the best of its processes. The median and tail are printed.
  report->EndToEnd("latency_us", SortedPercentile(tick_us, kP10));
  report->EndToEnd("throughput_per_s", SortedPercentile(windows_per_s, kP90));
  report->EndToEnd("useful_frac", precision);
  report->Timing("tick_us", "us", tick);
  report->Info("control_cpu_frac",
               host_ns / 1000.0 / static_cast<double>(timed_windows * kWindow), "ratio",
               "(host time in runtime calls over simulated time)");
  report->Info("cancel_precision", precision, "ratio",
               OfTotal(trace.culprit_cancels(), trace.cancels()));

  // ---- Per-layer (traced pass).
  const CostTable& c = trace.costs();
  report->Layer("runtime.on_get_ns", PerCall(c, {OpKind::kGet}, OpKind::kGet));
  report->Layer("runtime.on_free_ns", PerCall(c, {OpKind::kFree}, OpKind::kFree));
  report->Layer("runtime.wait_pair_ns",
                PerCall(c, {OpKind::kWaitBegin, OpKind::kWaitEnd}, OpKind::kWaitEnd));
  report->Layer("runtime.request_end_ns", PerCall(c, {OpKind::kRequestEnd}, OpKind::kRequestEnd));
  report->Layer("runtime.task_registered_ns",
                PerCall(c, {OpKind::kRegister}, OpKind::kRegister));
  report->Layer("runtime.task_freed_ns", PerCall(c, {OpKind::kFreed}, OpKind::kFreed));
  report->Layer("runtime.live_tasks", trace.mean_live_tasks());
  const StageTimes st = trace.times().Since(warm);
  const double windows = static_cast<double>(timed_windows);
  const double detect_us = static_cast<double>(st.detect_ns) / 1000.0 / windows;
  const double estimate_us = static_cast<double>(st.estimate_ns) / 1000.0 / windows;
  const double select_us = static_cast<double>(st.select_ns) / 1000.0 / windows;
  const double selects = static_cast<double>(std::max<uint64_t>(st.selects, 1));
  report->Layer("detector.on_window_ns", detect_us * 1000.0);
  report->Layer("estimator.estimate_us", estimate_us);
  report->Layer("policy.select_us", select_us);
  report->Layer("policy.candidates", static_cast<double>(st.candidates) / selects);
  report->Layer("policy.pareto_size", static_cast<double>(st.pareto) / selects);
  if (traced) {
    // Per timed Tick on both sides; Tick times exclude the Pareto count.
    double tick_total_us = 0.0;
    for (double us : tick_us) {
      tick_total_us += us;
    }
    const double tick_mean_us = tick_total_us / static_cast<double>(tick_us.size());
    const double other_us = tick_mean_us - detect_us - estimate_us - select_us;
    report->Layer("runtime.tick_other_us", other_us);
    report->Info("tick_budget_us", tick_mean_us, "us",
                 "(detect " + std::to_string(detect_us) + " + estimate " +
                     std::to_string(estimate_us) + " + select " + std::to_string(select_us) +
                     " + other " + std::to_string(other_us) + ")");
    report->Info("policy.select_us_per_call",
                 static_cast<double>(st.select_ns) / 1000.0 / selects, "us");
  }
  report->Layer("detector.onset_to_overload_ms",
                static_cast<double>(trace.first_overload() - kStart) / 1000.0);
  report->Layer("dispatcher.onset_to_first_cancel_ms",
                trace.first_cancel() == 0
                    ? 0.0
                    : static_cast<double>(trace.first_cancel() - kStart) / 1000.0);
  report->Layer("detector.overload_windows",
                static_cast<double>(trace.runtime().stats().suspected_overload_windows));
  report->Layer("dispatcher.cancels_issued",
                static_cast<double>(trace.runtime().stats().cancels_issued));
}

}  // namespace

void RunWide(const RunArgs& args, Report* report) {
  if (!args.trace) {
    report->BeginPass(false);
    WidePass(args, false, args.seconds, report);
    return;
  }
  report->BeginPass(false);
  WidePass(args, false, args.seconds / 2, report);
  report->BeginPass(true);
  WidePass(args, true, args.seconds / 2, report);
}

}  // namespace ctlbench
