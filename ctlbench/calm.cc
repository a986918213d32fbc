// calm: no overload, high event rate, few live tasks.
//
// nproc-1 producer threads run open loop at a fixed rate and replay, for each
// request, the event sequence the live server emits for a LiveMiniKv point op
// (task register, request start, queue wait pair, worker hold, bracketed lock
// wait, lock hold, progress, request end, task free) through the capi hooks
// and ConcurrentFrontend producer methods. The main thread is the drainer: it
// ticks the frontend once per window. Hooks and intake do almost all the work;
// the decision stages see only a handful of live tasks.

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "src/atropos/capi.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/common/rng.h"
#include "src/obs/flight_recorder.h"
#include "workloads.h"

namespace ctlbench {
namespace {

using atropos::CApiResourceType;
using Steady = std::chrono::steady_clock;

constexpr double kRequestsPerSecond = 20000.0;  // per producer
constexpr atropos::TimeMicros kWindow = atropos::Millis(10);
constexpr uint64_t kEventsPerRequest = 13;
constexpr int kSetUps = 51;  // each well under a millisecond
// Per-producer ring: about half a second of one producer's events, so a
// drainer descheduled by the host for tens of milliseconds drops nothing.
constexpr size_t kRingCapacity = 1 << 17;

enum Hook {
  kCreateCancel,
  kFreeCancel,
  kGetResource,
  kFreeResource,
  kSlowPair,
  kReportProgress,
  kRequestStart,
  kRequestEnd,
  kWaitPair,
  kHookCount,
};

struct Cost {
  uint64_t ns = 0;
  uint64_t calls = 0;
};

struct ProducerResult {
  std::vector<double> hook_ns;  // one interval per request
  std::vector<double> late_us;  // start minus due time
  uint64_t events = 0;
  std::array<Cost, kHookCount> costs{};
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Steady::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t due) {
  for (int64_t now = NowNs(); now < due; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
}

// Times one call into `cost` when traced; calls it directly otherwise.
template <typename F>
void Hooked(bool traced, Cost* cost, F&& call) {
  if (!traced) {
    call();
    return;
  }
  const int64_t t0 = NowNs();
  call();
  cost->ns += static_cast<uint64_t>(NowNs() - t0);
  cost->calls++;
}

void Produce(atropos::ConcurrentFrontend* fe, atropos::ResourceId queue, uint64_t key_base,
             int64_t first_due, int64_t period_ns, int64_t end, bool traced, size_t cpu,
             size_t cpus, ProducerResult* out) {
  auto& c = out->costs;
  PinToCpu(cpu, cpus);
  for (uint64_t i = 0;; i++) {
    const int64_t due = first_due + static_cast<int64_t>(i) * period_ns;
    if (due >= end) {
      break;
    }
    SleepUntilNs(due);
    const int64_t start = NowNs();
    const uint64_t key = key_base + i;
    // The request's latency is its wait for the producer: no work runs
    // between the hooks, so the whole interval below is Atropos time.
    const uint64_t latency_us = static_cast<uint64_t>(start - due) / 1000;
    atropos::Cancellable* handle = nullptr;
    Hooked(traced, &c[kCreateCancel], [&] { handle = atropos::createCancel(key); });
    {
      atropos::CancellableScope scope(handle);
      Hooked(traced, &c[kRequestStart], [&] { fe->OnRequestStart(key, 0, 0); });
      Hooked(traced, &c[kWaitPair], [&] {
        fe->OnWaitBegin(key, queue);
        fe->OnWaitEnd(key, queue);
      });
      Hooked(traced, &c[kGetResource], [] { atropos::getResource(1, CApiResourceType::QUEUE); });
      Hooked(traced, &c[kSlowPair], [] {
        atropos::slowByResourceBegin(CApiResourceType::LOCK);
        atropos::slowByResourceEnd(CApiResourceType::LOCK);
      });
      Hooked(traced, &c[kGetResource], [] { atropos::getResource(1, CApiResourceType::LOCK); });
      Hooked(traced, &c[kFreeResource], [] { atropos::freeResource(1, CApiResourceType::LOCK); });
      Hooked(traced, &c[kReportProgress], [] { atropos::reportProgress(1, 1); });
      Hooked(traced, &c[kFreeResource], [] { atropos::freeResource(1, CApiResourceType::QUEUE); });
      Hooked(traced, &c[kRequestEnd], [&] { fe->OnRequestEnd(key, latency_us, 0, 0); });
    }
    Hooked(traced, &c[kFreeCancel], [&] { atropos::freeCancel(handle); });
    out->hook_ns.push_back(static_cast<double>(NowNs() - start));
    out->late_us.push_back(static_cast<double>(start - due) / 1000.0);
    out->events += kEventsPerRequest;
  }
}

double PerCall(const std::vector<ProducerResult>& results, Hook hook) {
  Cost total;
  for (const ProducerResult& r : results) {
    total.ns += r.costs[hook].ns;
    total.calls += r.costs[hook].calls;
  }
  return total.calls == 0 ? 0.0 : static_cast<double>(total.ns) / static_cast<double>(total.calls);
}

// Everything a pass sets up before its first timed operation: the frontend
// installed as the capi target, its flight recorder, and the inputs made
// from the seed.
struct CalmState {
  CalmState(uint64_t seed, double seconds)
      : producers(std::max(2u, std::thread::hardware_concurrency()) - 1),
        fe(&clock, Config(), Options()),
        period_ns(static_cast<int64_t>(1e9 / kRequestsPerSecond)),
        expected(static_cast<size_t>(kRequestsPerSecond * seconds) + 16),
        results(producers),
        key_base(producers),
        phase(producers) {
    fe.runtime().SetRecorder(&recorder);
    atropos::InstallGlobalFrontend(&fe);
    queue = atropos::CApiDefaultResource(CApiResourceType::QUEUE);
    // Inputs from the seed: each producer's key space. Phases are spread
    // evenly over one period so producers never wake in lockstep.
    atropos::Rng rng(seed);
    for (size_t p = 0; p < producers; p++) {
      key_base[p] = (static_cast<uint64_t>(p + 1) << 48) | (rng.NextUint64() & 0xffffffffull) << 8;
      phase[p] = period_ns * static_cast<int64_t>(p) / static_cast<int64_t>(producers);
      results[p].hook_ns.reserve(expected);
      results[p].late_us.reserve(expected);
    }
    const size_t windows = static_cast<size_t>(seconds * 1e6 / static_cast<double>(kWindow)) + 16;
    tick_rate.reserve(windows);
    tick_us.reserve(windows);
  }
  ~CalmState() { atropos::InstallGlobalFrontend(nullptr); }
  CalmState(const CalmState&) = delete;
  CalmState& operator=(const CalmState&) = delete;

  static atropos::AtroposConfig Config() {
    atropos::AtroposConfig config;
    config.window = kWindow;
    // Pinned well above any producer lateness: calm never violates its SLO.
    config.baseline_p99 = atropos::Millis(50);
    return config;
  }
  static atropos::ConcurrentFrontend::Options Options() {
    atropos::ConcurrentFrontend::Options options;
    options.ring_capacity = kRingCapacity;
    return options;
  }

  const size_t producers;  // plus the drainer: nproc threads
  atropos::SteadyClock clock;
  atropos::ConcurrentFrontend fe;
  atropos::FlightRecorder recorder;
  atropos::ResourceId queue = 0;
  const int64_t period_ns;
  const size_t expected;  // requests per producer, with slack
  std::vector<ProducerResult> results;
  std::vector<uint64_t> key_base;
  std::vector<int64_t> phase;
  std::vector<double> tick_rate;  // events applied per second of Tick time
  std::vector<double> tick_us;
};

void CalmPass(const RunArgs& args, bool traced, double seconds, Report* report) {
  std::unique_ptr<CalmState> state;
  auto set_up = [&] {
    state.reset();
    const Steady::time_point t0 = Steady::now();
    state = std::make_unique<CalmState>(args.seed, seconds);
    return SecondsSince(t0);
  };
  if (traced) {
    set_up();
  } else {
    TimeSetUps(report, kSetUps, set_up);
  }
  CalmState& st = *state;
  atropos::ConcurrentFrontend& fe = st.fe;
  const size_t producers = st.producers;
  std::vector<ProducerResult>& results = st.results;

  const int64_t start = NowNs() + 1'000'000;  // producers start together
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; p++) {
    threads.emplace_back(Produce, &fe, st.queue, st.key_base[p], start + st.phase[p],
                         st.period_ns, end, traced, p + 1, producers + 1, &results[p]);
  }
  PinToCpu(0, producers + 1);

  // Drainer: one Tick per window, timed from window close to return.
  double tick_total_us = 0.0;
  uint64_t drained_timed = 0;
  uint64_t max_depth = 0;
  double live_tasks_sum = 0.0;
  const int64_t window_ns = static_cast<int64_t>(kWindow) * 1000;
  for (int64_t next = start + window_ns; next <= end; next += window_ns) {
    SleepUntilNs(next);
    const int64_t t0 = NowNs();
    fe.Tick();
    const double us = static_cast<double>(NowNs() - t0) / 1000.0;
    st.tick_us.push_back(us);
    tick_total_us += us;
    drained_timed += fe.intake_stats().drained_last_tick;
    st.tick_rate.push_back(static_cast<double>(fe.intake_stats().drained_last_tick) / (us / 1e6));
    max_depth = std::max(max_depth, fe.intake_stats().max_ring_depth);
    live_tasks_sum += static_cast<double>(fe.runtime().live_task_count());
  }
  for (std::thread& t : threads) {
    t.join();
  }
  fe.Tick();  // drain what the producers left in their rings

  uint64_t attempted = 0;
  std::vector<double> hook_ns;
  std::vector<double> late_us;
  hook_ns.reserve(st.expected * producers);
  late_us.reserve(st.expected * producers);
  for (const ProducerResult& r : results) {
    attempted += r.events;
    hook_ns.insert(hook_ns.end(), r.hook_ns.begin(), r.hook_ns.end());
    late_us.insert(late_us.end(), r.late_us.begin(), r.late_us.end());
  }
  const atropos::ConcurrentFrontend::IntakeStats& intake = fe.intake_stats();
  const atropos::AtroposStats& stats = fe.runtime().stats();

  // ---- Correctness.
  for (const atropos::ResourceAudit& audit : fe.runtime().AuditAccounting()) {
    report->Check(audit.Balanced(), "calm: accounting balanced for " + audit.name);
  }
  report->Check(intake.drained_total + intake.dropped_total == attempted,
                "calm: drained + dropped == attempted events");
  // A dropped register or free leaves the ledger's view out of step, so the
  // live count is only checked when nothing was dropped.
  report->Check(intake.dropped_total > 0 || fe.runtime().live_task_count() == 0,
                "calm: every task freed after the drain");
  report->Count(attempted, intake.dropped_total);

  // ---- End-to-end.
  const Summary hook = Summarize(hook_ns);
  const Summary tick = Summarize(st.tick_us);
  const Summary late = Summarize(late_us);
  report->EndToEnd("latency_us", hook.p50 / 1000.0);
  report->EndToEnd("throughput_per_s", Median(st.tick_rate));
  report->EndToEnd("useful_frac",
                   static_cast<double>(intake.drained_total) / static_cast<double>(attempted));
  report->Timing("request_hook_ns", "ns", hook);
  report->Timing("tick_us", "us", tick);
  report->Info("control_cpu_frac", tick_total_us / (seconds * 1e6), "ratio");
  report->Info("events_dropped_frac",
               static_cast<double>(intake.dropped_total) / static_cast<double>(attempted), "ratio",
               OfTotal(intake.dropped_total, attempted));
  report->Timing("loadgen.late_us", "us", late);

  // ---- Per-layer (traced pass).
  report->Layer("capi.create_cancel_ns", PerCall(results, kCreateCancel));
  report->Layer("capi.free_cancel_ns", PerCall(results, kFreeCancel));
  report->Layer("capi.get_resource_ns", PerCall(results, kGetResource));
  report->Layer("capi.free_resource_ns", PerCall(results, kFreeResource));
  report->Layer("capi.slow_pair_ns", PerCall(results, kSlowPair));
  report->Layer("capi.report_progress_ns", PerCall(results, kReportProgress));
  report->Layer("frontend.request_start_ns", PerCall(results, kRequestStart));
  report->Layer("frontend.request_end_ns", PerCall(results, kRequestEnd));
  report->Layer("frontend.wait_pair_ns", PerCall(results, kWaitPair));
  report->Layer("frontend.tick_ns_per_event",
                drained_timed == 0 ? 0.0 : tick_total_us * 1000.0 / static_cast<double>(drained_timed));
  report->Layer("frontend.drained_per_tick",
                static_cast<double>(drained_timed) / static_cast<double>(st.tick_us.size()));
  report->Layer("frontend.max_ring_depth", static_cast<double>(max_depth));
  report->Layer("frontend.dropped", static_cast<double>(intake.dropped_total));
  report->Layer("runtime.live_tasks", live_tasks_sum / static_cast<double>(st.tick_us.size()));
  report->Layer("detector.overload_windows", static_cast<double>(stats.suspected_overload_windows));
  report->Layer("dispatcher.cancels_issued", static_cast<double>(stats.cancels_issued));
  report->Layer("loadgen.late_us_p99", late.p99);
  report->Layer("obs.flight_events", static_cast<double>(st.recorder.total_recorded()));
}

}  // namespace

void PinToCpu(size_t i, size_t threads) {
  // The CPUs the process started with, captured before any thread is pinned
  // (threads inherit their creator's pinned mask).
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      CPU_ZERO(&set);
    }
    return set;
  }();
  if (static_cast<size_t>(CPU_COUNT(&allowed)) < threads) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed) && i-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

void RunCalm(const RunArgs& args, Report* report) {
  if (!args.trace) {
    report->BeginPass(false);
    CalmPass(args, false, args.seconds, report);
    return;
  }
  report->BeginPass(false);
  CalmPass(args, false, args.seconds / 2, report);
  report->BeginPass(true);
  CalmPass(args, true, args.seconds / 2, report);
}

}  // namespace ctlbench
