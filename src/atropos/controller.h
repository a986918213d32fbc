// Integration surface between applications and overload controllers.
//
// Applications emit one instrumentation stream (task lifecycle, resource
// tracing, request completions), encoded as TraceEvents; every controller —
// Atropos itself and the reimplemented baselines (Protego, pBox, DARC,
// PARTIES) — consumes that same stream through one entry point,
// OverloadController::Apply, which keeps the comparison fair (§5.1 "we
// carefully integrate each of these frameworks into our test applications").
//
// Controllers act back on the application through a ControlSurface the
// application implements: cancelling a task always goes through the
// application's own safe cancellation initiator (§3.6).

#ifndef SRC_ATROPOS_CONTROLLER_H_
#define SRC_ATROPOS_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "src/atropos/types.h"
#include "src/common/clock.h"

namespace atropos {

// Why a controller is terminating a task; determines how the frontend
// accounts for it (culprit cancellations may be re-executed; victim drops are
// returned to the client as errors).
enum class CancelReason {
  kCulprit = 0,     // Atropos-style: this task causes the overload
  kVictimDrop = 1,  // Protego-style: this request is dropped to shed load
};

// Actions a controller can take on the application. The application
// implements what it supports; defaults are no-ops.
class ControlSurface {
 public:
  virtual ~ControlSurface() = default;

  // Invokes the application's cancellation initiator for the task `key`.
  virtual void CancelTask(uint64_t key, CancelReason reason) = 0;

  // pBox-style penalty: slow the task's resource consumption by `factor`
  // (1.0 = unthrottled).
  virtual void ThrottleTask(uint64_t key, double factor) {}

  // DARC-style: reserve `workers` of the app's worker pool for requests of
  // `request_type`.
  virtual void SetTypeReservation(int request_type, int workers) {}

  // PARTIES-style: set the resource share of a client class.
  virtual void SetClientShare(int client_class, double share) {}
};

// One instrumentation call, flattened to a fixed-size POD. This is the one
// encoding of the event stream: the OverloadController hooks below build it,
// Apply() consumes it, and ConcurrentFrontend's per-thread rings store it as
// their slot type, so it must stay trivially copyable and allocation-free.
enum class TraceEventKind : uint8_t {
  kTaskRegistered = 0,
  kTaskFreed = 1,
  kGet = 2,
  kFree = 3,
  kWaitBegin = 4,
  kWaitEnd = 5,
  kRequestStart = 6,
  kRequestEnd = 7,
  kUsage = 8,
  kProgress = 9,
};

struct TraceEvent {
  TimeMicros time = 0;  // clock reading at enqueue (§3.2 attribution)
  uint64_t key = 0;
  uint64_t a = 0;  // amount | waited | done | latency, by kind
  uint64_t b = 0;  // used | total, by kind
  ResourceId resource = kInvalidResourceId;
  int32_t request_type = 0;
  int32_t client_class = 0;
  TraceEventKind kind = TraceEventKind::kGet;
  bool background = false;
  bool cancellable = true;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "ring slots must be memcpy-able");

// Event stream + periodic tick.
//
// The public On* hooks are encoders: each builds one TraceEvent and hands it
// to Apply(), the only virtual event entry point. The default Apply decodes
// the event by kind into the protected Handle* virtuals, which all default to
// no-ops so controllers implement only what they use. Forwarding controllers
// (ConcurrentFrontend, AuditController) override Apply itself and pass the
// event on whole; consuming controllers (AtroposRuntime and the baselines)
// override handlers.
class OverloadController {
 public:
  virtual ~OverloadController() = default;

  virtual std::string_view name() const = 0;

  // Declares an application resource before tracing against it. The base
  // implementation hands out ids and remembers the class so that simpler
  // controllers (the baselines) can classify events; AtroposRuntime overrides
  // with its full resource registry.
  virtual ResourceId RegisterResource(std::string name, ResourceClass cls) {
    ResourceId id = next_generic_resource_id_++;
    resource_classes_[id] = cls;
    return id;
  }

  // Task lifecycle (paper Fig 6a: createCancel / freeCancel). Only tasks
  // registered cancellable are ever considered by cancellation policies
  // (§3.5: tasks not marked as such are excluded from the algorithm).
  void OnTaskRegistered(uint64_t key, bool background, bool cancellable = true) {
    Apply({.key = key,
           .kind = TraceEventKind::kTaskRegistered,
           .background = background,
           .cancellable = cancellable});
  }
  void OnTaskFreed(uint64_t key) { Apply({.key = key, .kind = TraceEventKind::kTaskFreed}); }

  // Resource tracing (paper Fig 6b: getResource / freeResource /
  // slowByResource). Waits are bracketed so in-progress stalls are visible.
  void OnGet(uint64_t key, ResourceId resource, uint64_t amount) {
    Apply({.key = key, .a = amount, .resource = resource, .kind = TraceEventKind::kGet});
  }
  void OnFree(uint64_t key, ResourceId resource, uint64_t amount) {
    Apply({.key = key, .a = amount, .resource = resource, .kind = TraceEventKind::kFree});
  }
  void OnWaitBegin(uint64_t key, ResourceId resource) {
    Apply({.key = key, .resource = resource, .kind = TraceEventKind::kWaitBegin});
  }
  void OnWaitEnd(uint64_t key, ResourceId resource) {
    Apply({.key = key, .resource = resource, .kind = TraceEventKind::kWaitEnd});
  }

  // Request lifecycle, for end-to-end detection. `request_type` is an
  // app-defined class (e.g. point-select vs dump), `client_class` a tenant id.
  void OnRequestStart(uint64_t key, int request_type, int client_class) {
    Apply({.key = key,
           .request_type = request_type,
           .client_class = client_class,
           .kind = TraceEventKind::kRequestStart});
  }
  void OnRequestEnd(uint64_t key, TimeMicros latency, int request_type, int client_class) {
    Apply({.key = key,
           .a = latency,
           .request_type = request_type,
           .client_class = client_class,
           .kind = TraceEventKind::kRequestEnd});
  }

  // Completed wait+use report in one call, used by CPU/IO adapters that learn
  // both durations only after the fact.
  void OnUsage(uint64_t key, ResourceId resource, TimeMicros waited, TimeMicros used) {
    Apply({.key = key,
           .a = waited,
           .b = used,
           .resource = resource,
           .kind = TraceEventKind::kUsage});
  }

  // GetNext progress (§3.4).
  void OnProgress(uint64_t key, uint64_t done, uint64_t total) {
    Apply({.key = key, .a = done, .b = total, .kind = TraceEventKind::kProgress});
  }

  // The event entry point. The default decodes `ev` by kind into the Handle*
  // virtuals below; `ev.time` is ignored here (consumers read their own
  // clock, which ConcurrentFrontend's drain sets to the enqueue time).
  // atropos-lint: alloc-free
  virtual void Apply(const TraceEvent& ev) {
    switch (ev.kind) {
      case TraceEventKind::kTaskRegistered:
        HandleTaskRegistered(ev.key, ev.background, ev.cancellable);
        break;
      case TraceEventKind::kTaskFreed:
        HandleTaskFreed(ev.key);
        break;
      case TraceEventKind::kGet:
        HandleGet(ev.key, ev.resource, ev.a);
        break;
      case TraceEventKind::kFree:
        HandleFree(ev.key, ev.resource, ev.a);
        break;
      case TraceEventKind::kWaitBegin:
        HandleWaitBegin(ev.key, ev.resource);
        break;
      case TraceEventKind::kWaitEnd:
        HandleWaitEnd(ev.key, ev.resource);
        break;
      case TraceEventKind::kRequestStart:
        HandleRequestStart(ev.key, ev.request_type, ev.client_class);
        break;
      case TraceEventKind::kRequestEnd:
        HandleRequestEnd(ev.key, ev.a, ev.request_type, ev.client_class);
        break;
      case TraceEventKind::kUsage:
        HandleUsage(ev.key, ev.resource, ev.a, ev.b);
        break;
      case TraceEventKind::kProgress:
        HandleProgress(ev.key, ev.a, ev.b);
        break;
    }
  }

  // Admission decision for a new request (admission-control baselines).
  // Returning false sheds the request before it enters the server.
  virtual bool AdmitRequest(uint64_t key, int request_type, int client_class) { return true; }

  // Periodic control-loop entry point.
  virtual void Tick() {}

  // §4 re-execution gate: whether cancelled work may be retried now. The
  // default is permissive; Atropos requires sustained resource availability.
  virtual bool ReexecutionRecommended() const { return true; }

 protected:
  // ---- Handlers, one per TraceEventKind (called by the default Apply) -----
  virtual void HandleTaskRegistered(uint64_t key, bool background, bool cancellable) {}
  virtual void HandleTaskFreed(uint64_t key) {}
  virtual void HandleGet(uint64_t key, ResourceId resource, uint64_t amount) {}
  virtual void HandleFree(uint64_t key, ResourceId resource, uint64_t amount) {}
  virtual void HandleWaitBegin(uint64_t key, ResourceId resource) {}
  virtual void HandleWaitEnd(uint64_t key, ResourceId resource) {}
  virtual void HandleRequestStart(uint64_t key, int request_type, int client_class) {}
  virtual void HandleRequestEnd(uint64_t key, TimeMicros latency, int request_type,
                                int client_class) {}
  virtual void HandleProgress(uint64_t key, uint64_t done, uint64_t total) {}

  // After-the-fact observations of a completed wait / hold with known
  // durations. These are the lowering targets of HandleUsage: baselines that
  // measure durations themselves (wall-clocking the wait-begin/wait-end
  // bracket) override these to credit the reported magnitudes instead — the
  // default bracket lowering is zero-width, so a clock-based controller
  // would otherwise observe every after-the-fact wait as 0 µs.
  virtual void HandleWaitObserved(uint64_t key, ResourceId resource, TimeMicros waited) {
    HandleWaitBegin(key, resource);
    HandleWaitEnd(key, resource);
  }
  virtual void HandleHoldObserved(uint64_t key, ResourceId resource, TimeMicros used) {
    HandleGet(key, resource, 1);
    HandleFree(key, resource, 1);
  }

  // The default forwards the magnitudes to the observation handlers above so
  // simple controllers see the durations, not just the events;
  // AtroposRuntime overrides with precise duration accounting.
  virtual void HandleUsage(uint64_t key, ResourceId resource, TimeMicros waited,
                           TimeMicros used) {
    if (waited > 0) {
      HandleWaitObserved(key, resource, waited);
    }
    HandleHoldObserved(key, resource, used);
  }

  const std::unordered_map<ResourceId, ResourceClass>& resource_classes() const {
    return resource_classes_;
  }

 private:
  ResourceId next_generic_resource_id_ = 1;
  std::unordered_map<ResourceId, ResourceClass> resource_classes_;
};

// Controller that does nothing — the "Overload" (uncontrolled) baseline.
class NullController final : public OverloadController {
 public:
  std::string_view name() const override { return "none"; }
};

}  // namespace atropos

#endif  // SRC_ATROPOS_CONTROLLER_H_
