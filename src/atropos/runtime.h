// The Atropos runtime façade (paper §3, Fig 5).
//
// The control loop is decomposed into four layers with narrow interfaces:
//
//   instrumentation stream                      Tick() once per window
//        │                                            │
//        ▼                                            ▼
//   TaskLedger ───────────── window books ──► DecisionPipeline
//   (registries, §3.1–3.2    WindowAggregator  (DetectionStage §3.3 →
//    usage accounting,       (latency/T_exec    EstimationStage §3.4 →
//    conservation ledger)     convoy signals)   SelectionPolicy §3.5)
//                                                     │ victim
//                                                     ▼
//                                             CancelDispatcher
//                                             (§3.6 safe initiator routing,
//                                              pacing, §4 fairness memo)
//
// AtroposRuntime wires the layers and remains an OverloadController, so
// applications integrate it exactly like the baseline controllers: feed the
// instrumentation stream and call Tick() once per window. The decision stages
// are pluggable: the Fig-13 ablation variants are alternative
// SelectionPolicy implementations injected at construction. One runtime
// serves one application (paper §5).

#ifndef SRC_ATROPOS_RUNTIME_H_
#define SRC_ATROPOS_RUNTIME_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/controller.h"
#include "src/atropos/detector.h"
#include "src/atropos/dispatcher.h"
#include "src/atropos/ledger.h"
#include "src/atropos/pipeline.h"
#include "src/atropos/stats.h"
#include "src/atropos/window.h"
#include "src/common/clock.h"
#include "src/obs/flight_recorder.h"

namespace atropos {

class AtroposRuntime final : public OverloadController {
 public:
  // Builds the paper's pipeline (Breakwater detection, gain estimation, the
  // selection policy named by config.policy).
  AtroposRuntime(Clock* clock, AtroposConfig config);
  // Injects explicit decision stages; `pipeline.complete()` must hold.
  AtroposRuntime(Clock* clock, AtroposConfig config, DecisionPipeline pipeline);

  std::string_view name() const override { return "atropos"; }

  // ---- Integration API (paper Fig 6a) -----------------------------------
  // The application's cancellation initiator; invoked with the task key.
  void SetCancelAction(std::function<void(uint64_t)> initiator) {
    dispatcher_.SetCancelAction(std::move(initiator));
  }
  void SetControlSurface(ControlSurface* surface) { dispatcher_.SetControlSurface(surface); }

  // ---- Resource registration ---------------------------------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls) override {
    return ledger_.RegisterResource(std::move(name), cls);
  }
  const ResourceRecord* FindResource(ResourceId id) const { return ledger_.FindResource(id); }

  // ---- Control loop --------------------------------------------------------
  // Closes the current window: detection, estimation, and (when confirmed)
  // cancellation of the selected culprit.
  void Tick() override;

  // ---- Fairness / re-execution (§4) ---------------------------------------
  bool ReexecutionRecommended() const override {
    return dispatcher_.ReexecutionRecommended();
  }

  // ---- Introspection -------------------------------------------------------
  const AtroposStats& stats() const { return stats_; }
  const AtroposConfig& config() const { return config_; }
  // The Breakwater detection stage's detector. Only valid when the detection
  // stage is a BreakwaterDetectionStage (true for every in-repo pipeline).
  const OverloadDetector& detector() const { return breakwater_->detector(); }
  // Normalized contention of the last closed window, by resource.
  const std::vector<ResourceMetrics>& last_metrics() const { return last_metrics_; }
  TimestampMode effective_timestamp_mode() const { return ledger_.effective_mode(); }
  const TaskRecord* FindTask(uint64_t key) const { return ledger_.FindTask(key); }
  // The (task, resource) usage cell; null when unknown or never touched.
  const TaskResourceUsage* FindUsage(uint64_t key, ResourceId resource) const {
    return ledger_.FindUsage(key, resource);
  }
  // Resource ids the task's tracing events have touched, ascending.
  std::vector<ResourceId> UsedResources(uint64_t key) const {
    return ledger_.UsedResources(key);
  }
  size_t live_task_count() const { return ledger_.live_task_count(); }
  // Live entries of the §4 cancelled-key memo (bounded by calm-window aging).
  size_t cancelled_key_count() const { return dispatcher_.cancelled_key_count(); }
  // Total windows ever closed without resource overload; the aging epoch the
  // memo entries are stamped with.
  uint64_t calm_windows_total() const { return dispatcher_.calm_windows_total(); }
  bool has_cancel_initiator() const { return dispatcher_.has_initiator(); }

  // Layer access for tests.
  const DecisionPipeline& pipeline() const { return pipeline_; }

  // ---- Accounting audit (fuzzer oracles) ----------------------------------
  using ResourceAudit = atropos::ResourceAudit;
  std::vector<ResourceAudit> AuditAccounting() const { return ledger_.AuditAccounting(); }

  // Test hook observing every issued cancellation.
  void SetCancelObserver(std::function<void(uint64_t key, double score)> observer) {
    dispatcher_.SetCancelObserver(std::move(observer));
  }

  // Attach a decision flight recorder (non-owning). Every window boundary,
  // overload transition, contention snapshot, policy verdict, and issued
  // cancellation is recorded; a null or disabled recorder costs one branch
  // per Tick().
  void SetRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  // ---- Instrumentation stream (OverloadController handlers) ---------------
  void HandleTaskRegistered(uint64_t key, bool background, bool cancellable) override;
  void HandleTaskFreed(uint64_t key) override;
  void HandleGet(uint64_t key, ResourceId resource, uint64_t amount) override {
    ledger_.RecordGet(key, resource, amount);
  }
  void HandleFree(uint64_t key, ResourceId resource, uint64_t amount) override {
    ledger_.RecordFree(key, resource, amount);
  }
  void HandleWaitBegin(uint64_t key, ResourceId resource) override {
    ledger_.RecordWaitBegin(key, resource);
  }
  void HandleWaitEnd(uint64_t key, ResourceId resource) override {
    ledger_.RecordWaitEnd(key, resource);
  }
  void HandleRequestStart(uint64_t key, int request_type, int client_class) override {
    window_.OnRequestStart(key, client_class);
  }
  void HandleRequestEnd(uint64_t key, TimeMicros latency, int request_type,
                        int client_class) override {
    window_.OnRequestEnd(key, latency, client_class);
  }
  void HandleProgress(uint64_t key, uint64_t done, uint64_t total) override {
    ledger_.RecordProgress(key, done, total);
  }
  // Completed wait+use report in one call; used by CPU/IO adapters that learn
  // both durations only after the fact.
  void HandleUsage(uint64_t key, ResourceId resource, TimeMicros waited,
                   TimeMicros used) override {
    ledger_.RecordUsage(key, resource, waited, used);
  }

  Clock* clock_;
  AtroposConfig config_;
  AtroposStats stats_;

  TaskLedger ledger_;
  WindowAggregator window_;
  DecisionPipeline pipeline_;
  // Non-owning view into pipeline_.detection when it is the Breakwater stage;
  // backs detector().
  const BreakwaterDetectionStage* breakwater_ = nullptr;
  CancelDispatcher dispatcher_;

  FlightRecorder* recorder_ = nullptr;
  bool recording_overload_ = false;  // tracks entered/exited transitions

  std::vector<ResourceMetrics> last_metrics_;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_RUNTIME_H_
