#include "src/atropos/runtime.h"

#include "src/common/logging.h"

namespace atropos {

std::string_view ResourceClassName(ResourceClass cls) {
  switch (cls) {
    case ResourceClass::kLock:
      return "lock";
    case ResourceClass::kMemory:
      return "memory";
    case ResourceClass::kQueue:
      return "queue";
    case ResourceClass::kCpu:
      return "cpu";
    case ResourceClass::kIo:
      return "io";
  }
  return "unknown";
}

AtroposRuntime::AtroposRuntime(Clock* clock, AtroposConfig config)
    : AtroposRuntime(clock, config, DecisionPipeline::Default(config)) {}

AtroposRuntime::AtroposRuntime(Clock* clock, AtroposConfig config, DecisionPipeline pipeline)
    : clock_(clock),
      config_(config),
      ledger_(clock, config, &stats_),
      window_(clock, config, &stats_),
      pipeline_(std::move(pipeline)),
      breakwater_(dynamic_cast<const BreakwaterDetectionStage*>(pipeline_.detection.get())),
      dispatcher_(config, &stats_) {}

void AtroposRuntime::OnTaskRegistered(uint64_t key, bool background, bool cancellable) {
  // §4: a re-executed (previously cancelled) task is non-cancellable so the
  // next overload targets a different culprit.
  if (dispatcher_.ConsumeCancelledKey(key)) {
    cancellable = false;
  }
  ledger_.RegisterTask(key, background, cancellable);
}

void AtroposRuntime::OnTaskFreed(uint64_t key) {
  ledger_.FreeTask(key);
  window_.DropKey(key);
}

void AtroposRuntime::Tick() {
  TimeMicros now = clock_->NowMicros();
  stats_.windows++;

  // ---- Detection (§3.3).
  OverloadDetector::WindowSample sample;
  sample.completions = window_.completions();
  sample.p99 = window_.P99();
  if (pipeline_.detection->calibrated()) {
    sample.overdue_actives = window_.CountOverdue(now, pipeline_.detection->slo_latency());
  }
  OverloadDetector::Signal signal = pipeline_.detection->OnWindow(sample);

  // ---- Flight recording. `tracing` gates all payload construction so a
  // detached or disabled recorder costs one branch per window.
  const bool tracing = recorder_ != nullptr && recorder_->enabled();
  if (tracing) {
    FlightEvent ev;
    ev.time = now;
    ev.kind = ObsEventKind::kWindowClosed;
    ev.value = static_cast<double>(sample.p99);
    ev.label = std::string(SignalName(signal));
    ev.completions = sample.completions;
    ev.overdue = sample.overdue_actives;
    recorder_->Record(std::move(ev));

    bool overloaded = signal == OverloadDetector::Signal::kSuspectedOverload;
    if (overloaded != recording_overload_) {
      FlightEvent edge;
      edge.time = now;
      edge.kind = overloaded ? ObsEventKind::kOverloadEntered : ObsEventKind::kOverloadExited;
      edge.label = std::string(SignalName(signal));
      recorder_->Record(std::move(edge));
      recording_overload_ = overloaded;
    }
  }

  // Aggressive per-event timestamps while an overload is suspected (§3.2).
  ledger_.SetEffectiveMode(signal == OverloadDetector::Signal::kSuspectedOverload
                               ? TimestampMode::kPerEvent
                               : config_.timestamp_mode);

  // ---- Estimation (§3.4). T_base is the window's productive execution
  // time: completed request time, floored at the window length. In-flight
  // blocked time is deliberately excluded — it shows up as the per-resource
  // delay D_r, not in the shared denominator.
  pipeline_.estimation->SetCalibrating(!pipeline_.detection->calibrated());
  Estimator::Output est = pipeline_.estimation->Estimate(
      ledger_, window_.ExecTimeFloored(now), ledger_.window_start(), now);
  last_metrics_ = est.all_resources;

  // §4 calm-window accounting and memo aging.
  dispatcher_.ObserveWindow(est.resource_overload);

  // ---- Cancellation decision (§3.5–3.6).
  switch (signal) {
    case OverloadDetector::Signal::kSuspectedOverload: {
      stats_.suspected_overload_windows++;
      if (!est.resource_overload) {
        // Regular overload: defer to whatever admission control is in place
        // (§3.3); Atropos itself takes no action.
        break;
      }
      stats_.resource_overload_windows++;
      if (tracing) {
        FlightEvent ev;
        ev.time = now;
        ev.kind = ObsEventKind::kContentionSnapshot;
        for (const ResourceMetrics& m : est.all_resources) {
          ObsResourceSample s;
          s.id = m.id;
          const ResourceRecord* res = ledger_.FindResource(m.id);
          if (res != nullptr) {
            s.name = res->name;
          }
          s.cls = std::string(ResourceClassName(m.cls));
          s.contention_raw = m.contention_raw;
          s.contention_norm = m.contention_norm;
          s.delay_us = static_cast<uint64_t>(m.delay);
          s.overloaded = m.overloaded;
          ev.resources.push_back(std::move(s));
        }
        recorder_->Record(std::move(ev));
      }
      if (!config_.cancellation_enabled) {
        break;
      }
      if (!dispatcher_.has_initiator()) {
        // §3.1: cancellation must route through the application's registered
        // safe initiator. With none registered, issuing a cancel would mark
        // the victim cancelled (fairness bookkeeping, re-registration rules)
        // without the application ever observing it.
        stats_.cancels_suppressed_no_initiator++;
        break;
      }
      if (!dispatcher_.AdmitByPacing(now)) {
        break;
      }
      PolicyExplain explain;
      PolicyDecision decision =
          pipeline_.selection->Select(est.policy_input, tracing ? &explain : nullptr);
      if (tracing) {
        FlightEvent ev;
        ev.time = now;
        ev.kind = ObsEventKind::kPolicyDecision;
        ev.value = decision.score;
        for (const PolicyExplain::Entry& entry : explain.entries) {
          ObsCandidateSample c;
          TaskRecord* task = ledger_.FindTaskById(entry.task);
          c.key = task != nullptr ? task->key : 0;
          if (entry.task == decision.victim) {
            ev.key = c.key;
          }
          c.cancellable = entry.cancellable;
          c.pareto = entry.pareto;
          c.score = entry.score;
          c.gains = entry.gains;
          ev.candidates.push_back(std::move(c));
        }
        ev.label = decision.found() ? "victim_selected" : "no_victim";
        recorder_->Record(std::move(ev));
      }
      if (!decision.found()) {
        stats_.cancels_suppressed_no_victim++;
        if (GetLogLevel() <= LogLevel::kDebug) {
          for (const auto& m : est.policy_input.resources) {
            LOG_DEBUG("no-victim: resource %u C=%.3f delay=%llu", m.id, m.contention_norm,
                      static_cast<unsigned long long>(m.delay));
          }
          const PolicyInput& input = est.policy_input;
          for (size_t i = 0; i < input.candidates.size(); i++) {
            const PolicyInput::Candidate& c = input.candidates[i];
            double g = input.resources.empty() ? 0.0 : input.Gains(i)[0];
            if (g > 0.0 || !c.cancellable) {
              const TaskRecord* rec = ledger_.FindTaskById(c.task);
              LOG_DEBUG("  cand key=%llu cancellable=%d gain0=%.4f",
                        static_cast<unsigned long long>(rec != nullptr ? rec->key : 0),
                        c.cancellable ? 1 : 0, g);
            }
          }
        }
        break;
      }
      TaskRecord* victim = ledger_.FindTaskById(decision.victim);
      victim->cancel_count++;
      victim->cancelled_at = now;
      if (tracing) {
        FlightEvent ev;
        ev.time = now;
        ev.kind = ObsEventKind::kCancelIssued;
        ev.key = victim->key;
        ev.value = decision.score;
        // label is filled by the layer that can name the request type, via
        // FlightRecorder::AnnotateLast right after the cancel observer fires —
        // the event must therefore already be recorded when the dispatcher
        // notifies the observer below.
        recorder_->Record(std::move(ev));
      }
      // `victim` is not used past this call: the cancel action may re-enter
      // RegisterTask, whose arena compaction or growth moves TaskRecords.
      dispatcher_.Dispatch(victim->key, decision.score, now);
      break;
    }
    case OverloadDetector::Signal::kDemandOverload:
      stats_.demand_overload_windows++;
      break;
    case OverloadDetector::Signal::kNormal:
    case OverloadDetector::Signal::kCalibrating:
      break;
  }

  // ---- Roll the window.
  window_.Roll(now);
  ledger_.RollWindow(now);
}

}  // namespace atropos
