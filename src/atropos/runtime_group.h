// Multi-tenant runtime group (paper §5: one controller per app instance).
//
// A RuntimeGroup hosts N independent AtroposRuntime shards — one per app
// instance or tenant — behind a single OverloadController facade. Every shard
// gets its own TaskLedger and WindowAggregator (tenants never see each
// other's tasks, windows, or overloads) while the decision stages are built
// by one shared StageFactory, so all shards run the same pipeline
// implementations with private per-shard state. Instrumentation events route
// to a shard by task key; resources are registered in every shard so ids
// agree group-wide; Tick() closes every shard's window.
//
// The isolation guarantee this encodes: a culprit detected in shard A can
// only ever be cancelled by shard A's dispatcher — no decision input crosses
// shard boundaries (runtime_group_test.cc and the fuzzer's group-ledger
// oracle hold this down).
//
// Threading: single-threaded by design, like the shards it hosts (see
// src/common/thread_annotations.h). One thread owns the group; concurrent
// producers are bridged by putting a ConcurrentFrontend in front of it, not
// by calling the group from multiple threads.

#ifndef SRC_ATROPOS_RUNTIME_GROUP_H_
#define SRC_ATROPOS_RUNTIME_GROUP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/atropos/runtime.h"

namespace atropos {

class RuntimeGroup final : public OverloadController {
 public:
  // Builds one DecisionPipeline per shard; invoked `shard_count` times at
  // construction so every shard has private stage state.
  using StageFactory = std::function<DecisionPipeline(const AtroposConfig&)>;
  // Maps a task/request key to a shard index in [0, shard_count).
  using KeyRouter = std::function<size_t(uint64_t key)>;

  RuntimeGroup(Clock* clock, AtroposConfig config, size_t shard_count,
               StageFactory factory = nullptr, KeyRouter router = nullptr);

  std::string_view name() const override { return "atropos_group"; }

  size_t shard_count() const { return shards_.size(); }
  AtroposRuntime& shard(size_t index) { return *shards_[index]; }
  const AtroposRuntime& shard(size_t index) const { return *shards_[index]; }
  size_t shard_for_key(uint64_t key) const { return router_(key); }

  // ---- Group-wide wiring ---------------------------------------------------
  void SetCancelAction(std::function<void(uint64_t)> initiator);
  void SetControlSurface(ControlSurface* surface);
  void SetRecorder(FlightRecorder* recorder);

  // Registers the resource in every shard; shards hand out ids in lockstep,
  // so the agreed id is returned.
  ResourceId RegisterResource(std::string name, ResourceClass cls) override;

  // ---- Instrumentation stream, routed by key -------------------------------
  void Apply(const TraceEvent& ev) override { route(ev.key).Apply(ev); }

  // Closes every shard's window: each tenant detects, estimates, and cancels
  // over its own books only.
  void Tick() override;

  // Group-level gate: retrying is recommended only when every tenant has
  // sustained calm (per-key retry decisions should consult the shard via
  // shard(shard_for_key(key)) instead).
  bool ReexecutionRecommended() const override;

  // ---- Process-wide conservation ledger ------------------------------------
  // Per-shard audits summed by resource id. Each shard's ledger balances
  // independently; the sum is the process-wide view the fuzzer's group oracle
  // checks against the flat single-runtime ledger.
  std::vector<ResourceAudit> AuditProcessWide() const;

 private:
  AtroposRuntime& route(uint64_t key) { return *shards_[router_(key)]; }

  std::vector<std::unique_ptr<AtroposRuntime>> shards_;
  KeyRouter router_;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_RUNTIME_GROUP_H_
