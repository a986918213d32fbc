// Differential test for the TaskLedger's id-ordered slot arena.
//
// Seeded random sequences of registrations, frees, re-registrations of live
// keys (the stale-slot path), usage events, progress reports, window rolls
// and one mid-run resource registration drive the ledger and a std::map
// reference model side by side. After every step the ledger must agree with
// the model: the arena walk yields exactly the live set in ascending TaskId,
// dead slots carry all-zero usage rows, FindTask / FindTaskById / FindUsage
// match (null for freed ids), and AuditAccounting balances to the model's
// per-resource totals. The churn is sized so every seed compacts the arena
// at least ten times.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/atropos/ledger.h"
#include "src/common/clock.h"
#include "src/common/rng.h"

namespace atropos {
namespace {

constexpr uint64_t kKeyPool = 160;
constexpr int kSteps = 8000;

struct ModelCell {
  uint64_t acquired = 0;
  uint64_t released = 0;
  uint64_t active_units = 0;
  uint64_t slow_events = 0;
  bool waiting = false;
  bool touched = false;
};

struct ModelTask {
  uint64_t key = 0;
  bool has_progress = false;
  uint64_t progress_done = 0;
  uint64_t progress_total = 0;
  std::vector<ModelCell> cells;  // index = ResourceId - 1
};

struct ModelResource {
  uint64_t gets = 0;
  uint64_t frees = 0;
  uint64_t leaked = 0;
  uint64_t overfreed = 0;
};

class ArenaHarness {
 public:
  explicit ArenaHarness(uint64_t seed) : rng_(seed), ledger_(&clock_, config_, &stats_) {
    for (int r = 0; r < 3; r++) {
      AddResource();
    }
  }

  void Step(int step) {
    clock_.Advance(static_cast<TimeMicros>(1 + rng_.NextBounded(50)));
    if (step == kSteps / 2) {
      AddResource();  // restride with a live, partly dead arena
      return;
    }
    const uint64_t key = rng_.NextBounded(kKeyPool);
    // One id past the registered range: an event the ledger must ignore.
    const ResourceId rid = static_cast<ResourceId>(1 + rng_.NextBounded(resources_.size() + 1));
    const uint64_t amount = rng_.NextBounded(4);
    const uint64_t op = rng_.NextBounded(100);
    if (op < 25) {
      Register(key);
    } else if (op < 45) {
      Free(key);
    } else if (op < 60) {
      ledger_.RecordGet(key, rid, amount);
      if (ModelCell* cell = Cell(key, rid)) {
        cell->acquired += amount;
        cell->active_units += amount;
        resources_[rid - 1].gets += amount;
      }
    } else if (op < 70) {
      ledger_.RecordFree(key, rid, amount);
      if (ModelCell* cell = Cell(key, rid)) {
        const uint64_t dec = std::min(cell->active_units, amount);
        cell->released += amount;
        cell->active_units -= dec;
        resources_[rid - 1].frees += amount;
        resources_[rid - 1].overfreed += amount - dec;
      }
    } else if (op < 77) {
      ledger_.RecordWaitBegin(key, rid);
      if (ModelCell* cell = Cell(key, rid)) {
        cell->waiting = true;
      }
    } else if (op < 84) {
      ledger_.RecordWaitEnd(key, rid);
      if (ModelCell* cell = Cell(key, rid); cell != nullptr && cell->waiting) {
        cell->waiting = false;
        cell->slow_events++;
      }
    } else if (op < 89) {
      const TimeMicros waited = static_cast<TimeMicros>(rng_.NextBounded(3));
      ledger_.RecordUsage(key, rid, waited, 10);
      if (ModelCell* cell = Cell(key, rid); cell != nullptr && waited > 0) {
        cell->slow_events++;
      }
    } else if (op < 95) {
      const uint64_t total = 1 + rng_.NextBounded(100);
      const uint64_t done = rng_.NextBounded(total + 1);
      ledger_.RecordProgress(key, done, total);
      if (ModelTask* task = Task(key)) {
        task->has_progress = true;
        task->progress_done = done;
        task->progress_total = total;
      }
    } else {
      ledger_.RollWindow(clock_.NowMicros());
    }
  }

  // Everything observable about the arena agrees with the model.
  void Check() {
    // The arena walk: live slots in ascending id, exactly the model's set;
    // dead slots' rows are all zero.
    auto model_it = tasks_.begin();
    const size_t stride = resources_.size();
    ASSERT_EQ(ledger_.resource_count(), stride);
    for (uint32_t slot = 0; slot < ledger_.slot_count(); slot++) {
      const TaskRecord& rec = ledger_.task_at(slot);
      const TaskResourceUsage* row = ledger_.usage_row(slot);
      if (!ledger_.live_at(slot)) {
        for (size_t r = 0; r < stride; r++) {
          ASSERT_FALSE(row[r].touched || row[r].waiting || row[r].active_units != 0 ||
                       row[r].acquired != 0)
              << "dead slot " << slot << " has a non-zero usage row";
        }
        continue;
      }
      ASSERT_NE(model_it, tasks_.end()) << "arena walk yields a task the model freed";
      ASSERT_EQ(rec.id, model_it->first) << "arena walk out of id order at slot " << slot;
      ASSERT_EQ(rec.key, model_it->second.key);
      for (size_t r = 0; r < stride; r++) {
        ExpectCell(row[r], model_it->second.cells[r]);
      }
      ++model_it;
    }
    ASSERT_EQ(model_it, tasks_.end()) << "arena walk misses live tasks";
    ASSERT_EQ(ledger_.live_task_count(), tasks_.size());

    // Key lookups, including keys that are not live.
    for (uint64_t key = 0; key < kKeyPool; key++) {
      const TaskRecord* rec = ledger_.FindTask(key);
      const ModelTask* task = Task(key);
      ASSERT_EQ(rec != nullptr, task != nullptr) << "key " << key;
      if (task == nullptr) {
        continue;
      }
      ASSERT_EQ(rec->id, id_of_key_.at(key));
      ASSERT_EQ(rec->has_progress, task->has_progress);
      ASSERT_EQ(rec->progress_done, task->progress_done);
      ASSERT_EQ(rec->progress_total, task->progress_total);
      for (size_t r = 0; r < stride; r++) {
        const TaskResourceUsage* usage = ledger_.FindUsage(key, static_cast<ResourceId>(r + 1));
        ASSERT_EQ(usage != nullptr, task->cells[r].touched);
        if (usage != nullptr) {
          ExpectCell(*usage, task->cells[r]);
        }
      }
    }

    // Id lookups: every live id, and a sample of ids issued so far (freed
    // ones must come back null).
    for (const auto& [id, task] : tasks_) {
      const TaskRecord* rec = ledger_.FindTaskById(id);
      ASSERT_NE(rec, nullptr) << "live id " << id;
      ASSERT_EQ(rec->key, task.key);
    }
    for (int i = 0; i < 8 && next_id_ > 1; i++) {
      const TaskId id = static_cast<TaskId>(1 + rng_.NextBounded(next_id_ + 1));
      const TaskRecord* rec = ledger_.FindTaskById(id);
      ASSERT_EQ(rec != nullptr, tasks_.count(id) == 1) << "id " << id;
    }

    // The conservation ledger balances to the model's totals.
    const std::vector<ResourceAudit> audit = ledger_.AuditAccounting();
    ASSERT_EQ(audit.size(), stride);
    for (size_t r = 0; r < stride; r++) {
      uint64_t live_held = 0;
      for (const auto& [id, task] : tasks_) {
        live_held += task.cells[r].active_units;
      }
      EXPECT_TRUE(audit[r].Balanced()) << "resource " << r + 1;
      EXPECT_EQ(audit[r].acquired, resources_[r].gets);
      EXPECT_EQ(audit[r].released, resources_[r].frees);
      EXPECT_EQ(audit[r].leaked, resources_[r].leaked);
      EXPECT_EQ(audit[r].overfreed, resources_[r].overfreed);
      EXPECT_EQ(audit[r].live_held, live_held);
    }
  }

  int compactions() const { return compactions_; }

 private:
  void AddResource() {
    ledger_.RegisterResource("r", ResourceClass::kLock);
    resources_.emplace_back();
    for (auto& [id, task] : tasks_) {
      task.cells.emplace_back();
    }
  }

  void Register(uint64_t key) {
    const uint32_t slots_before = ledger_.slot_count();
    ledger_.RegisterTask(key, /*background=*/false, /*cancellable=*/true);
    // An append grows the arena by one slot; anything else was a compaction.
    if (ledger_.slot_count() <= slots_before) {
      compactions_++;
    }
    ForgetInModel(key);  // the ledger replaced any stale registration
    const TaskId id = next_id_++;
    ModelTask& task = tasks_[id];
    task.key = key;
    task.cells.resize(resources_.size());
    id_of_key_[key] = id;
  }

  void Free(uint64_t key) {
    ledger_.FreeTask(key);
    ForgetInModel(key);
  }

  // Tears down `key`'s model task, if any, leaking its open holdings.
  void ForgetInModel(uint64_t key) {
    auto it = id_of_key_.find(key);
    if (it == id_of_key_.end()) {
      return;
    }
    ModelTask& task = tasks_.at(it->second);
    for (size_t r = 0; r < resources_.size(); r++) {
      resources_[r].leaked += task.cells[r].active_units;
    }
    tasks_.erase(it->second);
    id_of_key_.erase(it);
  }

  ModelTask* Task(uint64_t key) {
    auto it = id_of_key_.find(key);
    return it == id_of_key_.end() ? nullptr : &tasks_.at(it->second);
  }

  // The model cell an event on (key, rid) touches, or null when the ledger
  // ignores the event (unknown key or resource).
  ModelCell* Cell(uint64_t key, ResourceId rid) {
    ModelTask* task = Task(key);
    if (task == nullptr || rid > resources_.size()) {
      return nullptr;
    }
    ModelCell& cell = task->cells[rid - 1];
    cell.touched = true;
    return &cell;
  }

  static void ExpectCell(const TaskResourceUsage& got, const ModelCell& want) {
    EXPECT_EQ(got.acquired, want.acquired);
    EXPECT_EQ(got.released, want.released);
    EXPECT_EQ(got.active_units, want.active_units);
    EXPECT_EQ(got.slow_events, want.slow_events);
    EXPECT_EQ(got.waiting, want.waiting);
    EXPECT_EQ(got.touched, want.touched);
  }

  Rng rng_;
  ManualClock clock_;
  AtroposConfig config_;
  AtroposStats stats_;
  TaskLedger ledger_;

  std::map<TaskId, ModelTask> tasks_;  // live tasks, ascending id
  std::map<uint64_t, TaskId> id_of_key_;
  std::vector<ModelResource> resources_;
  TaskId next_id_ = 1;
  int compactions_ = 0;
};

TEST(LedgerArenaTest, MatchesMapModelAcrossCompactions) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    SCOPED_TRACE(seed);
    ArenaHarness harness(seed);
    for (int step = 0; step < kSteps; step++) {
      harness.Step(step);
      harness.Check();
      if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
    EXPECT_GE(harness.compactions(), 10);
  }
}

}  // namespace
}  // namespace atropos
