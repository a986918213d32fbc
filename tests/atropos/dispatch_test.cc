// The OverloadController event surface: every public On* hook encodes one
// TraceEvent, and the default Apply decodes it into the matching Handle*
// virtual with the hook's arguments unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/atropos/controller.h"

namespace atropos {
namespace {

// One handler invocation, with every argument a handler can receive.
struct Call {
  std::string handler;
  uint64_t key = 0;
  ResourceId resource = kInvalidResourceId;
  uint64_t x = 0;  // amount | latency | waited | done
  uint64_t y = 0;  // used | total
  int request_type = 0;
  int client_class = 0;
  bool background = false;
  bool cancellable = true;
};

// Overrides all ten per-kind handlers, so the default Apply's decode is
// observed directly (HandleUsage is not lowered).
class HandlerProbe final : public OverloadController {
 public:
  std::string_view name() const override { return "handler_probe"; }
  std::vector<Call> calls;

 private:
  void HandleTaskRegistered(uint64_t key, bool background, bool cancellable) override {
    calls.push_back({.handler = "task_registered",
                     .key = key,
                     .background = background,
                     .cancellable = cancellable});
  }
  void HandleTaskFreed(uint64_t key) override {
    calls.push_back({.handler = "task_freed", .key = key});
  }
  void HandleGet(uint64_t key, ResourceId resource, uint64_t amount) override {
    calls.push_back({.handler = "get", .key = key, .resource = resource, .x = amount});
  }
  void HandleFree(uint64_t key, ResourceId resource, uint64_t amount) override {
    calls.push_back({.handler = "free", .key = key, .resource = resource, .x = amount});
  }
  void HandleWaitBegin(uint64_t key, ResourceId resource) override {
    calls.push_back({.handler = "wait_begin", .key = key, .resource = resource});
  }
  void HandleWaitEnd(uint64_t key, ResourceId resource) override {
    calls.push_back({.handler = "wait_end", .key = key, .resource = resource});
  }
  void HandleRequestStart(uint64_t key, int request_type, int client_class) override {
    calls.push_back({.handler = "request_start",
                     .key = key,
                     .request_type = request_type,
                     .client_class = client_class});
  }
  void HandleRequestEnd(uint64_t key, TimeMicros latency, int request_type,
                        int client_class) override {
    calls.push_back({.handler = "request_end",
                     .key = key,
                     .x = latency,
                     .request_type = request_type,
                     .client_class = client_class});
  }
  void HandleUsage(uint64_t key, ResourceId resource, TimeMicros waited,
                   TimeMicros used) override {
    calls.push_back(
        {.handler = "usage", .key = key, .resource = resource, .x = waited, .y = used});
  }
  void HandleProgress(uint64_t key, uint64_t done, uint64_t total) override {
    calls.push_back({.handler = "progress", .key = key, .x = done, .y = total});
  }
};

void ExpectCall(const Call& got, const Call& want) {
  SCOPED_TRACE(want.handler);
  EXPECT_EQ(got.handler, want.handler);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.resource, want.resource);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.y, want.y);
  EXPECT_EQ(got.request_type, want.request_type);
  EXPECT_EQ(got.client_class, want.client_class);
  EXPECT_EQ(got.background, want.background);
  EXPECT_EQ(got.cancellable, want.cancellable);
}

TEST(DispatchTest, EachEncoderReachesItsHandlerWithItsArguments) {
  HandlerProbe probe;
  probe.OnTaskRegistered(11, /*background=*/true, /*cancellable=*/false);
  probe.OnTaskFreed(12);
  probe.OnGet(13, 3, 41);
  probe.OnFree(14, 4, 42);
  probe.OnWaitBegin(15, 5);
  probe.OnWaitEnd(16, 6);
  probe.OnRequestStart(17, 7, 8);
  probe.OnRequestEnd(18, 9000, 9, 10);
  probe.OnUsage(19, 11, /*waited=*/700, /*used=*/1400);
  probe.OnProgress(20, /*done=*/5, /*total=*/100);

  const std::vector<Call> want = {
      {.handler = "task_registered", .key = 11, .background = true, .cancellable = false},
      {.handler = "task_freed", .key = 12},
      {.handler = "get", .key = 13, .resource = 3, .x = 41},
      {.handler = "free", .key = 14, .resource = 4, .x = 42},
      {.handler = "wait_begin", .key = 15, .resource = 5},
      {.handler = "wait_end", .key = 16, .resource = 6},
      {.handler = "request_start", .key = 17, .request_type = 7, .client_class = 8},
      {.handler = "request_end", .key = 18, .x = 9000, .request_type = 9, .client_class = 10},
      {.handler = "usage", .key = 19, .resource = 11, .x = 700, .y = 1400},
      {.handler = "progress", .key = 20, .x = 5, .y = 100},
  };
  ASSERT_EQ(probe.calls.size(), want.size());
  for (size_t i = 0; i < want.size(); i++) {
    ExpectCall(probe.calls[i], want[i]);
  }
}

// The registration defaults: foreground and cancellable unless stated.
TEST(DispatchTest, TaskRegisteredDefaultsToCancellable) {
  HandlerProbe probe;
  probe.OnTaskRegistered(1, /*background=*/false);
  ASSERT_EQ(probe.calls.size(), 1u);
  ExpectCall(probe.calls[0], {.handler = "task_registered", .key = 1});
}

// A forwarder sees the encoded event itself: one TraceEvent per hook, with
// the kind set and every unused field left at its default.
class EventProbe final : public OverloadController {
 public:
  std::string_view name() const override { return "event_probe"; }
  void Apply(const TraceEvent& ev) override { events.push_back(ev); }
  std::vector<TraceEvent> events;
};

TEST(DispatchTest, EncodersBuildOneUnstampedEventPerHook) {
  EventProbe probe;
  probe.OnUsage(19, 11, /*waited=*/700, /*used=*/1400);
  probe.OnRequestEnd(18, 9000, 9, 10);
  ASSERT_EQ(probe.events.size(), 2u);

  const TraceEvent& usage = probe.events[0];
  EXPECT_EQ(usage.kind, TraceEventKind::kUsage);
  EXPECT_EQ(usage.time, 0u);  // stamping is the ring producer's job
  EXPECT_EQ(usage.key, 19u);
  EXPECT_EQ(usage.resource, 11u);
  EXPECT_EQ(usage.a, 700u);
  EXPECT_EQ(usage.b, 1400u);
  EXPECT_EQ(usage.request_type, 0);
  EXPECT_EQ(usage.client_class, 0);
  EXPECT_FALSE(usage.background);
  EXPECT_TRUE(usage.cancellable);

  const TraceEvent& end = probe.events[1];
  EXPECT_EQ(end.kind, TraceEventKind::kRequestEnd);
  EXPECT_EQ(end.key, 18u);
  EXPECT_EQ(end.a, 9000u);
  EXPECT_EQ(end.b, 0u);
  EXPECT_EQ(end.resource, kInvalidResourceId);
  EXPECT_EQ(end.request_type, 9);
  EXPECT_EQ(end.client_class, 10);
}

// Controllers that leave HandleUsage alone see it lowered: a completed wait
// report becomes a wait observation carrying `waited`, then a hold
// observation carrying `used`.
class ObservationProbe final : public OverloadController {
 public:
  std::string_view name() const override { return "observation_probe"; }
  std::vector<Call> calls;

 private:
  void HandleWaitObserved(uint64_t key, ResourceId resource, TimeMicros waited) override {
    calls.push_back({.handler = "wait_observed", .key = key, .resource = resource, .x = waited});
  }
  void HandleHoldObserved(uint64_t key, ResourceId resource, TimeMicros used) override {
    calls.push_back({.handler = "hold_observed", .key = key, .resource = resource, .x = used});
  }
};

TEST(DispatchTest, DefaultUsageLoweringCreditsWaitedThenUsed) {
  ObservationProbe probe;
  probe.OnUsage(19, 11, /*waited=*/700, /*used=*/1400);
  probe.OnUsage(20, 12, /*waited=*/0, /*used=*/300);  // no wait: hold only
  ASSERT_EQ(probe.calls.size(), 3u);
  ExpectCall(probe.calls[0], {.handler = "wait_observed", .key = 19, .resource = 11, .x = 700});
  ExpectCall(probe.calls[1], {.handler = "hold_observed", .key = 19, .resource = 11, .x = 1400});
  ExpectCall(probe.calls[2], {.handler = "hold_observed", .key = 20, .resource = 12, .x = 300});
}

// And with the observation handlers left alone too, the lowering bottoms out
// in a zero-width wait bracket and a one-unit get/free pair.
class BracketProbe final : public OverloadController {
 public:
  std::string_view name() const override { return "bracket_probe"; }
  std::vector<Call> calls;

 private:
  void HandleGet(uint64_t key, ResourceId resource, uint64_t amount) override {
    calls.push_back({.handler = "get", .key = key, .resource = resource, .x = amount});
  }
  void HandleFree(uint64_t key, ResourceId resource, uint64_t amount) override {
    calls.push_back({.handler = "free", .key = key, .resource = resource, .x = amount});
  }
  void HandleWaitBegin(uint64_t key, ResourceId resource) override {
    calls.push_back({.handler = "wait_begin", .key = key, .resource = resource});
  }
  void HandleWaitEnd(uint64_t key, ResourceId resource) override {
    calls.push_back({.handler = "wait_end", .key = key, .resource = resource});
  }
};

TEST(DispatchTest, DefaultObservationLoweringIsABracketAndAUnitHold) {
  BracketProbe probe;
  probe.OnUsage(19, 11, /*waited=*/700, /*used=*/1400);
  ASSERT_EQ(probe.calls.size(), 4u);
  ExpectCall(probe.calls[0], {.handler = "wait_begin", .key = 19, .resource = 11});
  ExpectCall(probe.calls[1], {.handler = "wait_end", .key = 19, .resource = 11});
  ExpectCall(probe.calls[2], {.handler = "get", .key = 19, .resource = 11, .x = 1});
  ExpectCall(probe.calls[3], {.handler = "free", .key = 19, .resource = 11, .x = 1});
}

}  // namespace
}  // namespace atropos
