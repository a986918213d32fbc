// Test double that records the instrumentation stream apps emit.

#ifndef SRC_TESTING_RECORDING_CONTROLLER_H_
#define SRC_TESTING_RECORDING_CONTROLLER_H_

#include <string>
#include <vector>

#include "src/atropos/controller.h"

namespace atropos {

class RecordingController : public OverloadController {
 public:
  struct Event {
    std::string kind;  // get / free / wait_begin / wait_end / progress / ...
    uint64_t key = 0;
    ResourceId resource = kInvalidResourceId;
    uint64_t amount = 0;
  };

  std::string_view name() const override { return "recording"; }

  int Count(const std::string& kind) const {
    int n = 0;
    for (const Event& e : events) {
      if (e.kind == kind) {
        n++;
      }
    }
    return n;
  }

  int CountFor(const std::string& kind, uint64_t key) const {
    int n = 0;
    for (const Event& e : events) {
      if (e.kind == kind && e.key == key) {
        n++;
      }
    }
    return n;
  }

  uint64_t SumAmount(const std::string& kind, uint64_t key) const {
    uint64_t sum = 0;
    for (const Event& e : events) {
      if (e.kind == kind && e.key == key) {
        sum += e.amount;
      }
    }
    return sum;
  }

  std::vector<Event> events;

 protected:
  void HandleTaskRegistered(uint64_t key, bool background, bool cancellable) override {
    events.push_back({"register", key, 0, background ? 1u : 0u});
  }
  void HandleTaskFreed(uint64_t key) override { events.push_back({"free_task", key, 0, 0}); }
  void HandleGet(uint64_t key, ResourceId resource, uint64_t amount) override {
    events.push_back({"get", key, resource, amount});
  }
  void HandleFree(uint64_t key, ResourceId resource, uint64_t amount) override {
    events.push_back({"free", key, resource, amount});
  }
  void HandleWaitBegin(uint64_t key, ResourceId resource) override {
    events.push_back({"wait_begin", key, resource, 0});
  }
  void HandleWaitEnd(uint64_t key, ResourceId resource) override {
    events.push_back({"wait_end", key, resource, 0});
  }
  void HandleProgress(uint64_t key, uint64_t done, uint64_t total) override {
    events.push_back({"progress", key, 0, done});
  }
  void HandleRequestStart(uint64_t key, int request_type, int client_class) override {
    events.push_back({"request_start", key, 0, static_cast<uint64_t>(request_type)});
  }
  void HandleRequestEnd(uint64_t key, TimeMicros latency, int request_type,
                        int client_class) override {
    events.push_back({"request_end", key, 0, latency});
  }
};

}  // namespace atropos

#endif  // SRC_TESTING_RECORDING_CONTROLLER_H_
