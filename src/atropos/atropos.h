// Umbrella header for the Atropos overload-control library.
//
// Atropos mitigates application resource overload by identifying the culprit
// task that monopolizes a contended application resource and cancelling it
// through the application's own safe cancellation initiator — instead of
// dropping the victim requests blocked behind it.
//
// Typical integration:
//
//   AtroposConfig config;
//   AtroposRuntime runtime(clock, config);
//   ResourceId pool = runtime.RegisterResource("buffer_pool", ResourceClass::kMemory);
//   runtime.SetCancelAction([&](uint64_t key) { app.Kill(key); });
//
//   // per task:
//   runtime.OnTaskRegistered(key, /*background=*/false);
//   runtime.OnGet(key, pool, pages);         // getResource
//   runtime.OnWaitBegin(key, pool); ...      // slowByResource bracketing
//   runtime.OnFree(key, pool, pages);        // freeResource
//   runtime.OnTaskFreed(key);
//
//   // control loop, once per window:
//   runtime.Tick();

#ifndef SRC_ATROPOS_ATROPOS_H_
#define SRC_ATROPOS_ATROPOS_H_

#include "src/atropos/accounting.h"   // IWYU pragma: export
#include "src/atropos/capi.h"         // IWYU pragma: export
#include "src/atropos/config.h"       // IWYU pragma: export
#include "src/atropos/controller.h"   // IWYU pragma: export
#include "src/atropos/detector.h"     // IWYU pragma: export
#include "src/atropos/estimator.h"    // IWYU pragma: export
#include "src/atropos/policy.h"       // IWYU pragma: export
#include "src/atropos/runtime.h"      // IWYU pragma: export
#include "src/atropos/types.h"        // IWYU pragma: export

#endif  // SRC_ATROPOS_ATROPOS_H_
