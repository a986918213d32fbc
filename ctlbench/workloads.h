// The three control-loop workloads. Each records its metrics and checks into
// the Report; see README.md for why each exists and what it should move.

#ifndef CTLBENCH_WORKLOADS_H_
#define CTLBENCH_WORKLOADS_H_

#include <cstddef>

#include "report.h"

namespace ctlbench {

// No overload, high event rate, few live tasks: hooks and intake.
void RunCalm(const RunArgs& args, Report* report);
// 10k live tasks under sustained resource overload: ledger and decisions.
void RunWide(const RunArgs& args, Report* report);
// The live lock-convoy scenario: detection, delivery and recovery.
void RunConvoy(const RunArgs& args, Report* report);

// Pins the calling thread to the i-th CPU the process may run on, so thread
// placement does not vary from run to run. No-op with fewer than `threads`
// CPUs available.
void PinToCpu(size_t i, size_t threads);

}  // namespace ctlbench

#endif  // CTLBENCH_WORKLOADS_H_
