// ctlbench: the Atropos control-loop benchmark program.
//
//   ctlbench --workload calm|wide|lock-convoy --seed N --seconds S --trace 0|1
//
// Prints readings by name and unit, then one JSON result line. Normally
// invoked via run.py.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ctlbench --workload calm|wide|lock-convoy --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ctlbench::RunArgs args;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1.0 || args.seconds > 120.0) {
    std::fprintf(stderr, "ctlbench: --seconds must be within [1, 120]\n");
    return 2;
  }
  ctlbench::Report report(args);
  std::printf("ctlbench: workload %s, seed %llu, %.0f s, trace %d, %u hardware threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  if (args.workload == "calm") {
    ctlbench::RunCalm(args, &report);
  } else if (args.workload == "wide") {
    ctlbench::RunWide(args, &report);
  } else if (args.workload == "lock-convoy") {
    ctlbench::RunConvoy(args, &report);
  } else {
    return Usage();
  }
  return report.Finish();
}
