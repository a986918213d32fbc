// Metric collection and output for one ctlbench invocation.
//
// Workloads record end-to-end metrics (the gated set in BENCHMARK.json),
// per-layer metrics (the traced run), human-only readings (further named
// metrics printed by name and unit) and correctness checks. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "end_to_end",
// "traced", "layers"}, each metric map holding name -> value. BENCHMARK.json
// is the only list of metric names and units: run.py attaches the units and
// rejects names it does not list.
//
// A traced invocation measures twice, first untraced and then traced;
// run.py prints the tracing overhead on every end-to-end metric from the two.

#ifndef CTLBENCH_REPORT_H_
#define CTLBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace ctlbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

class Report {
 public:
  explicit Report(const RunArgs& args) : args_(args) {}

  // Starts a measurement pass. Untraced passes feed "end_to_end"; the
  // traced pass feeds "traced" and "layers".
  void BeginPass(bool traced);

  // Gated metrics, printed as "<workload> <name> <value>" (run.py prints
  // them again with their units from BENCHMARK.json).
  void EndToEnd(const std::string& name, double value);
  void Layer(const std::string& name, double value);

  // Human-readable reading: "<workload> <name> <value> <unit> [detail]".
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
  // Median and tail of a timing, with sample count (and bucket widths for
  // histogram sources), printed as `<prefix>_p50` and `<prefix>_<tail>`.
  void Timing(const std::string& prefix, const std::string& unit, const Summary& s,
              double scale = 1.0);

  // Correctness check; a failed check makes the run exit non-zero.
  void Check(bool ok, const std::string& what);

  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  // Prints the final JSON line. Returns the process exit code.
  int Finish();

 private:
  const RunArgs& args_;
  bool traced_ = false;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> untraced_;
  std::map<std::string, double> traced_e2e_;
  std::map<std::string, double> layers_;
};

// "(part of whole)" and "(n=count)" details for Info lines.
std::string OfTotal(uint64_t part, uint64_t whole);
std::string SampleCount(uint64_t n);

// Calls `setup` `repeats` times and records the median of the seconds the
// calls return as setup_s. Each call builds the workload's state afresh,
// timing from the start of its set-up to its first timed operation, and
// leaves that state for the measurement; the previous call's state is
// discarded untimed. Cheap set-ups are repeated more often, as a single one
// reads mostly host noise.
template <typename SetUp>
void TimeSetUps(Report* report, int repeats, SetUp&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; i++) {
    seconds.push_back(setup());
  }
  report->EndToEnd("setup_s", Median(seconds));
}

// Seconds elapsed since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace ctlbench

#endif  // CTLBENCH_REPORT_H_
