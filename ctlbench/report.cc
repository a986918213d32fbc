#include "report.h"

#include <cmath>
#include <cstdio>

namespace ctlbench {

namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string OfTotal(uint64_t part, uint64_t whole) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%llu of %llu)", static_cast<unsigned long long>(part),
                static_cast<unsigned long long>(whole));
  return buf;
}

std::string SampleCount(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "(n=%llu)", static_cast<unsigned long long>(n));
  return buf;
}

void Report::BeginPass(bool traced) {
  traced_ = traced;
  std::printf("%s pass: %s\n", args_.workload.c_str(), traced ? "traced" : "untraced");
}

void Report::EndToEnd(const std::string& name, double value) {
  Check(std::isfinite(value), "finite value for " + name);
  (traced_ ? traced_e2e_ : untraced_)[name] = value;
  std::printf("%s %s %s%s\n", args_.workload.c_str(), name.c_str(), Number(value).c_str(),
              traced_ ? " (traced)" : "");
}

void Report::Layer(const std::string& name, double value) {
  Check(std::isfinite(value), "finite value for " + name);
  if (!traced_) {
    return;  // layer readings come from the traced pass only
  }
  layers_[name] = value;
  std::printf("%s %s %s\n", args_.workload.c_str(), name.c_str(), Number(value).c_str());
}

void Report::Info(const std::string& name, double value, const std::string& unit,
                  const std::string& detail) {
  std::printf("%s %s %.6g %s%s%s\n", args_.workload.c_str(), name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : " ", detail.c_str());
}

void Report::Timing(const std::string& prefix, const std::string& unit, const Summary& s,
                    double scale) {
  auto detail = [&](double bucket) {
    std::string d = SampleCount(s.count);
    if (bucket > 0.0) {
      d.pop_back();
      d += ", bucket=" + Number(bucket * scale) + " " + unit + ")";
    }
    return d;
  };
  Info(prefix + "_p25", s.p25 * scale, unit, detail(0.0));
  Info(prefix + "_p50", s.p50 * scale, unit, detail(s.p50_bucket));
  Info(prefix + "_" + s.tail.Name(), s.tail_value * scale, unit, detail(s.tail_bucket));
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::printf("%s CHECK FAILED: %s\n", args_.workload.c_str(), what.c_str());
  }
}

int Report::Finish() {
  auto object = [](const std::map<std::string, double>& values) {
    std::string out;
    for (const auto& [name, value] : values) {
      out += std::string(out.empty() ? "" : ", ") + "\"" + name + "\": " + Number(value);
    }
    return "{" + out + "}";
  };
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"end_to_end\": " + object(untraced_);
  json += ", \"traced\": " + object(traced_e2e_);
  json += ", \"layers\": " + object(layers_);
  json += "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace ctlbench
