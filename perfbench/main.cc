// The repository benchmark's binary; perfbench/run.py builds and runs it.
//
//   perfbench --workload fill|read_mostly|offload_pipeline --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 runs the workload once with no spans recorded and prints the
// end-to-end metrics. --trace 1 runs it untraced and then traced, prints
// the tracing overhead of every end-to-end metric and the per-layer
// self-time table, writes the spans to PATH in chrome://tracing format,
// and reports the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// 1 when any check failed.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

namespace {

void PrintMetrics(const char* workload, const char* label,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %-28s %16.4f %s\n", workload, label, m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

void PrintResult(const char* workload, const char* pass, const Result& r) {
  std::printf("== %s (%s): attempted=%llu failed=%llu\n", workload, pass,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  PrintMetrics(workload, "e2e   ", r.end_to_end);
  PrintMetrics(workload, "report", r.report);
  PrintMetrics(workload, "report",
               {{"failed_op_ratio", "fraction",
                 r.attempted ? static_cast<double>(r.failed) / r.attempted
                             : 1.0}});
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); i++) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// End-to-end metrics must be finite and nonzero; anything else is a
/// broken measurement and counts as a failed check.
void CheckEndToEnd(Result* r) {
  for (const Metric& m : r->end_to_end) {
    r->Check(std::isfinite(m.value) && m.value > 0);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fill|read_mostly|offload_pipeline"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  RunConfig config;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  Result (*run)(const RunConfig&) = nullptr;
  if (workload == "fill") {
    run = RunFill;
  } else if (workload == "read_mostly") {
    run = RunReadMostly;
  } else if (workload == "offload_pipeline") {
    run = RunOffloadPipeline;
  } else {
    return Usage();
  }
  const char* name = workload.c_str();

  Result untraced = run(config);
  CheckEndToEnd(&untraced);
  PrintResult(name, "untraced", untraced);
  if (trace == 0) {
    PrintJson(untraced.correct(), untraced.attempted, untraced.failed,
              untraced.end_to_end);
    return untraced.correct() ? 0 : 1;
  }

  config.trace = true;
  Result traced = run(config);
  CheckEndToEnd(&traced);
  PrintResult(name, "traced", traced);
  std::printf("== %s: tracing overhead (traced vs untraced)\n", name);
  for (size_t i = 0; i < traced.end_to_end.size() &&
                     i < untraced.end_to_end.size();
       i++) {
    const Metric& u = untraced.end_to_end[i];
    const Metric& t = traced.end_to_end[i];
    std::printf("%s overhead %-20s untraced %14.4f traced %14.4f %+8.2f%%\n",
                name, u.name.c_str(), u.value, t.value,
                u.value != 0 ? 100.0 * (t.value - u.value) / u.value : 0.0);
  }
  std::printf("== %s: per-layer self times (traced pass)\n%s", name,
              SelfTimeTable().c_str());
  PrintMetrics(name, "layer ", traced.per_layer);
  if (!trace_out.empty()) {
    if (WriteChromeTrace(trace_out)) {
      std::printf("wrote %s (%llu spans beyond the export cap dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(DroppedSpans()));
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }
  const bool correct = untraced.correct() && traced.correct();
  PrintJson(correct, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed, traced.per_layer);
  return correct ? 0 : 1;
}
