// Shared main() for the google-benchmark micro benches: strips the
// repo-specific --metrics-json / --trace-json flags from argv *before*
// benchmark::Initialize (which rejects flags it does not know), enables
// observability when either is present, runs the registered benchmarks,
// and writes the RunReport artifacts afterwards.
//
// Usage (instead of BENCHMARK_MAIN()):
//   int main(int argc, char** argv) {
//     return dpoaf_benchmark_main(argc, argv, "micro_tensor");
//   }
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"

inline int dpoaf_benchmark_main(int argc, char** argv, const char* tool) {
  std::string metrics_path;
  std::string trace_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!metrics_path.empty() || !trace_path.empty())
    dpoaf::obs::set_enabled(true);

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!metrics_path.empty() || !trace_path.empty()) {
    const dpoaf::obs::RunReport report = dpoaf::obs::capture_run_report(tool);
    bool ok = true;
    // The metrics artifact has no raw trace; the chrome export carries
    // the events for chrome://tracing / ui.perfetto.dev.
    if (!metrics_path.empty() &&
        !dpoaf::obs::write_text_file(metrics_path,
                                     dpoaf::obs::to_json(report)))
      ok = false;
    if (!trace_path.empty() &&
        !dpoaf::obs::write_text_file(trace_path,
                                     dpoaf::obs::to_chrome_trace(report)))
      ok = false;
    if (!ok) {
      std::fprintf(stderr, "%s: failed to write metrics/trace report\n", tool);
      return 1;
    }
  }
  return 0;
}
