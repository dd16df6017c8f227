// The three benchmark workloads and their measurement passes.
//
//   steady_windows  synthetic 64-rank windows into a t3/d2 AnalysisServer
//   long_run        synthetic 256-rank windows, serial, obs + journal file
//   app_run         Nekbone on the simulator with a VaproSession attached
//
// Untraced runs repeat whole episodes (fresh server, fresh inputs derived
// from the seed) until the time budget is spent, scale each episode's
// timings to a reference host speed measured around it, and report
// timings estimated step by step over the episodes' fastest quarters.  A
// traced run alternates traced (a span per public call) and untraced
// episodes of the same inputs, then replays them through the library's
// free functions, and reports the per-layer split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;            // tiny sizes, for the benchmark's own tests
  std::string out_dir = ".";     // trace, report and journal files
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;               // the result-line metrics
  Metrics extra;                 // report-only figures (not in the line)
  std::vector<std::string> notes;  // human-readable lines, printed first
};

const std::vector<std::string>& workload_names();
Outcome run_workload(const RunOptions& opts, Tracer* tracer);

}  // namespace perfbench
