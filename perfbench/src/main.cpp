// Vapro benchmark driver.
//
//   vapro_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--smoke] [--out DIR]
//
// Prints human-readable notes, a `host:` provenance line and, last, one
// JSON result line {"correct","attempted","failed","metrics"}.  Untraced
// runs report the end-to-end metrics; traced runs the per-layer ones, and
// also write DIR/trace_<workload>_<seed>.json (Chrome trace events) and
// DIR/report_<workload>_<seed>.json (every figure, including report-only
// ones, and self time per span).  Exit status 1 when any checked
// operation failed, 2 on bad arguments.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: vapro_perfbench --workload steady_windows|long_run|app_run"
               " --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n";
  return 2;
}

void write_report(const std::string& path, const RunOptions& opts,
                  const Outcome& out, const Tracer& tracer) {
  std::ofstream f(path);
  f << "{\"workload\": \"" << opts.workload << "\", \"host\": "
    << host_json(opts.seed) << ",\n \"result\": "
    << result_line(out.failed == 0, out.attempted, out.failed, out.metrics)
    << ",\n \"report_only\": " << result_line(true, 1, 0, out.extra)
    << ",\n \"self_seconds\": {";
  bool first = true;
  for (const auto& [name, s] : tracer.self_seconds()) {
    f << (first ? "" : ", ") << "\"" << name << "\": " << s;
    first = false;
  }
  f << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (!has_value) {
      return usage("missing value for " + arg);
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opts.trace = std::string(argv[++i]) == "1";
      have_trace = true;
    } else if (arg == "--out") {
      opts.out_dir = argv[++i];
    } else {
      return usage("unknown argument " + arg);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == opts.workload;
  if (!known) return usage("unknown workload '" + opts.workload + "'");
  if (!have_trace || !(opts.seconds > 0.0)) return usage("need --seconds > 0 and --trace");
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);

  Tracer tracer;
  const Outcome out = run_workload(opts, opts.trace ? &tracer : nullptr);

  for (const std::string& note : out.notes) std::cout << note << "\n";
  auto print = [](const Metrics& m, const char* tag) {
    for (const auto& [name, vu] : m.items())
      std::cout << tag << " " << name << " = " << vu.first << " " << vu.second << "\n";
  };
  print(out.metrics, "metric");
  print(out.extra, "report-only");
  bool finite = true;
  for (const auto& [name, vu] : out.metrics.items()) finite &= std::isfinite(vu.first);
  if (opts.trace) {
    for (const auto& [name, s] : tracer.self_seconds())
      std::cout << "self " << name << " = " << s << " s\n";
    const std::string stem = opts.workload + "_" + std::to_string(opts.seed);
    tracer.write_json(opts.out_dir + "/trace_" + stem + ".json");
    write_report(opts.out_dir + "/report_" + stem + ".json", opts, out, tracer);
  }
  std::cout << "host: " << host_json(opts.seed) << "\n";
  std::cout << result_line(out.failed == 0 && finite, out.attempted, out.failed,
                           out.metrics)
            << std::endl;
  return out.failed == 0 && finite ? 0 : 1;
}
