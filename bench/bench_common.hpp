// Shared helpers for the experiment-reproduction binaries.  Each bench
// regenerates one table/figure of the paper; output is plain text tables
// plus optional CSV dumps under /tmp for external plotting.
#pragma once

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/table.hpp"

namespace vapro::bench {

// Sum of per-rank wall times — the denominator of the paper's coverage
// metric ("total execution time").
inline double total_execution_seconds(const sim::RunResult& result) {
  return std::accumulate(result.finish_times.begin(),
                         result.finish_times.end(), 0.0);
}

inline sim::NoiseSpec cpu_noise(int node, double t_begin, double t_end,
                                double magnitude = 1.0) {
  sim::NoiseSpec s;
  s.kind = sim::NoiseKind::kCpuContention;
  s.node = node;
  s.t_begin = t_begin;
  s.t_end = t_end;
  s.magnitude = magnitude;
  return s;
}

inline sim::NoiseSpec memory_noise(int node, double t_begin, double t_end,
                                   double magnitude = 3.0) {
  sim::NoiseSpec s;
  s.kind = sim::NoiseKind::kMemoryBandwidth;
  s.node = node;
  s.t_begin = t_begin;
  s.t_end = t_end;
  s.magnitude = magnitude;
  return s;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "\n==========================================================\n"
            << title << "\n(paper reference: " << paper << ")\n"
            << "==========================================================\n";
}

// Interpolation-free percentile: the sample at ceil(p * n) - 1 of the
// sorted series, so "p95 of 20 reps" is a value that actually occurred.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (idx > 0 && static_cast<double>(idx) == rank) --idx;
  return samples[std::min(idx, samples.size() - 1)];
}

// Machine-readable regression output for the bench binaries: pass
// `--json PATH` (or `--json=PATH`) and every recorded series is written as
//
//   {"bench": "...", "results": [
//     {"name": "...", "reps": N, "median": X, "p95": Y}, ...]}
//
// scripts/bench.sh collects these into BENCH_*.json files at the repo root
// so successive commits can be diffed numerically instead of by eyeball.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
        path_ = argv[i + 1];
      else if (std::strncmp(argv[i], "--json=", 7) == 0)
        path_ = argv[i] + 7;
    }
  }

  bool enabled() const { return !path_.empty(); }

  // Records one metric series; summary statistics are computed here so the
  // bench keeps its raw samples for its own reporting.
  void record(const std::string& name, const std::vector<double>& samples) {
    Entry e;
    e.name = name;
    e.reps = samples.size();
    e.median = percentile(samples, 0.5);
    e.p95 = percentile(samples, 0.95);
    entries_.push_back(std::move(e));
  }

  // Writes the file when --json was given.  Returns false (with a message
  // on stderr) when the write fails; no-op true otherwise.
  bool write() const {
    if (path_.empty()) return true;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "cannot open --json file " << path_ << "\n";
      return false;
    }
    out << "{\"bench\": \"" << bench_name_ << "\", \"results\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ", " : "") << "\n  {\"name\": \"" << e.name
          << "\", \"reps\": " << e.reps
          << ", \"median\": " << obs::json_number(e.median)
          << ", \"p95\": " << obs::json_number(e.p95) << "}";
    }
    out << "\n]}\n";
    if (!out.good()) {
      std::cerr << "write failed for --json file " << path_ << "\n";
      return false;
    }
    std::cout << "bench JSON -> " << path_ << "\n";
    return true;
  }

 private:
  struct Entry {
    std::string name;
    std::size_t reps = 0;
    double median = 0.0;
    double p95 = 0.0;
  };
  std::string bench_name_;
  std::string path_;
  std::vector<Entry> entries_;
};

// One-line numeric series printer, e.g. for Fig 5 / Fig 19 curves.
inline void print_series(const std::string& name,
                         const std::vector<double>& values, int precision = 3,
                         std::size_t max_points = 30) {
  std::cout << name << ":";
  const std::size_t step =
      values.size() > max_points ? values.size() / max_points : 1;
  for (std::size_t i = 0; i < values.size(); i += step)
    std::cout << ' ' << util::fmt(values[i], precision);
  std::cout << '\n';
}

}  // namespace vapro::bench
