// Figure 5: TOT_INS is a noise-insensitive workload proxy, TSC is not.
//
// The paper runs 16-process B-scale CG, injects a CPU noise (`stress` on
// the application core) and a memory noise (`stream` on idle cores), and
// plots TOT_INS and TSC per execution of one fixed-workload fragment:
// TOT_INS stays flat, TSC jumps under both noises.
#include <cmath>

#include "bench/bench_common.hpp"
#include "src/apps/npb.hpp"
#include "src/core/vapro.hpp"
#include "src/stats/descriptive.hpp"

using namespace vapro;

namespace {

struct Series {
  std::vector<double> tot_ins;
  std::vector<double> tsc;
};

// Runs CG with `noise` and collects TOT_INS/TSC for the members of the
// largest computation cluster on rank 0.
Series collect(const sim::NoiseSpec& noise) {
  sim::SimConfig cfg;
  cfg.ranks = 16;
  cfg.cores_per_node = 16;
  cfg.seed = 77;
  cfg.noises.push_back(noise);
  sim::Simulator simulator(cfg);

  Series series;
  core::VaproOptions opts;
  opts.window_seconds = 1e6;  // one global window
  opts.run_diagnosis = false;
  opts.window_observer = [&](const core::Stg& stg,
                             const core::ClusteringResult& clusters) {
    const core::Cluster* biggest = nullptr;
    for (const auto& c : clusters.clusters) {
      if (c.kind != core::FragmentKind::kComputation || c.rare) continue;
      if (c.seed_norm <= 0) continue;  // skip empty state transitions
      if (!biggest || c.members.size() > biggest->members.size()) biggest = &c;
    }
    if (!biggest) return;
    const core::FragmentColumns& frags = stg.fragments();
    for (std::size_t idx : biggest->members) {
      if (frags.rank(idx) != 0) continue;
      series.tot_ins.push_back(frags.counter(idx, pmu::Counter::kTotIns));
      series.tsc.push_back(frags.counter(idx, pmu::Counter::kTsc));
    }
  };
  core::VaproSession session(simulator, opts);

  apps::NpbParams p;
  p.iters = 25;
  p.warmup_iters = 1;
  simulator.run(apps::cg(p));
  return series;
}

void report(const char* label, const Series& s) {
  std::cout << "\n--- " << label << " ---\n";
  auto normalize = [](std::vector<double> v) {
    const double m = stats::mean(v);
    for (double& x : v) x /= m;
    return v;
  };
  auto ins = normalize(s.tot_ins);
  auto tsc = normalize(s.tsc);
  bench::print_series("TOT_INS (normalized to mean)", ins, 3, 25);
  bench::print_series("TSC     (normalized to mean)", tsc, 3, 25);
  std::cout << "TOT_INS CV: " << util::fmt(100 * stats::coeff_variation(s.tot_ins), 2)
            << "%   TSC CV: " << util::fmt(100 * stats::coeff_variation(s.tsc), 2)
            << "%   (paper: TOT_INS flat, TSC perturbed)\n";
}

}  // namespace

int main() {
  bench::print_header(
      "Fig 5 — proxy-metric stability of fixed-workload fragments",
      "Figure 5: PMU data of CG fragments under computation/memory noise");

  // CPU noise on the application's node for part of the run.
  report("with computation noise (stress on the app cores)",
         collect(bench::cpu_noise(0, 0.05, 0.25, 1.0)));
  // Memory-bandwidth noise on the same node.
  report("with memory noise (stream on idle cores)",
         collect(bench::memory_noise(0, 0.05, 0.25, 3.0)));

  std::cout << "\nconclusion: the workload proxy (TOT_INS) is stable under "
               "both noises while the timing metric (TSC) is not — the basis "
               "for clustering on instructions and detecting on time.\n";
  return 0;
}
