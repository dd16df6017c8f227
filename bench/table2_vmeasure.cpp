// Table 2: verification of fixed-workload identification against ground
// truth, scored with completeness (C), homogeneity (H) and V-measure.
//
// The instrumented ground truth is the per-workload class id every app
// attaches to its compute blocks (the simulated analogue of the paper's
// hot-spot path instrumentation).  Expected shape: C = H = V = 1.00 for
// CG/FT/EP; PageRank has perfect completeness but imperfect homogeneity
// (two nearly equal workloads merged, paper: H = 0.74).
#include "bench/bench_common.hpp"
#include "src/apps/npb.hpp"
#include "src/apps/threaded.hpp"
#include "src/core/vapro.hpp"

using namespace vapro;

namespace {

struct Scored {
  std::size_t fragments;
  stats::VMeasure v;
};

Scored score(const sim::Simulator::RankProgram& program, int ranks) {
  sim::SimConfig cfg;
  cfg.ranks = ranks;
  cfg.cores_per_node = 16;
  cfg.seed = 2;
  sim::Simulator simulator(cfg);
  core::VaproOptions opts;
  opts.window_seconds = 1e6;  // single global window — whole-run clustering
  opts.run_diagnosis = false;
  opts.record_eval_pairs = true;
  std::size_t labelled = 0;
  opts.window_observer = [&](const core::Stg& stg,
                             const core::ClusteringResult&) {
    const core::FragmentColumns& frags = stg.fragments();
    for (std::size_t i = 0; i < frags.size(); ++i) {
      if (frags.kind(i) == core::FragmentKind::kComputation &&
          frags.truth_class(i) >= 0)
        ++labelled;
    }
  };
  core::VaproSession session(simulator, opts);
  simulator.run(program);
  return Scored{labelled, session.clustering_quality()};
}

}  // namespace

int main() {
  bench::print_header("Table 2 — fixed-workload identification quality",
                      "Table 2: C/H/V scores, 16 processes or threads");

  util::TextTable table({"app", "labelled fragments", "C", "H", "V"});
  auto add = [&](const char* name, const Scored& s) {
    table.add_row({name, std::to_string(s.fragments),
                   util::fmt(s.v.completeness, 2), util::fmt(s.v.homogeneity, 2),
                   util::fmt(s.v.v_measure, 2)});
  };

  apps::NpbParams cg_p;
  cg_p.iters = 80;
  add("CG", score(apps::cg(cg_p), 16));

  apps::NpbParams ft_p;
  ft_p.iters = 40;
  add("FT", score(apps::ft(ft_p), 16));

  apps::NpbParams ep_p;
  ep_p.iters = 10;
  add("EP", score(apps::ep(ep_p), 16));

  apps::ThreadedParams pr_p;
  pr_p.iters = 42;
  add("PageRank", score(apps::pagerank(pr_p), 16));

  table.print(std::cout);
  std::cout << "\npaper values: CG/FT/EP all 1.00; PageRank C=1.00, H=0.74, "
               "V=0.85 (near-equal workloads merged below the 5% threshold "
               "— harmless for detecting significant variance).\n"
            << "note FT: its statically-provable loops wobble ±8% at "
               "runtime, so clustering splits them into *separate pure* "
               "clusters — C stays 1 per this metric only when each class "
               "maps into one cluster; the wobble classes are scored by the "
               "truth labels attached per class.\n";
  return 0;
}
