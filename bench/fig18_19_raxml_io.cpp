// Figures 18 & 19: RAxML's IO variance on the shared filesystem, and the
// file-buffer fix.
//
// Fig 18 — the first process merges many small files; the IO heat map shows
// its IO performance far below the (IO-idle) rest.  Fig 19 — per-operation
// times of the consecutive fixed-workload read/write fragments.
// The paper's fix (a small file buffer) cut the execution-time σ by 73.5%
// and gave a 17.5% speedup across consecutive executions.
#include "bench/bench_common.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/vapro.hpp"
#include "src/stats/descriptive.hpp"
#include "src/util/csv.hpp"
#include "src/util/rng.hpp"

using namespace vapro;

namespace {

sim::SimConfig raxml_config(std::uint64_t seed, util::Rng& lottery) {
  sim::SimConfig cfg;
  cfg.ranks = 128;
  cfg.cores_per_node = 24;
  cfg.seed = seed;
  // The shared filesystem sees interference from other tenants in random
  // windows — the source of the run-to-run spread.
  for (int burst = 0; burst < 3; ++burst) {
    if (!lottery.bernoulli(0.7)) continue;
    sim::NoiseSpec io;
    io.kind = sim::NoiseKind::kIoInterference;
    io.t_begin = lottery.uniform(0.0, 1.5);
    io.t_end = io.t_begin + lottery.uniform(0.2, 1.0);
    io.magnitude = lottery.uniform(3.0, 12.0);
    cfg.noises.push_back(io);
  }
  return cfg;
}

apps::RaxmlParams raxml_params(bool buffered) {
  apps::RaxmlParams p;
  p.io_rounds = 400;
  p.compute_iters = 400;
  p.scale = 1.0;
  p.buffered = buffered;
  return p;
}

}  // namespace

int main() {
  bench::print_header("Fig 18 — IO performance heat map of RAxML",
                      "Figure 18: 512-process RAxML (here: 128), rank 0 slow");

  std::vector<double> read_times, write_times;
  {
    util::Rng lottery(181);
    sim::Simulator simulator(raxml_config(18, lottery));
    core::VaproOptions opts;
    opts.window_seconds = 0.3;
    opts.bin_seconds = 0.15;
    opts.window_observer = [&](const core::Stg& stg,
                               const core::ClusteringResult&) {
      const core::FragmentColumns& frags = stg.fragments();
      for (std::size_t i = 0; i < frags.size(); ++i) {
        if (frags.kind(i) != core::FragmentKind::kIo || frags.rank(i) != 0)
          continue;
        if (frags.op(i) == sim::OpKind::kFileRead)
          read_times.push_back(frags.duration(i));
        if (frags.op(i) == sim::OpKind::kFileWrite)
          write_times.push_back(frags.duration(i));
      }
    };
    core::VaproSession session(simulator, opts);
    simulator.run(apps::raxml(raxml_params(false)));

    std::cout << "IO heat map, first 12 ranks (only rank 0 performs IO):\n";
    const auto& map = session.io_map();
    for (int r = 0; r < 12; ++r) {
      std::cout << "rank " << r << " |";
      for (int b = 0; b < std::min(60, map.bins()); ++b) {
        double v = map.cell(r, b);
        std::cout << (std::isnan(v) ? '?' : (v < 0.5 ? '#' : v < 0.85 ? '+' : ' '));
      }
      std::cout << "|\n";
    }
    std::cout << session.detection_summary() << '\n';

    bench::print_header("Fig 19 — consecutive fixed-workload IO operations",
                        "Figure 19: read/write times of the small-file merge");
    bench::print_series("read  op time (ms)", [&] {
      std::vector<double> v;
      for (double t : read_times) v.push_back(t * 1e3);
      return v;
    }(), 2, 40);
    bench::print_series("write op time (ms)", [&] {
      std::vector<double> v;
      for (double t : write_times) v.push_back(t * 1e3);
      return v;
    }(), 2, 40);
    util::CsvWriter csv("/tmp/vapro_fig19_io_ops.csv");
    csv.write_row(std::vector<std::string>{"op_index", "read_s", "write_s"});
    for (std::size_t i = 0; i < std::min(read_times.size(), write_times.size()); ++i)
      csv.write_row(std::vector<double>{static_cast<double>(i), read_times[i],
                                        write_times[i]});
    std::cout << "series written to /tmp/vapro_fig19_io_ops.csv\n"
              << "paper shape: heavy-tailed op times with bursts during "
                 "filesystem interference.\n";
  }

  bench::print_header("the fix — file buffer (paper §6.5.3)",
                      "σ −73.5%, +17.5% speedup over 10 consecutive runs");
  std::vector<double> t_plain, t_buffered;
  for (int run = 0; run < 10; ++run) {
    util::Rng lottery(500 + static_cast<std::uint64_t>(run));
    {
      sim::Simulator simulator(
          raxml_config(900 + static_cast<std::uint64_t>(run), lottery));
      t_plain.push_back(simulator.run(apps::raxml(raxml_params(false))).makespan);
    }
    util::Rng lottery2(500 + static_cast<std::uint64_t>(run));
    {
      sim::Simulator simulator(
          raxml_config(900 + static_cast<std::uint64_t>(run), lottery2));
      t_buffered.push_back(
          simulator.run(apps::raxml(raxml_params(true))).makespan);
    }
  }
  std::cout << "10 consecutive executions, unbuffered: ["
            << util::fmt(stats::min(t_plain), 2) << ", "
            << util::fmt(stats::max(t_plain), 2) << "] s (paper: 41.1-68.0 s)\n"
            << "10 consecutive executions, buffered:   ["
            << util::fmt(stats::min(t_buffered), 2) << ", "
            << util::fmt(stats::max(t_buffered), 2) << "] s\n"
            << "stddev " << util::fmt(stats::stddev(t_plain), 3) << " → "
            << util::fmt(stats::stddev(t_buffered), 3) << " s: reduction "
            << util::fmt(100 * (1 - stats::stddev(t_buffered) / stats::stddev(t_plain)), 1)
            << "% (paper: 73.5%)\n"
            << "mean speedup "
            << util::fmt(stats::mean(t_plain) / stats::mean(t_buffered), 3)
            << "x (paper: 1.175x)\n";
  return 0;
}
