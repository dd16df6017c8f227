// Staged-pipeline scaling: windows/sec of the analysis server across
// analysis-thread counts (1/2/4) and pipeline depths (1/2), on a
// clustering-dominant synthetic workload.
//
// Guards the concurrency PR's acceptance bar: 4 analysis threads at
// pipeline depth 2 must reach >= 2x the windows/sec of the fully serial
// configuration (1 thread, depth 1).  Depth 2 overlaps the producer's
// window assembly ("drain") with the worker's analysis; extra threads
// split the per-window clustering across STG edges/vertices.  The outputs
// are byte-identical in every cell of the grid — only throughput moves —
// which tool_vapro_stress_equivalence proves separately.
//
// Beyond throughput, each cell reports where the shard pool's time went:
// per-lane busy-seconds series, their total/max, and the imbalance ratio
// (max lane busy / mean lane busy — 1.0 is a perfect split), so a scaling
// regression is attributable to skewed sharding vs hand-off stalls from
// the same JSON.  The 2x bar is enforced only on hosts with >= 4
// *physical* cores (SMT siblings share execution units and cannot honor
// it); elsewhere the grid and JSON are informational.
//
//   pipeline_scaling [--json PATH]    (scripts/bench.sh -> BENCH_pipeline.json)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/server.hpp"
#include "src/core/stg.hpp"
#include "src/obs/latency.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace {

using namespace vapro;

// Clustering-dominant shape: many call sites -> many STG edge/vertex work
// items for the thread pool, many fragments per item so each is worth
// parallelizing, diagnosis off so clustering dominates the window.
constexpr int kRanks = 64;
constexpr int kSites = 40;
constexpr int kReps = 24;
constexpr int kWindows = 10;
constexpr double kWindowSeconds = 0.25;

// One window of synthetic client data (the vapro_stress generator shape,
// chaos-free): per rank, `kReps` loops over the site ring, an edge
// fragment before each invocation and a vertex fragment for it.  Built on
// the producer thread inside the timed region — this IS the drain work the
// pipeline overlaps with analysis.
core::FragmentBatch make_window(int window, util::Rng& rng) {
  core::FragmentBatch batch;
  std::vector<core::StateKey> keys(kSites);
  for (int s = 0; s < kSites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(100 + s);
    info.kind = s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
    keys[static_cast<std::size_t>(s)] =
        core::make_state_key(core::StgMode::kContextFree, info);
    batch.new_states.push_back(info);
  }

  const int steps = kSites * kReps;
  const double step_seconds = kWindowSeconds / (steps + 1);
  batch.fragments.reserve(
      static_cast<std::size_t>(kRanks) * static_cast<std::size_t>(steps) * 2);
  for (int rank = 0; rank < kRanks; ++rank) {
    core::StateKey prev = core::kStartState;
    double t = window * kWindowSeconds;
    for (int step = 0; step < steps; ++step) {
      const int s = step % kSites;
      const core::StateKey key = keys[static_cast<std::size_t>(s)];

      core::Fragment comp;
      comp.kind = core::FragmentKind::kComputation;
      comp.rank = rank;
      comp.from = prev;
      comp.to = key;
      comp.start_time = t;
      comp.end_time = t + step_seconds * 0.7 * rng.uniform(0.98, 1.02);
      comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
      batch.fragments.push_back(comp);
      t = comp.end_time;

      core::Fragment inv;
      inv.op = s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
      inv.kind = s % 3 == 2 ? core::FragmentKind::kIo
                            : core::FragmentKind::kCommunication;
      inv.rank = rank;
      inv.from = key;
      inv.to = key;
      inv.start_time = t;
      inv.end_time = t + step_seconds * 0.3 * rng.uniform(0.98, 1.02);
      // Per-rank workload vectors on a constant-norm circle: every rank's
      // (bytes, peer) pair has the same magnitude but a distinct angle, so
      // the norm-sorted sweep must distance-check the whole same-norm run
      // for each seed — the worst case the threaded clustering speeds up.
      const double radius = 4096.0 * (1 + s);
      const double angle =
          0.08 + 1.45 * std::fmod(0.61803398875 * (rank + 1), 1.0);
      inv.args.bytes = radius * std::cos(angle);
      inv.args.peer = static_cast<int>(radius * std::sin(angle));
      inv.args.fd = s % 3 == 2 ? 3 : -1;
      batch.fragments.push_back(inv);
      t = inv.end_time;
      prev = key;
    }
  }
  return batch;
}

// One timed pass and where its wall time went: producer seconds spent
// assembling batches (the drain stage), analysis-stage seconds (inline at
// depth 1, on the worker otherwise), and producer seconds blocked on a
// full hand-off queue (backpressure).
struct ConfigRun {
  double windows_per_sec = 0.0;
  double drain_busy_seconds = 0.0;
  double analysis_busy_seconds = 0.0;
  double producer_block_seconds = 0.0;  // push blocked on a full queue
  double consumer_idle_seconds = 0.0;   // worker waited on an empty queue
  double handoff_wait_seconds = 0.0;    // enqueue -> dequeue latency sum
  // Shard-pool occupancy (empty / zero when analysis is serial).
  std::vector<double> shard_lane_busy;  // busy seconds per pool lane
  double shard_busy_seconds = 0.0;      // sum over lanes
  double shard_imbalance = 1.0;         // max lane busy / mean lane busy
  double shard_idle_seconds = 0.0;      // lanes waiting for a fan-out
};

// Physical cores, not SMT siblings: unique (physical id, core id) pairs
// from /proc/cpuinfo.  A hyperthread pair shares execution units, so two
// SMT siblings cannot deliver the 2x the bar demands.  Falls back to
// hardware_concurrency() when the file is absent or lists no core ids.
unsigned physical_cores() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::set<std::pair<int, int>> cores;
  int package = 0;
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 11, "physical id") == 0)
      package = std::atoi(line.c_str() + colon + 1);
    else if (line.compare(0, 7, "core id") == 0)
      cores.emplace(package, std::atoi(line.c_str() + colon + 1));
  }
  if (!cores.empty()) return static_cast<unsigned>(cores.size());
  return std::thread::hardware_concurrency();
}

// One timed pass: construct the server, feed kWindows windows (assembling
// each batch on this thread), sync.
ConfigRun run_config(int threads, int depth) {
  core::ServerOptions sopts;
  sopts.analysis_threads = threads;
  sopts.pipeline_depth = depth;
  sopts.run_diagnosis = false;
  sopts.bin_seconds = 0.1;
  // A tight threshold keeps the constant-norm ranks in separate clusters
  // (more seeds -> more sweep passes -> more parallelizable work).
  sopts.cluster.threshold = 0.01;
  core::AnalysisServer server(kRanks, sopts);
  util::Rng rng(7);

  ConfigRun run;
  const auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < kWindows; ++w) {
    const auto d0 = std::chrono::steady_clock::now();
    core::FragmentBatch batch = make_window(w, rng);
    const double drain =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - d0)
            .count();
    run.drain_busy_seconds += drain;
    server.process_window(std::move(batch), drain);
  }
  server.sync();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const core::PipelineBreakdown breakdown = server.pipeline_breakdown();
  run.analysis_busy_seconds = breakdown.analysis_busy_seconds;
  run.producer_block_seconds = breakdown.queue_stall_seconds;
  run.consumer_idle_seconds = breakdown.consumer_idle_seconds;
  run.handoff_wait_seconds = breakdown.handoff_wait_seconds;
  run.shard_lane_busy = breakdown.shard_busy_seconds;
  double max_lane = 0.0;
  for (double b : run.shard_lane_busy) {
    run.shard_busy_seconds += b;
    max_lane = std::max(max_lane, b);
  }
  const double mean_lane =
      run.shard_lane_busy.empty()
          ? 0.0
          : run.shard_busy_seconds / static_cast<double>(run.shard_lane_busy.size());
  run.shard_imbalance = mean_lane > 0.0 ? max_lane / mean_lane : 1.0;
  run.shard_idle_seconds = breakdown.shard_idle_seconds;
  run.windows_per_sec = kWindows / wall;
  if (std::getenv("PIPE_DEBUG") != nullptr) {
    const obs::CriticalPathTracker::Summary sum =
        server.latency_tracker().summary();
    std::cout << "t" << threads << "d" << depth << " wall=" << wall;
    for (std::size_t s = 0; s < obs::kStageCount; ++s)
      std::cout << ' ' << obs::kStageNames[s] << '=' << sum.stage_seconds[s];
    std::cout << '\n';
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Staged-pipeline scaling: windows/sec by threads x depth",
      "repo acceptance: >= 2x serial at 4 threads, depth 2");
  bench::JsonReport json("pipeline_scaling", argc, argv);

  constexpr int kRepeats = 7;
  struct Cell {
    int threads = 0, depth = 0;
    std::vector<double> wps, drain, busy, block, idle, handoff;
    std::vector<double> shard_busy, shard_imbal, shard_idle;
    // lane_busy[k] is lane k's busy-seconds series across repeats.
    std::vector<std::vector<double>> lane_busy;
  };
  std::vector<Cell> grid(6);
  constexpr int kThreads[] = {1, 2, 4, 1, 2, 4};
  constexpr int kDepths[] = {1, 1, 1, 2, 2, 2};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].threads = kThreads[i];
    grid[i].depth = kDepths[i];
  }
  // Warm allocator/caches once, then interleave the grid inside each
  // repeat so machine-wide drift hits every cell equally.
  run_config(1, 1);
  for (int r = 0; r < kRepeats; ++r)
    for (Cell& c : grid) {
      const ConfigRun run = run_config(c.threads, c.depth);
      c.wps.push_back(run.windows_per_sec);
      c.drain.push_back(run.drain_busy_seconds);
      c.busy.push_back(run.analysis_busy_seconds);
      c.block.push_back(run.producer_block_seconds);
      c.idle.push_back(run.consumer_idle_seconds);
      c.handoff.push_back(run.handoff_wait_seconds);
      c.shard_busy.push_back(run.shard_busy_seconds);
      c.shard_imbal.push_back(run.shard_imbalance);
      c.shard_idle.push_back(run.shard_idle_seconds);
      if (c.lane_busy.size() < run.shard_lane_busy.size())
        c.lane_busy.resize(run.shard_lane_busy.size());
      for (std::size_t k = 0; k < run.shard_lane_busy.size(); ++k)
        c.lane_busy[k].push_back(run.shard_lane_busy[k]);
    }

  const double serial = bench::percentile(grid[0].wps, 0.5);
  util::TextTable table({"threads", "depth", "windows/sec", "p95", "speedup",
                         "drain_s", "analysis_s", "block_s", "idle_s",
                         "shard_s", "imbal"});
  double best_speedup = 0.0;
  for (Cell& c : grid) {
    const double median = bench::percentile(c.wps, 0.5);
    // p95 of the *time* tail is the 5th percentile of throughput.
    const double p95 = bench::percentile(c.wps, 0.05);
    const double speedup = median / serial;
    best_speedup = std::max(best_speedup, speedup);
    table.add_row({std::to_string(c.threads), std::to_string(c.depth),
                   util::fmt(median, 2), util::fmt(p95, 2),
                   util::fmt(speedup, 2) + "x",
                   util::fmt(bench::percentile(c.drain, 0.5), 4),
                   util::fmt(bench::percentile(c.busy, 0.5), 4),
                   util::fmt(bench::percentile(c.block, 0.5), 4),
                   util::fmt(bench::percentile(c.idle, 0.5), 4),
                   util::fmt(bench::percentile(c.shard_busy, 0.5), 4),
                   util::fmt(bench::percentile(c.shard_imbal, 0.5), 2)});
    const std::string cell =
        "_t" + std::to_string(c.threads) + "_d" + std::to_string(c.depth);
    json.record("windows_per_sec" + cell, c.wps);
    // Per-stage wall-time breakdown: producer batch assembly (drain),
    // analysis-stage occupancy, and the stall split — producer blocked on
    // a full hand-off queue (backpressure: analysis is the bottleneck) vs
    // consumer idle on an empty one (starvation: the drain is), plus the
    // enqueue->dequeue hand-off latency.  At depth 2 drain + analysis
    // overlap, so their sum exceeding the pass wall time is the pipelining
    // working as intended.
    json.record("drain_busy_seconds" + cell, c.drain);
    json.record("analysis_busy_seconds" + cell, c.busy);
    json.record("producer_block_seconds" + cell, c.block);
    json.record("consumer_idle_seconds" + cell, c.idle);
    json.record("handoff_wait_seconds" + cell, c.handoff);
    // Shard-pool occupancy: total busy across lanes, the max/mean lane
    // imbalance, lane idle time, and each lane's own busy series — a bad
    // speedup with imbal near 1.0 points at hand-off stalls, imbal well
    // above 1.0 at skewed edge partitioning.
    if (c.threads > 1) {
      json.record("shard_busy_seconds" + cell, c.shard_busy);
      json.record("shard_imbalance" + cell, c.shard_imbal);
      json.record("shard_idle_seconds" + cell, c.shard_idle);
      for (std::size_t k = 0; k < c.lane_busy.size(); ++k)
        json.record("shard_lane" + std::to_string(k) + "_busy_seconds" + cell,
                    c.lane_busy[k]);
    }
  }
  table.print(std::cout);

  const double target = bench::percentile(grid.back().wps, 0.5) / serial;
  std::cout << "4 threads + depth 2: " << util::fmt(target, 2)
            << "x serial (bar: >= 2x)\n";
  if (!json.write()) return 1;
  // The bar measures parallel speedup, so it needs parallel hardware: the
  // worker thread + the producer + >= 2 effective clustering threads — and
  // PHYSICAL cores at that, since SMT siblings share execution units and
  // a 2-core/4-thread host cannot honor 2x.  On smaller hosts (CI
  // containers are often 1-2 vCPUs) the grid and JSON are still reported —
  // scaling there measures scheduler overhead, not the pipeline — but the
  // bar is informational only.
  const unsigned cores = physical_cores();
  if (cores < 4) {
    std::cout << "note: " << cores << " physical core(s) available; the 2x "
              << "bar needs >= 4 — reporting only\n";
    return 0;
  }
  if (target < 2.0) {
    std::cout << "WARNING: pipeline scaling below the 2x bar\n";
    return 1;
  }
  return 0;
}
