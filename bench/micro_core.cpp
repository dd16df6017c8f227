// Microbenchmarks of the analysis pipeline (google-benchmark).
//
// Backs the paper's lightweight-analysis claims: Algorithm 1 clustering is
// (near-)linear in the number of fragments (§3.4's overhead argument), STG
// ingestion is cheap, the OLS quantifier is negligible at cluster sizes,
// and heat-map deposits/region growing scale with map size.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/core/clustering.hpp"
#include "src/core/detection.hpp"
#include "src/core/diagnosis.hpp"
#include "src/core/heatmap.hpp"
#include "src/core/stg.hpp"
#include "src/sim/engine.hpp"
#include "src/stats/ols.hpp"
#include "src/util/rng.hpp"

namespace vapro {
namespace {

sim::InvocationInfo invocation(sim::CallSiteId site) {
  sim::InvocationInfo info;
  info.site = site;
  info.kind = sim::OpKind::kAllreduce;
  return info;
}

// Builds an STG with `n` computation fragments over `classes` workload
// classes on one edge.  Each fragment's TOT_INS carries 0.3% jitter, so no
// two norms are equal; `tied` drops the jitter, so every norm equals its
// class's.
core::Stg build_stg(std::size_t n, int classes, std::uint64_t seed,
                    bool tied = false) {
  core::Stg stg(core::StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    core::Fragment f;
    f.kind = core::FragmentKind::kComputation;
    f.from = k1;
    f.to = k2;
    f.start_time = 0.001 * static_cast<double>(i);
    f.end_time = f.start_time + 0.0005;
    const int cls = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(classes)));
    const double jitter = rng.normal(1.0, 0.003);
    f.counters[pmu::Counter::kTotIns] =
        1e6 * std::pow(1.3, cls) * (tied ? 1.0 : jitter);
    stg.add_fragment(std::move(f));
  }
  return stg;
}

void BM_ClusteringScaling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Stg stg = build_stg(n, 8, 1);
  for (auto _ : state) {
    auto result = core::cluster_stg(stg, core::ClusterOptions{});
    benchmark::DoNotOptimize(result.clusters.size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ClusteringScaling)->Range(1 << 10, 1 << 17)->Complexity();

// The same shape with every norm tied: the norm sort takes std::sort, as
// on a loop's repeated iterations, where BM_ClusteringScaling's tie-free
// norms take the radix sort.
void BM_ClusteringScalingTied(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Stg stg = build_stg(n, 8, 1, /*tied=*/true);
  for (auto _ : state) {
    auto result = core::cluster_stg(stg, core::ClusterOptions{});
    benchmark::DoNotOptimize(result.clusters.size());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ClusteringScalingTied)->Range(1 << 10, 1 << 17)->Complexity();

void BM_ClusteringParallel(benchmark::State& state) {
  // 64 edges worth of fragments clustered by `threads` workers.
  const int threads = static_cast<int>(state.range(0));
  core::Stg stg(core::StgMode::kContextFree);
  util::Rng rng(3);
  for (int e = 0; e < 64; ++e) {
    auto k1 = stg.touch_vertex(invocation(static_cast<sim::CallSiteId>(2 * e)));
    auto k2 = stg.touch_vertex(invocation(static_cast<sim::CallSiteId>(2 * e + 1)));
    for (int i = 0; i < 2000; ++i) {
      core::Fragment f;
      f.kind = core::FragmentKind::kComputation;
      f.from = k1;
      f.to = k2;
      f.end_time = 0.001;
      f.counters[pmu::Counter::kTotIns] =
          1e6 * (1 + (i % 4)) * rng.normal(1.0, 0.003);
      stg.add_fragment(std::move(f));
    }
  }
  for (auto _ : state) {
    auto result = core::cluster_stg_parallel(stg, core::ClusterOptions{}, threads);
    benchmark::DoNotOptimize(result.clusters.size());
  }
}
BENCHMARK(BM_ClusteringParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_StgIngest(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::Stg stg(core::StgMode::kContextFree);
    auto k1 = stg.touch_vertex(invocation(1));
    auto k2 = stg.touch_vertex(invocation(2));
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      core::Fragment f;
      f.kind = core::FragmentKind::kComputation;
      f.from = k1;
      f.to = k2;
      stg.add_fragment(std::move(f));
    }
    benchmark::DoNotOptimize(stg.fragments().size());
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_StgIngest);

void BM_OlsQuantify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Stg stg(core::StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  util::Rng rng(7);
  std::vector<std::size_t> members;
  pmu::MachineParams machine;
  for (std::size_t i = 0; i < n; ++i) {
    core::Fragment f;
    f.kind = core::FragmentKind::kComputation;
    f.from = k1;
    f.to = k2;
    const double faults = static_cast<double>(rng.uniform_u64(100));
    f.end_time = 0.01 + faults * 5e-5 + rng.normal(0, 1e-5);
    f.counters[pmu::Counter::kPageFaultsSoft] = faults;
    f.counters[pmu::Counter::kCtxSwitchInvoluntary] =
        static_cast<double>(rng.uniform_u64(10));
    members.push_back(stg.add_fragment(std::move(f)));
  }
  for (auto _ : state) {
    auto q = core::ols_quantify(
        stg, members,
        {core::FactorId::kPageFault, core::FactorId::kContextSwitch}, machine);
    benchmark::DoNotOptimize(q.ok);
  }
}
BENCHMARK(BM_OlsQuantify)->Arg(64)->Arg(512)->Arg(4096);

void BM_HeatmapDeposit(benchmark::State& state) {
  util::Rng rng(9);
  for (auto _ : state) {
    core::Heatmap map(256, 0.1);
    for (int i = 0; i < 20000; ++i) {
      const double start = rng.uniform(0, 60);
      map.deposit(static_cast<int>(rng.uniform_u64(256)), start,
                  start + rng.uniform(0.001, 0.2), rng.uniform(0.2, 1.0));
    }
    benchmark::DoNotOptimize(map.bins());
  }
  state.SetItemsProcessed(20000 * state.iterations());
}
BENCHMARK(BM_HeatmapDeposit);

// Growth as a long run sees it: 256 ranks of 0.05 s bins filled one 0.25 s
// window at a time up to 8000 bins (a 10x perfbench long_run), so every
// new column block lands between deposits.
void BM_HeatmapGrowth(benchmark::State& state) {
  constexpr int kRanks = 256, kWindows = 1600;
  util::Rng rng(13);
  std::vector<double> perf(kRanks);
  for (double& p : perf) p = rng.uniform(0.2, 1.0);
  for (auto _ : state) {
    core::Heatmap map(kRanks, 0.05);
    for (int w = 0; w < kWindows; ++w)
      for (int r = 0; r < kRanks; ++r)
        map.deposit(r, w * 0.25, w * 0.25 + 0.25,
                    perf[static_cast<std::size_t>(r)]);
    benchmark::DoNotOptimize(map.allocated_cells());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kRanks) * kWindows *
                          state.iterations());
}
BENCHMARK(BM_HeatmapGrowth)->Unit(benchmark::kMillisecond);

void BM_RegionGrowing(benchmark::State& state) {
  core::Heatmap map(512, 0.1);
  util::Rng rng(11);
  for (int r = 0; r < 512; ++r)
    for (int b = 0; b < 600; ++b)
      map.deposit(r, b * 0.1, b * 0.1 + 0.1, rng.uniform(0.8, 1.0));
  // A few slow patches.
  for (int r = 100; r < 140; ++r)
    for (int b = 50; b < 200; ++b)
      map.deposit(r, b * 0.1, b * 0.1 + 0.1, 0.1);
  for (auto _ : state) {
    auto regions = core::find_variance_regions(map, 0.85);
    benchmark::DoNotOptimize(regions.size());
  }
}
BENCHMARK(BM_RegionGrowing);

void BM_EngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventEngine engine;
    int fired = 0;
    for (int i = 0; i < 100000; ++i)
      engine.schedule_at(static_cast<double>(i % 977), [&fired] { ++fired; });
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(100000 * state.iterations());
}
BENCHMARK(BM_EngineEvents);

// Ablation: clustering-threshold sensitivity (DESIGN.md's ablation list) —
// how cluster counts react to the 5% default.
void BM_ThresholdAblation(benchmark::State& state) {
  const double threshold = static_cast<double>(state.range(0)) / 1000.0;
  core::Stg stg = build_stg(50000, 8, 13);
  core::ClusterOptions opts;
  opts.threshold = threshold;
  std::size_t clusters = 0;
  for (auto _ : state) {
    auto result = core::cluster_stg(stg, opts);
    clusters = result.clusters.size();
    benchmark::DoNotOptimize(clusters);
  }
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK(BM_ThresholdAblation)->Arg(10)->Arg(50)->Arg(200);

}  // namespace
}  // namespace vapro

BENCHMARK_MAIN();
