// Tests for the multi-server aggregation layer (§5): sharding, concurrent
// leaf analysis, and root-side merging of heat maps / coverage / findings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/apps/npb.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/client.hpp"
#include "src/core/server_group.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/rng.hpp"

namespace vapro::core {
namespace {

// Drives a simulation into a ServerGroup via a VaproClient, mirroring what
// VaproSession does for a single server.
struct GroupHarness {
  VaproClient client;
  ServerGroup group;

  GroupHarness(sim::Simulator& simulator, int servers,
               ServerOptions opts = {})
      : client(simulator.config().ranks, ClientOptions{}),
        group(simulator.config().ranks, servers, opts) {
    client.configure_counters(group.counters_needed());
    simulator.set_interceptor(&client);
    simulator.add_periodic(0.1, [this](double) {
      group.process_window(client.drain());
      client.configure_counters(group.counters_needed());
    });
  }
};

sim::SimConfig noisy_config() {
  sim::SimConfig cfg;
  cfg.ranks = 32;
  cfg.cores_per_node = 8;
  cfg.seed = 77;
  sim::NoiseSpec dimm;
  dimm.kind = sim::NoiseKind::kSlowDram;
  dimm.node = 2;  // ranks 16-23
  dimm.magnitude = 3.0;
  cfg.noises.push_back(dimm);
  return cfg;
}

TEST(ServerGroup, LeafExceptionReachesTheCaller) {
  // One leaf's window observer throws.  Serial leaves rethrow it from
  // process_window; pipelined leaves from the next sync().
  for (const int depth : {1, 2}) {
    SCOPED_TRACE(depth);
    ServerOptions opts;
    opts.run_diagnosis = false;
    opts.pipeline_depth = depth;
    std::atomic<int> observed{0};
    opts.window_observer = [&observed](const Stg&, const ClusteringResult&) {
      if (observed.fetch_add(1) == 0) throw std::runtime_error("leaf boom");
    };
    ServerGroup group(4, 2, opts);
    FragmentBatch batch;
    for (int rank = 0; rank < 4; ++rank) {
      Fragment f;
      f.rank = rank;
      f.from = 1;
      f.to = 2;
      f.start_time = 0.01 * rank;
      f.end_time = f.start_time + 0.005;
      batch.fragments.push_back(f);
    }
    if (depth == 1) {
      EXPECT_THROW(group.process_window(std::move(batch)), std::runtime_error);
    } else {
      group.process_window(std::move(batch));
      EXPECT_THROW(group.sync(), std::runtime_error);
    }
    EXPECT_NO_THROW(group.sync());
    EXPECT_EQ(observed.load(), 2);
  }
}

TEST(ServerGroup, ShardsProcessEveryFragment) {
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 4);
  apps::NpbParams p;
  p.iters = 30;
  simulator.run(apps::cg(p));
  EXPECT_GT(harness.group.fragments_processed(), 500u);
  EXPECT_EQ(harness.group.servers(), 4);
  // Every leaf got some work (ranks are block-cyclic over shards).
  for (int s = 0; s < 4; ++s)
    EXPECT_GT(harness.group.leaf(s).fragments_processed(), 50u);
}

TEST(ServerGroup, MergedMapDetectsTheSameRegion) {
  // Run the same program through 1 server and through 4 shards; the merged
  // detection must localize the same ranks.
  auto locate_with = [&](int servers) {
    sim::Simulator simulator(noisy_config());
    GroupHarness harness(simulator, servers);
    apps::NekboneParams p;
    p.iters = 150;
    simulator.run(apps::nekbone(p));
    return harness.group.locate(FragmentKind::kComputation);
  };
  auto single = locate_with(1);
  auto sharded = locate_with(4);
  ASSERT_FALSE(single.empty());
  ASSERT_FALSE(sharded.empty());
  EXPECT_EQ(single.front().rank_lo, sharded.front().rank_lo);
  EXPECT_EQ(single.front().rank_hi, sharded.front().rank_hi);
  EXPECT_NEAR(single.front().mean_perf, sharded.front().mean_perf, 0.05);
}

TEST(ServerGroup, CoverageAggregatesAcrossLeaves) {
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 4);
  apps::NpbParams p;
  p.iters = 30;
  auto result = simulator.run(apps::cg(p));
  double total = 0;
  for (double t : result.finish_times) total += t;
  auto cov = harness.group.merged_coverage();
  EXPECT_GT(cov.coverage(total), 0.3);
  // Merged coverage equals the sum of leaf coverages.
  double leaf_sum = 0;
  for (int s = 0; s < 4; ++s)
    leaf_sum += harness.group.leaf(s).coverage().covered_total();
  EXPECT_NEAR(cov.covered_total(), leaf_sum, 1e-9);
}

TEST(ServerGroup, DiagnosisCulpritsSurfaceAtRoot) {
  sim::Simulator simulator(noisy_config());
  GroupHarness harness(simulator, 2);
  apps::NekboneParams p;
  p.iters = 250;
  simulator.run(apps::nekbone(p));
  auto culprits = harness.group.merged_culprits();
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits.front(), FactorId::kDramBound);
}

// A random window: per rank, a few computation fragments along one STG
// edge, some stretched (slow cells), and now and then a rank whose window
// reaches back into old columns, so a refresh must re-merge from there.
FragmentBatch random_window(util::Rng& rng, int ranks, int window,
                            int fragments_per_rank) {
  FragmentBatch batch;
  sim::InvocationInfo info;
  info.site = 7;
  info.kind = sim::OpKind::kAllreduce;
  const StateKey key = make_state_key(StgMode::kContextFree, info);
  batch.new_states.push_back(info);
  for (int rank = 0; rank < ranks; ++rank) {
    double t = window * 0.25;
    if (window > 0 && rng.bernoulli(0.1)) t = rng.uniform(0.0, t);
    for (int i = 0; i < fragments_per_rank; ++i) {
      Fragment f;
      f.kind = FragmentKind::kComputation;
      f.rank = rank;
      f.from = key;
      f.to = key;
      f.start_time = t;
      f.end_time =
          t + 0.01 * rng.uniform(1.0, 1.05) * (rng.bernoulli(0.1) ? 2.0 : 1.0);
      f.counters[pmu::Counter::kTotIns] = 1e6;
      batch.fragments.push_back(f);
      t = f.end_time + 0.002;
    }
  }
  return batch;
}

using LeafMap = const Heatmap& (AnalysisServer::*)() const;
constexpr LeafMap kLeafMaps[] = {&AnalysisServer::computation_map,
                                 &AnalysisServer::communication_map,
                                 &AnalysisServer::io_map};

// The root's persistent maps are refreshed from the lowest column any
// leaf wrote; after every window they must equal a merge from empty, cell
// for cell, and its regions a from-scratch pass over that merge.
TEST(ServerGroup, RootMapsEqualAFreshMergeAfterEveryWindow) {
  util::Rng rng(19);
  for (const int servers : {2, 3, 4})
    for (const int depth : {1, 2})
      for (const bool publish : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "servers=" << servers
                                          << " depth=" << depth
                                          << " publish=" << publish);
        constexpr int kRanks = 12;
        obs::ObsContext ctx;  // with obs, every window publishes (refreshes)
        ServerOptions opts;
        opts.run_diagnosis = false;
        opts.bin_seconds = 0.05;
        opts.pipeline_depth = depth;
        opts.obs = publish ? &ctx : nullptr;
        ServerGroup group(kRanks, servers, opts);
        for (int w = 0; w < 24; ++w) {
          group.process_window(random_window(rng, kRanks, w, 6));
          for (int k = 0; k < 3; ++k) {
            const auto kind = static_cast<FragmentKind>(k);
            Heatmap fresh(kRanks, opts.bin_seconds);
            for (int i = 0; i < servers; ++i)
              fresh.merge((group.leaf(i).*kLeafMaps[k])());
            const Heatmap merged = group.merged_map(kind);
            ASSERT_EQ(merged.bins(), fresh.bins()) << "window " << w;
            int differing = 0;
            for (int r = 0; r < kRanks; ++r)
              for (int b = 0; b < fresh.bins(); ++b)
                differing += merged.weight(r, b) != fresh.weight(r, b) ||
                             merged.has_data(r, b) != fresh.has_data(r, b) ||
                             (fresh.has_data(r, b) &&
                              merged.cell(r, b) != fresh.cell(r, b));
            EXPECT_EQ(differing, 0) << "window " << w << " kind " << k;
            EXPECT_EQ(group.locate(kind),
                      find_variance_regions(fresh, opts.variance_threshold))
                << "window " << w << " kind " << k;
          }
        }
        EXPECT_FALSE(group.locate(FragmentKind::kComputation).empty());
      }
}

// /v1 scrapes refresh the root from the serve thread while windows run;
// they must neither race the leaves nor change what the group reports.
TEST(ServerGroup, ConcurrentScrapesLeaveOutputsUnchanged) {
  auto run = [](bool scrape) {
    util::Rng rng(5);
    obs::ObsContext ctx;
    ctx.enable_journal();
    ServerOptions opts;
    opts.run_diagnosis = false;
    opts.bin_seconds = 0.05;
    opts.pipeline_depth = 2;
    opts.obs = &ctx;
    ServerGroup group(12, 3, opts);
    std::atomic<bool> done{false};
    std::thread scraper([&] {
      while (scrape && !done.load()) {
        group.render_heatmap_json();
        group.render_variance_json();
      }
    });
    for (int w = 0; w < 30; ++w)
      group.process_window(random_window(rng, 12, w, 6));
    done = true;
    scraper.join();
    group.sync();
    return group.render_heatmap_json() + group.render_variance_json();
  };
  EXPECT_EQ(run(true), run(false));
}

// A one-leaf, depth-1 group analyzes its leaf on the calling thread, so
// its tool time cannot exceed the wall time of its windows: the root
// charges only its demux and publish, the leaf its own analysis.
TEST(ServerGroup, ToolTimeCountsTheLeafOnce) {
  util::Rng rng(3);
  obs::ObsContext ctx;
  ServerOptions opts;
  opts.run_diagnosis = false;
  opts.obs = &ctx;
  ServerGroup group(64, 1, opts);
  double wall = 0.0;
  for (int w = 0; w < 10; ++w) {
    FragmentBatch batch = random_window(rng, 64, w, 100);
    const auto t0 = std::chrono::steady_clock::now();
    group.process_window(std::move(batch));
    wall += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
  }
  EXPECT_GT(ctx.overhead().tool_seconds(), 0.0);
  EXPECT_LE(ctx.overhead().tool_seconds(), wall + 1e-6);
}

TEST(ServerGroup, HeatmapMergeIsExactForDisjointRanks) {
  Heatmap a(4, 0.5), b(4, 0.5);
  a.deposit(0, 0.0, 1.0, 0.5);
  b.deposit(2, 0.0, 2.0, 0.9);
  a.merge(b);
  EXPECT_NEAR(a.cell(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(a.cell(2, 3), 0.9, 1e-12);
  EXPECT_FALSE(a.has_data(1, 0));
  EXPECT_EQ(a.bins(), 5);  // [0,2) touches bins 0-3; bin 4 is the empty edge
}

TEST(ServerGroup, HeatmapMergeRejectsMismatchedGeometry) {
  Heatmap a(4, 0.5), b(4, 0.25);
  EXPECT_DEATH(a.merge(b), "bin_seconds");
}

}  // namespace
}  // namespace vapro::core
