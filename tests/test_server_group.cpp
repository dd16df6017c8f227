// Tests for the multi-server aggregation layer (§5): sharding, concurrent
// leaf analysis, and root-side merging of heat maps / coverage / findings.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "src/apps/npb.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/client.hpp"
#include "src/core/server_group.hpp"
#include "src/sim/runtime.hpp"

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
