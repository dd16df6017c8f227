// Unit tests for the Vapro core detection pipeline: STG construction,
// Algorithm 1 clustering (including parameterized threshold sweeps),
// normalization, coverage, heat maps, and region growing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "src/core/clustering.hpp"
#include "src/core/detection.hpp"
#include "src/core/heatmap.hpp"
#include "src/core/stg.hpp"
#include "src/util/rng.hpp"

namespace vapro::core {
namespace {

sim::InvocationInfo invocation(sim::CallSiteId site,
                               std::vector<std::uint32_t> path = {},
                               sim::OpKind kind = sim::OpKind::kAllreduce) {
  sim::InvocationInfo info;
  info.rank = 0;
  info.site = site;
  info.kind = kind;
  info.path = std::move(path);
  return info;
}

Fragment comp_fragment(StateKey from, StateKey to, double start, double dur,
                       double tot_ins, int rank = 0,
                       std::int64_t truth = -1) {
  Fragment f;
  f.kind = FragmentKind::kComputation;
  f.rank = rank;
  f.from = from;
  f.to = to;
  f.start_time = start;
  f.end_time = start + dur;
  f.counters[pmu::Counter::kTotIns] = tot_ins;
  f.truth_class = truth;
  return f;
}

// --- STG ---

TEST(Stg, ContextFreeKeyIgnoresPath) {
  auto a = make_state_key(StgMode::kContextFree, invocation(5, {1, 2}));
  auto b = make_state_key(StgMode::kContextFree, invocation(5, {9}));
  EXPECT_EQ(a, b);
  auto c = make_state_key(StgMode::kContextFree, invocation(6));
  EXPECT_NE(a, c);
}

TEST(Stg, ContextAwareKeySplitsByPath) {
  auto a = make_state_key(StgMode::kContextAware, invocation(5, {1, 2}));
  auto b = make_state_key(StgMode::kContextAware, invocation(5, {9}));
  auto c = make_state_key(StgMode::kContextAware, invocation(5, {1, 2}));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

TEST(Stg, KeyNeverCollidesWithStart) {
  for (sim::CallSiteId s = 0; s < 1000; ++s) {
    EXPECT_NE(make_state_key(StgMode::kContextFree, invocation(s)),
              kStartState);
  }
}

TEST(Stg, VerticesAndEdgesGrow) {
  Stg stg(StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  EXPECT_EQ(stg.vertex_count(), 2u);
  stg.touch_vertex(invocation(1));  // idempotent
  EXPECT_EQ(stg.vertex_count(), 2u);

  stg.add_fragment(comp_fragment(k1, k2, 0.0, 0.1, 1000));
  stg.add_fragment(comp_fragment(k1, k2, 0.2, 0.1, 1000));
  stg.add_fragment(comp_fragment(k2, k1, 0.4, 0.1, 500));
  EXPECT_EQ(stg.edge_count(), 2u);
  EXPECT_EQ(stg.fragments().size(), 3u);
}

TEST(Stg, VertexFragmentsAttach) {
  Stg stg(StgMode::kContextFree);
  auto k = stg.touch_vertex(invocation(3));
  Fragment f;
  f.kind = FragmentKind::kCommunication;
  f.to = k;
  f.from = k;
  f.args.bytes = 64;
  stg.add_fragment(f);
  EXPECT_EQ(stg.vertices().at(k).fragments.size(), 1u);
}

TEST(Stg, StateNameIsHumanReadable) {
  Stg stg(StgMode::kContextAware);
  auto k = stg.touch_vertex(invocation(7, {1, 2}, sim::OpKind::kSend));
  auto name = stg.state_name(k);
  EXPECT_NE(name.find("Send"), std::string::npos);
  EXPECT_NE(name.find("site7"), std::string::npos);
  EXPECT_NE(name.find("1/2"), std::string::npos);
  EXPECT_EQ(stg.state_name(kStartState), "<start>");
}

TEST(Stg, ClearFragmentsKeepsStructure) {
  Stg stg(StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  stg.add_fragment(comp_fragment(k1, k2, 0, 0.1, 100));
  stg.clear_fragments();
  EXPECT_EQ(stg.fragments().size(), 0u);
  EXPECT_EQ(stg.vertex_count(), 2u);
  EXPECT_EQ(stg.edge_count(), 1u);
  EXPECT_TRUE(stg.edges().begin()->second.fragments.empty());
}

// --- workload vectors ---

TEST(WorkloadVector, NormAndDistance) {
  WorkloadVector a{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  WorkloadVector b{{0.0, 0.0}};
  EXPECT_DOUBLE_EQ(a.distance(b), 5.0);
}

TEST(WorkloadVector, CommFragmentsUseArgs) {
  Fragment f;
  f.kind = FragmentKind::kCommunication;
  f.args.bytes = 4096;
  f.args.peer = 3;
  f.op = sim::OpKind::kSend;
  auto v = make_workload_vector(f, {});
  ASSERT_EQ(v.dims.size(), 3u);
  EXPECT_DOUBLE_EQ(v.dims[0], 4096);
  // Different peer → different vector even with equal bytes.
  Fragment g = f;
  g.args.peer = 4;
  EXPECT_GT(make_workload_vector(g, {}).distance(v), 0.0);
}

// --- clustering (Algorithm 1) ---

class ClusteringFixture : public ::testing::Test {
 protected:
  Stg stg_{StgMode::kContextFree};
  StateKey k1_ = stg_.touch_vertex(invocation(1));
  StateKey k2_ = stg_.touch_vertex(invocation(2));

  // Adds n fragments of tot_ins each on edge k1→k2.
  void add_class(int n, double tot_ins, std::int64_t truth,
                 double duration = 0.01) {
    for (int i = 0; i < n; ++i)
      stg_.add_fragment(comp_fragment(k1_, k2_, 0.1 * i, duration, tot_ins,
                                      /*rank=*/0, truth));
  }
};

TEST_F(ClusteringFixture, SeparatesDistantClasses) {
  add_class(10, 1000, 0);
  add_class(10, 2000, 1);
  auto result = cluster_stg(stg_, ClusterOptions{});
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0].members.size(), 10u);
  EXPECT_EQ(result.clusters[1].members.size(), 10u);
  EXPECT_FALSE(result.clusters[0].rare);
}

TEST_F(ClusteringFixture, MergesWithinThreshold) {
  // 2% apart — below the 5% threshold (the PageRank case).
  add_class(10, 1000, 0);
  add_class(10, 1020, 1);
  auto result = cluster_stg(stg_, ClusterOptions{});
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].members.size(), 20u);
}

TEST_F(ClusteringFixture, RareClustersFlagged) {
  add_class(10, 1000, 0);
  add_class(3, 5000, 1);  // fewer than min_cluster_size
  auto result = cluster_stg(stg_, ClusterOptions{});
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_FALSE(result.clusters[0].rare);
  EXPECT_TRUE(result.clusters[1].rare);
  EXPECT_EQ(result.rare_count(), 1u);
}

TEST_F(ClusteringFixture, SeedIsLeastNorm) {
  add_class(5, 3000, 0);
  add_class(5, 1000, 1);
  auto result = cluster_stg(stg_, ClusterOptions{});
  ASSERT_EQ(result.clusters.size(), 2u);
  // Clusters are seeded smallest-norm first.
  EXPECT_LT(result.clusters[0].seed_norm, result.clusters[1].seed_norm);
  EXPECT_DOUBLE_EQ(result.clusters[0].seed_norm, 1000.0);
}

TEST_F(ClusteringFixture, AssignmentCoversEveryFragment) {
  add_class(7, 1000, 0);
  add_class(4, 1500, 1);
  add_class(9, 9000, 2);
  auto result = cluster_stg(stg_, ClusterOptions{});
  // Every STG fragment is a member of exactly one cluster.
  std::vector<int> seen(stg_.fragments().size(), 0);
  for (const Cluster& c : result.clusters)
    for (std::size_t frag : c.members) {
      ASSERT_LT(frag, seen.size());
      ++seen[frag];
    }
  for (std::size_t frag = 0; frag < seen.size(); ++frag)
    EXPECT_EQ(seen[frag], 1) << "fragment " << frag;
}

TEST_F(ClusteringFixture, SeparateEdgesNeverMix) {
  StateKey k3 = stg_.touch_vertex(invocation(3));
  stg_.add_fragment(comp_fragment(k1_, k2_, 0, 0.01, 1000));
  stg_.add_fragment(comp_fragment(k2_, k3, 0, 0.01, 1000));
  auto result = cluster_stg(stg_, ClusterOptions{});
  // Same workload on different edges → two clusters.
  EXPECT_EQ(result.clusters.size(), 2u);
}

TEST_F(ClusteringFixture, ParallelMatchesSerial) {
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i)
    add_class(1, 1000 * (1 + (i % 7)), i % 7);
  auto serial = cluster_stg(stg_, ClusterOptions{});
  auto parallel = cluster_stg_parallel(stg_, ClusterOptions{}, 4);
  ASSERT_EQ(serial.clusters.size(), parallel.clusters.size());
  for (std::size_t i = 0; i < serial.clusters.size(); ++i) {
    const std::span<const std::size_t> a = serial.clusters[i].members;
    const std::span<const std::size_t> b = parallel.clusters[i].members;
    EXPECT_EQ(std::vector<std::size_t>(a.begin(), a.end()),
              std::vector<std::size_t>(b.begin(), b.end()));
  }
}

TEST_F(ClusteringFixture, ZeroNormFragmentsCluster) {
  add_class(6, 0.0, 0);
  auto result = cluster_stg(stg_, ClusterOptions{});
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].members.size(), 6u);
}

// Parameterized sweep: classes exactly `gap` apart must merge iff
// gap < threshold (property of Algorithm 1's radius rule).
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, MergeIffWithinThreshold) {
  const double gap = GetParam();
  Stg stg(StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  for (int i = 0; i < 8; ++i)
    stg.add_fragment(comp_fragment(k1, k2, 0.1 * i, 0.01, 1000));
  for (int i = 0; i < 8; ++i)
    stg.add_fragment(comp_fragment(k1, k2, 0.1 * i, 0.01, 1000 * (1 + gap)));
  ClusterOptions opts;
  opts.threshold = 0.05;
  auto result = cluster_stg(stg, opts);
  if (gap < 0.05) {
    EXPECT_EQ(result.clusters.size(), 1u) << "gap=" << gap;
  } else {
    EXPECT_EQ(result.clusters.size(), 2u) << "gap=" << gap;
  }
}

INSTANTIATE_TEST_SUITE_P(Gaps, ThresholdSweep,
                         ::testing::Values(0.005, 0.01, 0.02, 0.04, 0.06,
                                           0.10, 0.25, 1.0));

// --- normalization & baseline ---

TEST(Detection, FastestFragmentNormalizesToOne) {
  Stg stg(StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  for (int i = 0; i < 6; ++i)
    stg.add_fragment(
        comp_fragment(k1, k2, 0.1 * i, i == 0 ? 0.01 : 0.02, 1000));
  auto clusters = cluster_stg(stg, ClusterOptions{});
  auto normalized = normalize_fragments(stg, clusters, nullptr);
  ASSERT_EQ(normalized.size(), 6u);
  double best = 0, worst = 1;
  for (const auto& nf : normalized) {
    best = std::max(best, nf.perf);
    worst = std::min(worst, nf.perf);
  }
  EXPECT_DOUBLE_EQ(best, 1.0);
  EXPECT_NEAR(worst, 0.5, 1e-9);
}

TEST(Detection, RareClustersAreNotNormalized) {
  Stg stg(StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  stg.add_fragment(comp_fragment(k1, k2, 0, 0.01, 1000));  // single → rare
  auto clusters = cluster_stg(stg, ClusterOptions{});
  auto normalized = normalize_fragments(stg, clusters, nullptr);
  EXPECT_TRUE(normalized.empty());
}

TEST(Detection, BaselineCarriesMinimumAcrossWindows) {
  ClusterBaseline baseline(0.05);
  Cluster c;
  c.from = 1;
  c.to = 2;
  c.kind = FragmentKind::kComputation;
  c.seed_norm = 1000;
  EXPECT_DOUBLE_EQ(baseline.update(c, 0.010), 0.010);
  // Later window only saw slower executions: min must persist.
  EXPECT_DOUBLE_EQ(baseline.update(c, 0.020), 0.010);
  // A faster execution updates it.
  EXPECT_DOUBLE_EQ(baseline.update(c, 0.008), 0.008);
}

TEST(Detection, BaselineSeparatesWorkloadClasses) {
  ClusterBaseline baseline(0.05);
  Cluster a, b;
  a.from = b.from = 1;
  a.to = b.to = 2;
  a.kind = b.kind = FragmentKind::kComputation;
  a.seed_norm = 1000;
  b.seed_norm = 2000;  // different class, far outside one threshold bucket
  EXPECT_DOUBLE_EQ(baseline.update(a, 0.010), 0.010);
  EXPECT_DOUBLE_EQ(baseline.update(b, 0.050), 0.050);
  EXPECT_EQ(baseline.size(), 2u);
}

TEST(Detection, CoverageAccumulatorSplitsRareFromRepeated) {
  Stg stg(StgMode::kContextFree);
  auto k1 = stg.touch_vertex(invocation(1));
  auto k2 = stg.touch_vertex(invocation(2));
  for (int i = 0; i < 10; ++i)
    stg.add_fragment(comp_fragment(k1, k2, 0.1 * i, 0.01, 1000));
  stg.add_fragment(comp_fragment(k1, k2, 2.0, 0.5, 77777));  // rare
  auto clusters = cluster_stg(stg, ClusterOptions{});
  CoverageAccumulator cov;
  cov.add(stg, clusters);
  EXPECT_NEAR(cov.covered[0], 0.1, 1e-9);
  EXPECT_NEAR(cov.observed[0], 0.6, 1e-9);
  EXPECT_NEAR(cov.coverage(1.0), 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(cov.coverage(0.0), 0.0);
}

// --- heat map & region growing ---

TEST(Heatmap, DepositSplitsAcrossBins) {
  Heatmap map(2, 1.0);
  map.deposit(0, 0.5, 2.5, 0.8);  // spans bins 0,1,2
  EXPECT_NEAR(map.weight(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(map.weight(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(map.weight(0, 2), 0.5, 1e-12);
  EXPECT_NEAR(map.cell(0, 1), 0.8, 1e-12);
  EXPECT_FALSE(map.has_data(1, 0));
  EXPECT_TRUE(std::isnan(map.cell(1, 0)));
}

TEST(Heatmap, CellAveragesAreWeighted) {
  Heatmap map(1, 1.0);
  map.deposit(0, 0.0, 1.0, 1.0);   // weight 1 at perf 1
  map.deposit(0, 0.0, 0.5, 0.5);   // weight 0.5 at perf 0.5
  EXPECT_NEAR(map.cell(0, 0), (1.0 * 1.0 + 0.5 * 0.5) / 1.5, 1e-12);
}

TEST(Heatmap, RowMeanIgnoresEmptyBins) {
  Heatmap map(1, 1.0);
  map.deposit(0, 0.0, 1.0, 0.6);
  map.deposit(0, 5.0, 6.0, 0.8);
  EXPECT_NEAR(map.row_mean(0), 0.7, 1e-12);
}

// The map grows by whole column blocks: after every deposit it holds
// exactly the blocks its bins need, and growing moves no written cell, so
// every earlier cell keeps its bits.
TEST(Heatmap, GrowingKeepsEveryCellAndAllocatesWholeBlocks) {
  constexpr int kRanks = 3, kBins = 300;
  constexpr std::size_t kBlock = Heatmap::kBlockBins;
  auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  Heatmap map(kRanks, 0.1);
  // Per (bin, rank) in that order: the bits of cell() and weight().
  std::vector<std::pair<std::uint64_t, std::uint64_t>> earlier;
  for (int bin = 0; bin < kBins; ++bin) {
    map.deposit(bin % kRanks, bin * 0.1, bin * 0.1 + 0.05, 0.01 * bin);
    ASSERT_EQ(map.bins(), bin + 1);
    const std::size_t blocks =
        (static_cast<std::size_t>(bin) + kBlock) / kBlock;
    EXPECT_EQ(map.allocated_cells(), kRanks * kBlock * blocks) << bin;
    for (std::size_t i = 0; i < earlier.size(); ++i) {
      const int b = static_cast<int>(i) / kRanks;
      const int r = static_cast<int>(i) % kRanks;
      ASSERT_EQ(bits(map.cell(r, b)), earlier[i].first) << r << ',' << b;
      ASSERT_EQ(bits(map.weight(r, b)), earlier[i].second) << r << ',' << b;
    }
    for (int r = 0; r < kRanks; ++r)
      earlier.emplace_back(bits(map.cell(r, bin)), bits(map.weight(r, bin)));
  }
  for (int bin = 0; bin < kBins; ++bin)
    for (int rank = 0; rank < kRanks; ++rank)
      if (rank == bin % kRanks)
        EXPECT_NEAR(map.cell(rank, bin), 0.01 * bin, 1e-12);
      else
        EXPECT_FALSE(map.has_data(rank, bin));
}

// A deposit past ranks × bins = kMaxCells is refused and counted before
// the map allocates anything: at 64 ranks and 0.25 s bins, a fragment at
// 2e8 s would need 8e8 bins (5.1e10 cells), one at 1e12 s 4e12 bins.
TEST(Heatmap, RefusesADepositPastTheCellLimit) {
  constexpr int kRanks = 64;
  Heatmap map(kRanks, 0.25);
  EXPECT_EQ(Heatmap::max_bins(kRanks), Heatmap::kMaxCells / kRanks);
  map.deposit(3, 0.0, 1.0, 0.5);
  const int bins = map.bins();
  const std::size_t cells = map.allocated_cells();
  const std::uint64_t writes = map.writes();
  for (const double t : {2e8, 1e12}) map.deposit(5, t, t + 0.1, 0.5);
  EXPECT_EQ(map.refused_deposits(), 2u);
  // So is one that ends exactly at the first bin past the limit.
  map.deposit(5, 0.0, Heatmap::max_bins(kRanks) * 0.25, 0.5);
  EXPECT_EQ(map.refused_deposits(), 3u);
  EXPECT_EQ(map.bins(), bins);
  EXPECT_EQ(map.allocated_cells(), cells);
  EXPECT_EQ(map.writes(), writes);
  EXPECT_EQ(map.first_column_written_after(writes), bins);
  EXPECT_FALSE(map.has_data(5, 0));
  EXPECT_EQ(map.cell(3, 0), 0.5);
}

TEST(Heatmap, WriteStampsNameTheLowestColumnWritten) {
  Heatmap map(2, 1.0);
  EXPECT_EQ(map.first_column_written_after(0), 0);  // empty map
  map.deposit(0, 0.0, 6.0, 1.0);
  const std::uint64_t seen = map.writes();
  EXPECT_EQ(map.first_column_written_after(seen), map.bins());
  map.deposit(1, 3.5, 4.5, 1.0);
  map.deposit(1, 5.0, 5.5, 1.0);
  EXPECT_EQ(map.first_column_written_after(seen), 3);
  EXPECT_EQ(map.first_column_written_after(seen + 1), 5);
}

// The group root's suffix refresh: clear_from and merge(other, from)
// rewrite only columns at or above `from`, and each stamps that column.
TEST(Heatmap, MergeFromAndClearFromStampTheirFirstColumn) {
  Heatmap leaf(2, 1.0);
  leaf.deposit(0, 0.0, 3.5, 0.5);
  Heatmap root(2, 1.0);
  root.merge(leaf);
  EXPECT_EQ(root.bins(), leaf.bins());

  std::uint64_t seen = root.writes();
  root.clear_from(2);
  EXPECT_EQ(root.first_column_written_after(seen), 2);
  EXPECT_EQ(root.bins(), leaf.bins());  // cleared columns stay
  EXPECT_EQ(root.weight(0, 1), leaf.weight(0, 1));
  EXPECT_FALSE(root.has_data(0, 2));
  EXPECT_FALSE(root.has_data(0, 3));

  seen = root.writes();
  root.merge(leaf, 2);
  EXPECT_EQ(root.first_column_written_after(seen), 2);
  for (int bin = 0; bin < leaf.bins(); ++bin) {
    EXPECT_EQ(root.weight(0, bin), leaf.weight(0, bin)) << bin;
    EXPECT_EQ(root.cell(0, bin), leaf.cell(0, bin)) << bin;
  }

  // Nothing at or above `from`: no write, no stamp.
  seen = root.writes();
  root.merge(leaf, leaf.bins());
  root.clear_from(root.bins());
  EXPECT_EQ(root.writes(), seen);

  // A merge from a column past the root's end grows the root.
  leaf.deposit(1, 6.0, 7.5, 0.9);
  root.merge(leaf, 6);
  EXPECT_EQ(root.first_column_written_after(seen), 6);
  EXPECT_EQ(root.bins(), leaf.bins());
  EXPECT_EQ(root.cell(1, 7), leaf.cell(1, 7));
  EXPECT_FALSE(root.has_data(1, 5));
}

// Regression: a start below 0 indexed before the row, and a NaN start
// made the bin cast undefined.
TEST(Heatmap, DepositRejectsTimesOutsideTheMap) {
  EXPECT_DEATH(Heatmap(2, 0.05).deposit(0, -0.3, 0.1, 0.5),
               "outside the heat map");
  EXPECT_DEATH(Heatmap(2, 0.05).deposit(0, std::nan(""), 0.1, 0.5),
               "outside the heat map");
  EXPECT_DEATH(Heatmap(2, 0.05).deposit(0, 0.1, INFINITY, 0.5),
               "outside the heat map");
}

TEST(Heatmap, AsciiAndCsvRender) {
  Heatmap map(4, 0.5);
  map.deposit(1, 0.0, 2.0, 0.2);
  map.deposit(0, 0.0, 2.0, 1.0);
  auto ascii = map.render_ascii();
  EXPECT_NE(ascii.find("rank"), std::string::npos);
  const std::string path = "/tmp/vapro_heatmap_test.csv";
  map.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("rank\\time_s"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RegionGrowing, FindsASingleBlock) {
  Heatmap map(8, 1.0);
  // Background at perf 1, a 3-rank × 4-bin hole at 0.4.
  for (int r = 0; r < 8; ++r) map.deposit(r, 0.0, 10.0, 1.0);
  for (int r = 2; r <= 4; ++r) map.deposit(r, 3.0, 7.0, 0.05);
  auto regions = find_variance_regions(map, 0.85);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].rank_lo, 2);
  EXPECT_EQ(regions[0].rank_hi, 4);
  EXPECT_EQ(regions[0].bin_lo, 3);
  EXPECT_EQ(regions[0].bin_hi, 6);
  EXPECT_EQ(regions[0].cells, 12u);
  EXPECT_LT(regions[0].mean_perf, 0.85);
  EXPECT_GT(regions[0].impact_seconds, 0.0);
}

TEST(RegionGrowing, SeparatesDisconnectedRegions) {
  Heatmap map(8, 1.0);
  for (int r = 0; r < 8; ++r) map.deposit(r, 0.0, 10.0, 1.0);
  map.deposit(0, 1.0, 2.0, 0.1);
  map.deposit(7, 8.0, 9.0, 0.1);
  auto regions = find_variance_regions(map, 0.85);
  EXPECT_EQ(regions.size(), 2u);
}

TEST(RegionGrowing, SortsByImpact) {
  Heatmap map(4, 1.0);
  for (int r = 0; r < 4; ++r) map.deposit(r, 0.0, 10.0, 1.0);
  map.deposit(0, 1.0, 2.0, 0.5);   // small impact
  map.deposit(2, 4.0, 9.0, 0.1);   // large impact
  auto regions = find_variance_regions(map, 0.85);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_GT(regions[0].impact_seconds, regions[1].impact_seconds);
  EXPECT_EQ(regions[0].rank_lo, 2);
}

TEST(RegionGrowing, QuietCellsAreNotVariance) {
  Heatmap map(4, 1.0);
  map.deposit(1, 0.0, 1.0, 1.0);
  // No data anywhere else; threshold must not fire on empty cells.
  EXPECT_TRUE(find_variance_regions(map, 0.85).empty());
}

// Parameterized: the region-growing threshold is a strict cut.
class RegionThreshold : public ::testing::TestWithParam<double> {};

TEST_P(RegionThreshold, CellBelowThresholdIffDetected) {
  const double perf = GetParam();
  Heatmap map(1, 1.0);
  map.deposit(0, 0.0, 1.0, perf);
  auto regions = find_variance_regions(map, 0.85);
  if (perf < 0.85) {
    EXPECT_EQ(regions.size(), 1u);
  } else {
    EXPECT_TRUE(regions.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Cuts, RegionThreshold,
                         ::testing::Values(0.1, 0.5, 0.84, 0.86, 0.95, 1.0));

}  // namespace
}  // namespace vapro::core
