// Property-based tests: invariants that must hold across randomized inputs
// and parameter sweeps, not just on hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "src/core/clustering.hpp"
#include "src/core/detection.hpp"
#include "src/pmu/core_model.hpp"
#include "src/sim/network.hpp"
#include "src/sim/noise.hpp"
#include "src/stats/dist.hpp"
#include "src/stats/ols.hpp"
#include "src/stats/special.hpp"
#include "src/util/rng.hpp"

namespace vapro {
namespace {

// ---------------------------------------------------------------------
// Core-model monotonicity: more environmental pressure never speeds the
// machine up.  Swept across magnitudes.
// ---------------------------------------------------------------------

class FactorEnv final : public pmu::Environment {
 public:
  double dram = 1.0, l2 = 1.0, share = 1.0, pf = 0.0;
  double dram_factor(const pmu::EnvQuery&) const override { return dram; }
  double l2_factor(const pmu::EnvQuery&) const override { return l2; }
  double cpu_share(const pmu::EnvQuery&) const override { return share; }
  double soft_pf_rate(const pmu::EnvQuery&) const override { return pf; }
};

class DramMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(DramMonotonicity, TimeNondecreasingInDramFactor) {
  pmu::MachineParams params;
  params.time_jitter = 0.0;  // isolate the deterministic part
  pmu::CoreModel model(params, 1);
  FactorEnv weak, strong;
  weak.dram = GetParam();
  strong.dram = GetParam() * 1.5;
  auto w = pmu::ComputeWorkload::memory_bound(1e6);
  const double t_weak = model.execute(w, {0, 0, 0}, weak).cpu_seconds;
  const double t_strong = model.execute(w, {0, 0, 0}, strong).cpu_seconds;
  EXPECT_GT(t_strong, t_weak);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DramMonotonicity,
                         ::testing::Values(1.0, 1.5, 2.0, 4.0, 8.0));

class ShareMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(ShareMonotonicity, WallTimeNonincreasingInShare) {
  pmu::MachineParams params;
  pmu::CoreModel a(params, 1), b(params, 1);
  FactorEnv low, high;
  low.share = GetParam();
  high.share = std::min(1.0, GetParam() + 0.25);
  auto w = pmu::ComputeWorkload::balanced(3e9);  // long → concentrated
  const double t_low = a.execute(w, {0, 0, 0}, low).wall_seconds();
  const double t_high = b.execute(w, {0, 0, 0}, high).wall_seconds();
  EXPECT_GT(t_low, t_high * 0.98);  // allow jitter slack
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShareMonotonicity,
                         ::testing::Values(0.25, 0.4, 0.5, 0.7));

TEST(CoreModelProperty, CountersAreNonnegativeAcrossRandomWorkloads) {
  util::Rng rng(11);
  pmu::MachineParams params;
  pmu::CoreModel model(params, 2);
  FactorEnv env;
  for (int trial = 0; trial < 200; ++trial) {
    pmu::ComputeWorkload w;
    w.instructions = rng.uniform(1e3, 1e8);
    w.mem_refs = w.instructions * rng.uniform(0.0, 0.6);
    w.l1_miss = rng.uniform(0.0, 0.3);
    w.l2_miss = rng.uniform(0.0, 1.0);
    w.l3_miss = rng.uniform(0.0, 1.0);
    env.dram = rng.uniform(1.0, 5.0);
    env.l2 = rng.uniform(1.0, 10.0);
    env.share = rng.uniform(0.2, 1.0);
    env.pf = rng.uniform(0.0, 1e4);
    auto out = model.execute(w, {0, 0, 0}, env);
    EXPECT_GE(out.cpu_seconds, 0.0);
    EXPECT_GE(out.suspended_seconds, 0.0);
    for (double v : out.delta.values) EXPECT_GE(v, 0.0);
    // TSC covers on-CPU cycles.
    EXPECT_GE(out.delta[pmu::Counter::kTsc] + 1.0,
              out.delta[pmu::Counter::kCpuClkUnhalted]);
  }
}

// ---------------------------------------------------------------------
// Clustering invariants under random inputs.
// ---------------------------------------------------------------------

core::Stg random_stg(util::Rng& rng, std::size_t n, int classes) {
  core::Stg stg(core::StgMode::kContextFree);
  sim::InvocationInfo i1, i2;
  i1.site = 1;
  i2.site = 2;
  auto k1 = stg.touch_vertex(i1);
  auto k2 = stg.touch_vertex(i2);
  for (std::size_t i = 0; i < n; ++i) {
    core::Fragment f;
    f.kind = core::FragmentKind::kComputation;
    f.from = k1;
    f.to = k2;
    f.start_time = 0.01 * static_cast<double>(i);
    f.end_time = f.start_time + rng.uniform(0.001, 0.01);
    f.counters[pmu::Counter::kTotIns] =
        1e5 * std::pow(1.4, static_cast<double>(rng.uniform_u64(
                                static_cast<std::uint64_t>(classes)))) *
        rng.normal(1.0, 0.004);
    stg.add_fragment(std::move(f));
  }
  return stg;
}

TEST(ClusteringProperty, PartitionIsCompleteAndDisjoint) {
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    auto stg = random_stg(rng, 500, 6);
    auto result = core::cluster_stg(stg, core::ClusterOptions{});
    std::vector<int> seen(stg.fragments().size(), 0);
    for (const auto& c : result.clusters)
      for (std::size_t idx : c.members) ++seen[idx];
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(ClusteringProperty, MembersLieWithinSeedRadius) {
  util::Rng rng(5);
  core::ClusterOptions opts;
  auto stg = random_stg(rng, 800, 5);
  auto result = core::cluster_stg(stg, opts);
  for (const auto& c : result.clusters) {
    for (std::size_t idx : c.members) {
      auto v = core::make_workload_vector(stg.fragments().materialize(idx),
                                          opts.proxies);
      // Norm distance from the seed is bounded by the threshold radius.
      EXPECT_LE(std::fabs(v.norm() - c.seed_norm),
                std::max(c.seed_norm * opts.threshold, 1e-12) + 1e-9);
    }
  }
}

TEST(ClusteringProperty, SeedNormIsClusterMinimum) {
  util::Rng rng(7);
  auto stg = random_stg(rng, 600, 4);
  auto result = core::cluster_stg(stg, core::ClusterOptions{});
  for (const auto& c : result.clusters) {
    for (std::size_t idx : c.members) {
      auto v = core::make_workload_vector(stg.fragments().materialize(idx),
                                          core::ClusterOptions{}.proxies);
      EXPECT_GE(v.norm() + 1e-9, c.seed_norm);
    }
  }
}

TEST(ClusteringProperty, NarrowerThresholdNeverMergesMore) {
  util::Rng rng(9);
  auto stg = random_stg(rng, 700, 6);
  core::ClusterOptions narrow, wide;
  narrow.threshold = 0.02;
  wide.threshold = 0.10;
  auto n = core::cluster_stg(stg, narrow);
  auto w = core::cluster_stg(stg, wide);
  EXPECT_GE(n.clusters.size(), w.clusters.size());
}

TEST(NormalizationProperty, PerfAlwaysInUnitInterval) {
  util::Rng rng(13);
  auto stg = random_stg(rng, 900, 5);
  auto clusters = core::cluster_stg(stg, core::ClusterOptions{});
  auto normalized = core::normalize_fragments(stg, clusters, nullptr);
  EXPECT_FALSE(normalized.empty());
  for (const auto& nf : normalized) {
    EXPECT_GT(nf.perf, 0.0);
    EXPECT_LE(nf.perf, 1.0);
  }
}

// ---------------------------------------------------------------------
// Statistics identities.
// ---------------------------------------------------------------------

TEST(StatsProperty, CdfsAreMonotone) {
  for (double prev = -1, x = 0.01; x < 40; x *= 1.4) {
    double v = stats::chi2_cdf(x, 4.0);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
  for (double prev = -1, t = -8; t < 8; t += 0.5) {
    double v = stats::student_t_cdf(t, 7.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(StatsProperty, GammaRecurrence) {
  // P(a+1, x) = P(a, x) − x^a e^−x / Γ(a+1).
  for (double a : {0.5, 1.5, 3.0}) {
    for (double x : {0.5, 2.0, 7.0}) {
      const double lhs = stats::gamma_p(a + 1, x);
      const double rhs =
          stats::gamma_p(a, x) -
          std::exp(a * std::log(x) - x - std::lgamma(a + 1.0));
      EXPECT_NEAR(lhs, rhs, 1e-10);
    }
  }
}

TEST(OlsProperty, ResidualsOrthogonalToRegressors) {
  util::Rng rng(17);
  const std::size_t n = 120;
  std::vector<double> x1(n), x2(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0, 1);
    x2[i] = rng.uniform(0, 1);
    y[i] = 2 + x1[i] - 0.5 * x2[i] + rng.normal(0, 0.3);
  }
  auto fit = stats::ols_fit_columns(y, {x1, x2}, true);
  ASSERT_TRUE(fit.ok);
  double dot1 = 0, dot2 = 0, sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = y[i] - fit.intercept - fit.coefficients[0] * x1[i] -
                     fit.coefficients[1] * x2[i];
    dot1 += r * x1[i];
    dot2 += r * x2[i];
    sum += r;
  }
  EXPECT_NEAR(dot1, 0.0, 1e-8);
  EXPECT_NEAR(dot2, 0.0, 1e-8);
  EXPECT_NEAR(sum, 0.0, 1e-8);
}

// ---------------------------------------------------------------------
// Network model sanity across random endpoints.
// ---------------------------------------------------------------------

TEST(NetworkProperty, TimesPositiveAndMonotoneInBytes) {
  sim::Topology topo{96, 24};
  sim::NetworkModel net(sim::NetworkParams{}, topo);
  util::Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    int a = static_cast<int>(rng.uniform_u64(96));
    int b = static_cast<int>(rng.uniform_u64(96));
    double small = net.p2p_time(1e3, a, b, 1.0);
    double large = net.p2p_time(1e6, a, b, 1.0);
    EXPECT_GT(small, 0.0);
    EXPECT_GT(large, small);
  }
}

// ---------------------------------------------------------------------
// Clustering invariants (Algorithm 1): the norm-sorted greedy sweep must
// produce the same clusters regardless of fragment arrival order, and a
// looser threshold can only merge clusters, never split them.
// ---------------------------------------------------------------------

sim::InvocationInfo cluster_call(sim::CallSiteId site) {
  sim::InvocationInfo info;
  info.site = site;
  info.kind = sim::OpKind::kBarrier;
  return info;
}

// One edge populated with computation fragments carrying the given
// TOT_INS workloads, in exactly that order.
core::Stg stg_with_workloads(const std::vector<double>& workloads) {
  core::Stg stg(core::StgMode::kContextFree);
  const core::StateKey a = stg.touch_vertex(cluster_call(1));
  const core::StateKey b = stg.touch_vertex(cluster_call(2));
  double t = 0.0;
  for (double w : workloads) {
    core::Fragment f;
    f.kind = core::FragmentKind::kComputation;
    f.from = a;
    f.to = b;
    f.start_time = t;
    f.end_time = t + 0.01;
    f.counters[pmu::Counter::kTotIns] = w;
    stg.add_fragment(f);
    t += 0.02;
  }
  return stg;
}

// Order-independent fingerprint of a clustering: sorted
// (size, seed_norm, rare) triples.
std::vector<std::tuple<std::size_t, double, bool>> cluster_signature(
    const core::ClusteringResult& result) {
  std::vector<std::tuple<std::size_t, double, bool>> sig;
  for (const core::Cluster& c : result.clusters)
    sig.emplace_back(c.members.size(), c.seed_norm, c.rare);
  std::sort(sig.begin(), sig.end());
  return sig;
}

TEST(ClusteringProperty, StableUnderPermutationOfEqualNormFragments) {
  // Three workload classes, each heavily duplicated so equal-norm ties are
  // the common case, plus a rare singleton.
  std::vector<double> workloads;
  for (int i = 0; i < 8; ++i) workloads.push_back(1000.0);
  for (int i = 0; i < 8; ++i) workloads.push_back(1030.0);  // within 5%
  for (int i = 0; i < 8; ++i) workloads.push_back(2000.0);
  workloads.push_back(9000.0);

  const auto baseline =
      cluster_signature(cluster_stg(stg_with_workloads(workloads),
                                    core::ClusterOptions{}));
  ASSERT_FALSE(baseline.empty());

  util::Rng rng(2024);
  for (int round = 0; round < 16; ++round) {
    // Fisher–Yates on the arrival order.
    std::vector<double> shuffled = workloads;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[rng.uniform_u64(i)]);
    const auto sig = cluster_signature(
        cluster_stg(stg_with_workloads(shuffled), core::ClusterOptions{}));
    EXPECT_EQ(sig, baseline) << "permutation round " << round;
  }
}

TEST(ClusteringProperty, ClusterCountMonotoneInThreshold) {
  util::Rng rng(77);
  for (int round = 0; round < 8; ++round) {
    // Random 1-D workloads spread over a decade: plenty of threshold
    // boundaries to cross as the knob loosens.
    std::vector<double> workloads;
    for (int i = 0; i < 48; ++i)
      workloads.push_back(rng.uniform(1000.0, 10000.0));
    const core::Stg stg = stg_with_workloads(workloads);

    std::size_t prev_count = workloads.size() + 1;
    for (double threshold :
         {0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 3.0, 10.0}) {
      core::ClusterOptions opts;
      opts.threshold = threshold;
      const auto result = cluster_stg(stg, opts);
      // Every fragment lands in exactly one cluster at every threshold.
      std::size_t members = 0;
      for (const core::Cluster& c : result.clusters) members += c.members.size();
      EXPECT_EQ(members, workloads.size());
      EXPECT_LE(result.clusters.size(), prev_count)
          << "threshold " << threshold << " split clusters";
      prev_count = result.clusters.size();
    }
    // Sanity for the sweep itself: the loosest threshold really merges.
    EXPECT_EQ(prev_count, 1u);
  }
}

TEST(NoiseProperty, QuietScheduleIsIdentity) {
  sim::NoiseSchedule quiet;
  for (int n = 0; n < 4; ++n) {
    for (double t : {0.0, 1.0, 100.0}) {
      pmu::EnvQuery q{n, 0, t};
      EXPECT_DOUBLE_EQ(quiet.cpu_share(q), 1.0);
      EXPECT_DOUBLE_EQ(quiet.dram_factor(q), 1.0);
      EXPECT_DOUBLE_EQ(quiet.l2_factor(q), 1.0);
      EXPECT_DOUBLE_EQ(quiet.network_factor(t), 1.0);
      EXPECT_DOUBLE_EQ(quiet.io_factor(t), 1.0);
    }
  }
}

}  // namespace
}  // namespace vapro
