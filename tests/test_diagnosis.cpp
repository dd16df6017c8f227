// Unit tests for the breakdown model and the diagnosis pipeline: factor
// tree shape, formula quantification, OLS quantification (and the §4.2
// formula-vs-OLS consistency claim), contribution analysis, and the
// progressive stage machine.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/breakdown.hpp"
#include "src/core/clustering.hpp"
#include "src/core/diagnosis.hpp"
#include "src/core/stg.hpp"
#include "src/util/rng.hpp"

namespace vapro::core {
namespace {

using pmu::Counter;

pmu::MachineParams machine() { return pmu::MachineParams{}; }

// --- breakdown tree ---

TEST(Breakdown, S1FactorsAreRootChildren) {
  auto s1 = children_of(FactorId::kRoot);
  EXPECT_EQ(s1.size(), 5u);
  for (FactorId f : s1) {
    EXPECT_EQ(factor_def(f).stage, 1);
    EXPECT_EQ(factor_def(f).parent, FactorId::kRoot);
  }
}

TEST(Breakdown, BackendDecomposesIntoCoreAndMemory) {
  auto kids = children_of(FactorId::kBackend);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], FactorId::kCoreBound);
  EXPECT_EQ(kids[1], FactorId::kMemoryBound);
}

TEST(Breakdown, MemoryBoundHasFourCacheLevels) {
  EXPECT_EQ(children_of(FactorId::kMemoryBound).size(), 4u);
}

TEST(Breakdown, SuspensionChildrenAreCountFactors) {
  for (FactorId f : children_of(FactorId::kSuspension)) {
    EXPECT_FALSE(factor_def(f).time_quantified)
        << std::string(factor_name(f));
  }
}

TEST(Breakdown, LeavesHaveNoChildren) {
  for (FactorId f : {FactorId::kL2Bound, FactorId::kSoftPageFault,
                     FactorId::kInvoluntaryCs, FactorId::kRetiring}) {
    EXPECT_TRUE(children_of(f).empty());
  }
}

TEST(Breakdown, EveryStageFitsThePmuBudget) {
  // The raison d'être of progressive diagnosis: each frontier must need at
  // most 4 programmable counters.
  auto check = [](const std::vector<FactorId>& frontier) {
    EXPECT_LE(counters_for(frontier).size(), 4u);
  };
  check(children_of(FactorId::kRoot));
  auto s2_backend = children_of(FactorId::kBackend);
  auto s2_susp = children_of(FactorId::kSuspension);
  s2_backend.insert(s2_backend.end(), s2_susp.begin(), s2_susp.end());
  check(s2_backend);
  check(children_of(FactorId::kMemoryBound));
  // ...but all stages together do NOT fit — the budget forces staging.
  std::vector<FactorId> everything;
  for (int i = 1; i < kFactorCount; ++i)
    everything.push_back(static_cast<FactorId>(i));
  EXPECT_GT(counters_for(everything).size(), 4u);
}

TEST(Breakdown, FormulaValuesMatchHandComputation) {
  pmu::MachineParams m = machine();
  pmu::CounterSample d;
  d[Counter::kSlotsFrontend] = 8.8e9;  // 1 second worth of slots
  d[Counter::kTsc] = 2 * 2.2e9;
  d[Counter::kCpuClkUnhalted] = 2.2e9;
  d[Counter::kSlotsBackend] = 4.4e9;
  d[Counter::kStallsCore] = 2.2e9;
  EXPECT_NEAR(factor_value(FactorId::kFrontend, d, m), 1.0, 1e-12);
  EXPECT_NEAR(factor_value(FactorId::kSuspension, d, m), 1.0, 1e-12);
  EXPECT_NEAR(factor_value(FactorId::kBackend, d, m), 0.5, 1e-12);
  EXPECT_NEAR(factor_value(FactorId::kCoreBound, d, m), 0.25, 1e-12);
  EXPECT_NEAR(factor_value(FactorId::kMemoryBound, d, m), 0.25, 1e-12);
}

TEST(Breakdown, CountFactorsReturnCounts) {
  pmu::CounterSample d;
  d[Counter::kPageFaultsSoft] = 10;
  d[Counter::kPageFaultsHard] = 3;
  d[Counter::kCtxSwitchVoluntary] = 7;
  pmu::MachineParams m = machine();
  EXPECT_DOUBLE_EQ(factor_value(FactorId::kPageFault, d, m), 13.0);
  EXPECT_DOUBLE_EQ(factor_value(FactorId::kSoftPageFault, d, m), 10.0);
  EXPECT_DOUBLE_EQ(factor_value(FactorId::kVoluntaryCs, d, m), 7.0);
}

// --- synthetic cluster builder ---

// Builds one edge with `n` fragments: baseline duration `base`, and
// `slow_every`-th fragments slowed by `factor_id` with `extra` seconds
// (factor counters adjusted to match).
struct SyntheticCluster {
  Stg stg{StgMode::kContextFree};
  StateKey k1, k2;

  SyntheticCluster() {
    sim::InvocationInfo i1, i2;
    i1.site = 1;
    i2.site = 2;
    k1 = stg.touch_vertex(i1);
    k2 = stg.touch_vertex(i2);
  }

  void add(double duration, const pmu::CounterSample& counters, double start) {
    Fragment f;
    f.kind = FragmentKind::kComputation;
    f.from = k1;
    f.to = k2;
    f.start_time = start;
    f.end_time = start + duration;
    f.counters = counters;
    stg.add_fragment(f);
  }
};

// Baseline counter sample for a fragment of `seconds` pure backend time.
pmu::CounterSample base_sample(double seconds, const pmu::MachineParams& m) {
  pmu::CounterSample d;
  const double slots = seconds * m.frequency_hz * m.pipeline_width;
  d[Counter::kTotIns] = slots * 0.5;
  d[Counter::kSlotsRetiring] = slots * 0.5;
  d[Counter::kSlotsFrontend] = slots * 0.1;
  d[Counter::kSlotsBadSpec] = slots * 0.05;
  d[Counter::kSlotsBackend] = slots * 0.35;
  d[Counter::kStallsCore] = slots * 0.15;
  d[Counter::kStallsL1] = slots * 0.05;
  d[Counter::kStallsL2] = slots * 0.05;
  d[Counter::kStallsL3] = slots * 0.03;
  d[Counter::kStallsDram] = slots * 0.07;
  d[Counter::kTsc] = seconds * m.frequency_hz;
  d[Counter::kCpuClkUnhalted] = seconds * m.frequency_hz;
  return d;
}

// --- OLS quantification ---

TEST(OlsQuantify, RecoversInjectedPageFaultCost) {
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  util::Rng rng(3);
  const double per_fault = 5e-5;
  for (int i = 0; i < 120; ++i) {
    const double faults = static_cast<double>(rng.uniform_u64(200));
    pmu::CounterSample d = base_sample(0.010, m);
    d[Counter::kPageFaultsSoft] = faults;
    const double dur = 0.010 + faults * per_fault + rng.normal(0, 1e-5);
    d[Counter::kTsc] = dur * m.frequency_hz;
    syn.add(dur, d, 0.1 * i);
  }
  std::vector<std::size_t> members(120);
  for (std::size_t i = 0; i < 120; ++i) members[i] = i;
  auto q = ols_quantify(syn.stg, members, {FactorId::kPageFault}, m);
  ASSERT_TRUE(q.ok);
  EXPECT_GT(q.r_squared, 0.95);
  ASSERT_EQ(q.estimates.size(), 1u);
  EXPECT_TRUE(q.estimates[0].significant);
  // Total seconds attributable ≈ per_fault × Σ faults.
  double total_faults = 0;
  for (std::size_t i = 0; i < members.size(); ++i)
    total_faults += syn.stg.fragments().counters(i)[Counter::kPageFaultsSoft];
  EXPECT_NEAR(q.estimates[0].total_seconds, per_fault * total_faults,
              0.1 * per_fault * total_faults);
}

TEST(OlsQuantify, ConstantFactorsAreFlagged) {
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  for (int i = 0; i < 30; ++i) syn.add(0.01, base_sample(0.01, m), 0.1 * i);
  std::vector<std::size_t> members(30);
  for (std::size_t i = 0; i < 30; ++i) members[i] = i;
  auto q = ols_quantify(syn.stg, members, {FactorId::kPageFault}, m);
  ASSERT_EQ(q.estimates.size(), 1u);
  EXPECT_TRUE(q.estimates[0].constant);
}

TEST(OlsQuantify, TooFewFragmentsReturnsNotOk) {
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  syn.add(0.01, base_sample(0.01, m), 0);
  auto q = ols_quantify(syn.stg, {0}, {FactorId::kPageFault}, m);
  EXPECT_FALSE(q.ok);
}

// §4.2's verification: the OLS estimate of a *time-quantified* factor
// agrees with the formula-based value.
TEST(OlsQuantify, AgreesWithFormulaForBackendBound) {
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  util::Rng rng(7);
  double formula_total = 0.0;
  for (int i = 0; i < 150; ++i) {
    // Backend-bound time varies per fragment; duration follows it 1:1.
    const double backend_extra = rng.uniform(0.0, 0.02);
    pmu::CounterSample d = base_sample(0.010, m);
    const double extra_slots =
        backend_extra * m.frequency_hz * m.pipeline_width;
    d[Counter::kSlotsBackend] += extra_slots;
    d[Counter::kStallsDram] += extra_slots;
    const double dur = 0.010 + backend_extra + rng.normal(0, 2e-5);
    d[Counter::kTsc] = dur * m.frequency_hz;
    d[Counter::kCpuClkUnhalted] = dur * m.frequency_hz;
    syn.add(dur, d, 0.1 * i);
    formula_total += factor_value(FactorId::kBackend, d, m);
  }
  std::vector<std::size_t> members(150);
  for (std::size_t i = 0; i < 150; ++i) members[i] = i;
  auto q = ols_quantify(syn.stg, members, {FactorId::kBackend}, m);
  ASSERT_TRUE(q.ok);
  ASSERT_TRUE(q.estimates[0].significant);
  // OLS attributes the *varying* part; compare the delta totals: both
  // methods must attribute the same variable seconds (±15%, as in the
  // paper's 89.4% vs 86.6% check).
  const double varying_formula = formula_total - 150 * 0.010 * 0.35;
  EXPECT_NEAR(q.estimates[0].total_seconds / varying_formula, 1.0, 0.3);
}

// --- contribution analysis ---

TEST(Contribution, BlamesTheInjectedFactor) {
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  // 20 normal fragments, 10 abnormal with DRAM-bound excess.
  for (int i = 0; i < 20; ++i) syn.add(0.010, base_sample(0.010, m), 0.1 * i);
  for (int i = 0; i < 10; ++i) {
    pmu::CounterSample d = base_sample(0.010, m);
    const double extra = 0.008;  // 80% slowdown
    const double extra_slots = extra * m.frequency_hz * m.pipeline_width;
    d[Counter::kSlotsBackend] += extra_slots;
    d[Counter::kStallsDram] += extra_slots;
    d[Counter::kTsc] = 0.018 * m.frequency_hz;
    d[Counter::kCpuClkUnhalted] = 0.018 * m.frequency_hz;
    syn.add(0.018, d, 10 + 0.1 * i);
  }
  auto clusters = cluster_stg(syn.stg, ClusterOptions{});
  DiagnosisOptions opts;
  auto window = analyze_contributions(
      syn.stg, clusters, children_of(FactorId::kRoot), m, opts);
  EXPECT_EQ(window.abnormal_fragments, 10u);
  EXPECT_NEAR(window.total_variance_seconds, 10 * 0.008, 1e-6);
  const FactorContribution* backend = nullptr;
  const FactorContribution* frontend = nullptr;
  for (const auto& fc : window.factors) {
    if (fc.id == FactorId::kBackend) backend = &fc;
    if (fc.id == FactorId::kFrontend) frontend = &fc;
  }
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->major);
  EXPECT_NEAR(backend->contribution_seconds, 10 * 0.008, 1e-3);
  EXPECT_GT(backend->duration_seconds, 0.0);
  ASSERT_NE(frontend, nullptr);
  EXPECT_FALSE(frontend->major);
  EXPECT_NEAR(frontend->contribution_seconds, 0.0, 1e-6);
}

TEST(Contribution, NoAbnormalFragmentsMeansNoVariance) {
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  for (int i = 0; i < 30; ++i)
    syn.add(0.010 + 1e-5 * (i % 3), base_sample(0.010, m), 0.1 * i);
  auto clusters = cluster_stg(syn.stg, ClusterOptions{});
  auto window = analyze_contributions(
      syn.stg, clusters, children_of(FactorId::kRoot), m, DiagnosisOptions{});
  EXPECT_EQ(window.abnormal_fragments, 0u);
  EXPECT_DOUBLE_EQ(window.total_variance_seconds, 0.0);
}

// Parameterized: the abnormal cut k_a is strict.
class AbnormalRatio : public ::testing::TestWithParam<double> {};

TEST_P(AbnormalRatio, FragmentAbnormalIffOverRatio) {
  const double slowdown_ratio = GetParam();
  const pmu::MachineParams m = machine();
  SyntheticCluster syn;
  for (int i = 0; i < 10; ++i) syn.add(0.010, base_sample(0.010, m), 0.1 * i);
  // One fragment at ratio × fastest: same workload, longer wall time.
  pmu::CounterSample d = base_sample(0.010, m);
  d[Counter::kTsc] = 0.010 * slowdown_ratio * m.frequency_hz;
  syn.add(0.010 * slowdown_ratio, d, 5.0);
  auto clusters = cluster_stg(syn.stg, ClusterOptions{});
  DiagnosisOptions opts;  // abnormal_ratio = 1.2
  auto window = analyze_contributions(
      syn.stg, clusters, children_of(FactorId::kRoot), m, opts);
  if (slowdown_ratio > 1.2) {
    EXPECT_EQ(window.abnormal_fragments, 1u);
  } else {
    EXPECT_EQ(window.abnormal_fragments, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, AbnormalRatio,
                         ::testing::Values(1.05, 1.15, 1.25, 1.5, 3.0));

// --- progressive diagnoser ---

TEST(Progressive, StartsAtStageOneWithSlotCounters) {
  ProgressiveDiagnoser diag(machine(), DiagnosisOptions{});
  EXPECT_EQ(diag.stage(), 1);
  EXPECT_FALSE(diag.finished());
  auto counters = diag.counters_needed();
  EXPECT_LE(counters.size(), 4u);
  EXPECT_NE(std::find(counters.begin(), counters.end(),
                      Counter::kSlotsBackend),
            counters.end());
}

TEST(Progressive, DescendsToDramOnMemoryVariance) {
  const pmu::MachineParams m = machine();
  DiagnosisOptions opts;
  ProgressiveDiagnoser diag(m, opts);

  // Feed three windows with DRAM-caused variance; the counters present in
  // the fragments follow what the diagnoser asked for.
  for (int window_i = 0; window_i < 3 && !diag.finished(); ++window_i) {
    SyntheticCluster syn;
    for (int i = 0; i < 20; ++i)
      syn.add(0.010, base_sample(0.010, m), 0.1 * i);
    for (int i = 0; i < 10; ++i) {
      pmu::CounterSample d = base_sample(0.010, m);
      const double extra = 0.008;
      const double extra_slots = extra * m.frequency_hz * m.pipeline_width;
      d[Counter::kSlotsBackend] += extra_slots;
      d[Counter::kStallsDram] += extra_slots;
      d[Counter::kTsc] = 0.018 * m.frequency_hz;
      d[Counter::kCpuClkUnhalted] = 0.018 * m.frequency_hz;
      syn.add(0.018, d, 10 + 0.1 * i);
    }
    auto clusters = cluster_stg(syn.stg, ClusterOptions{});
    diag.feed(syn.stg, clusters);
  }
  EXPECT_TRUE(diag.finished());
  const auto& report = diag.report();
  ASSERT_EQ(report.culprits.size(), 1u);
  EXPECT_EQ(report.culprits[0], FactorId::kDramBound);
  // Findings must include the whole descent.
  bool saw_backend = false, saw_memory = false, saw_dram = false;
  for (const auto& f : report.findings) {
    if (f.id == FactorId::kBackend && f.major) saw_backend = true;
    if (f.id == FactorId::kMemoryBound && f.major) saw_memory = true;
    if (f.id == FactorId::kDramBound && f.major) saw_dram = true;
  }
  EXPECT_TRUE(saw_backend);
  EXPECT_TRUE(saw_memory);
  EXPECT_TRUE(saw_dram);
  EXPECT_FALSE(report.summary().empty());
}

TEST(Progressive, QuietWindowsDoNotAdvance) {
  const pmu::MachineParams m = machine();
  ProgressiveDiagnoser diag(m, DiagnosisOptions{});
  SyntheticCluster syn;
  for (int i = 0; i < 30; ++i) syn.add(0.010, base_sample(0.010, m), 0.1 * i);
  auto clusters = cluster_stg(syn.stg, ClusterOptions{});
  diag.feed(syn.stg, clusters);
  diag.feed(syn.stg, clusters);
  EXPECT_EQ(diag.stage(), 1);
  EXPECT_FALSE(diag.finished());
  EXPECT_TRUE(diag.report().findings.empty());
}

}  // namespace
}  // namespace vapro::core
