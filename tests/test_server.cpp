// Direct AnalysisServer tests: knob behaviour that the end-to-end suites
// don't isolate — rare-report thresholds/limits, window bookkeeping,
// variance-threshold plumbing, eval-pair recording rules — and the soak
// gates on per-window region-growing cost, for a single server and for a
// ServerGroup root.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/core/server.hpp"
#include "src/core/server_group.hpp"

namespace vapro::core {
namespace {

sim::InvocationInfo call_info(int rank, sim::CallSiteId site) {
  sim::InvocationInfo info;
  info.rank = rank;
  info.site = site;
  info.kind = sim::OpKind::kBarrier;
  return info;
}

Fragment comp(int rank, StateKey from, StateKey to, double start, double dur,
              double tot_ins, std::int64_t truth = -1) {
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

// Builds a batch with one well-repeated cluster and one rare expensive
// fragment between distinct sites.
FragmentBatch standard_batch(StateKey* key_a, StateKey* key_b,
                             StateKey* key_c) {
  Stg probe(StgMode::kContextFree);  // only to compute keys consistently
  auto info_a = call_info(0, 1);
  auto info_b = call_info(0, 2);
  auto info_c = call_info(0, 3);
  *key_a = make_state_key(StgMode::kContextFree, info_a);
  *key_b = make_state_key(StgMode::kContextFree, info_b);
  *key_c = make_state_key(StgMode::kContextFree, info_c);
  FragmentBatch batch;
  batch.new_states = {info_a, info_b, info_c};
  for (int i = 0; i < 12; ++i)
    batch.fragments.push_back(
        comp(0, *key_a, *key_b, 0.1 * i, 0.01, 1e6, /*truth=*/1));
  // One rare, expensive path.
  batch.fragments.push_back(comp(0, *key_b, *key_c, 2.0, 0.5, 9e7, 2));
  return batch;
}

ServerOptions quiet_options() {
  ServerOptions opts;
  opts.run_diagnosis = false;
  return opts;
}

TEST(Server, ProcessesBatchesAndCounts) {
  StateKey a, b, c;
  AnalysisServer server(2, quiet_options());
  server.process_window(standard_batch(&a, &b, &c));
  EXPECT_EQ(server.windows_processed(), 1u);
  EXPECT_EQ(server.fragments_processed(), 13u);
  EXPECT_EQ(server.stg().vertex_count(), 3u);
  EXPECT_EQ(server.stg().edge_count(), 2u);
  // Fragments are dropped after analysis; the structure stays.
  EXPECT_TRUE(server.stg().fragments().empty());
}

TEST(Server, RareFindingRespectsMinSeconds) {
  StateKey a, b, c;
  ServerOptions opts = quiet_options();
  opts.rare_report_min_seconds = 0.1;
  AnalysisServer server(2, opts);
  server.process_window(standard_batch(&a, &b, &c));
  ASSERT_EQ(server.rare_findings().size(), 1u);
  EXPECT_EQ(server.rare_findings()[0].executions, 1u);
  EXPECT_NEAR(server.rare_findings()[0].total_seconds, 0.5, 1e-9);

  ServerOptions strict = quiet_options();
  strict.rare_report_min_seconds = 1.0;  // above the rare path's 0.5 s
  AnalysisServer server2(2, strict);
  server2.process_window(standard_batch(&a, &b, &c));
  EXPECT_TRUE(server2.rare_findings().empty());
}

TEST(Server, RareFindingListIsCapped) {
  ServerOptions opts = quiet_options();
  opts.rare_report_limit = 4;
  opts.rare_report_min_seconds = 0.0;
  AnalysisServer server(1, opts);
  FragmentBatch batch;
  // 20 distinct single-execution paths.
  StateKey prev = kStartState;
  for (sim::CallSiteId s = 1; s <= 21; ++s) {
    auto info = call_info(0, s);
    batch.new_states.push_back(info);
    StateKey key = make_state_key(StgMode::kContextFree, info);
    if (s > 1)
      batch.fragments.push_back(
          comp(0, prev, key, 0.1 * s, 0.05 * s, 1e5 * s));
    prev = key;
  }
  server.process_window(std::move(batch));
  EXPECT_LE(server.rare_findings().size(), 4u);
  // Kept findings are the most expensive ones, sorted descending.
  const auto& findings = server.rare_findings();
  for (std::size_t i = 1; i < findings.size(); ++i)
    EXPECT_GE(findings[i - 1].total_seconds, findings[i].total_seconds);
}

TEST(Server, VarianceThresholdGatesRegions) {
  // One slow fragment at 0.5 perf: detected at 0.85, not at 0.3.
  auto regions_with = [&](double threshold) {
    StateKey a, b, c;
    ServerOptions opts = quiet_options();
    opts.variance_threshold = threshold;
    opts.bin_seconds = 0.05;
    AnalysisServer server(2, opts);
    FragmentBatch batch = standard_batch(&a, &b, &c);
    batch.fragments.push_back(comp(0, a, b, 1.5, 0.02, 1e6, 1));  // 2x slow
    server.process_window(std::move(batch));
    return server.locate(FragmentKind::kComputation).size();
  };
  EXPECT_GE(regions_with(0.85), 1u);
  EXPECT_EQ(regions_with(0.3), 0u);
}

TEST(Server, EvalPairsOnlyForLabelledFragments) {
  StateKey a, b, c;
  ServerOptions opts = quiet_options();
  opts.record_eval_pairs = true;
  AnalysisServer server(2, opts);
  FragmentBatch batch = standard_batch(&a, &b, &c);
  // Add unlabelled fragments — they must not enter the score.
  for (int i = 0; i < 6; ++i)
    batch.fragments.push_back(comp(1, a, b, 0.1 * i, 0.01, 1e6, /*truth=*/-1));
  server.process_window(std::move(batch));
  auto v = server.clustering_quality();
  // All labelled fragments of class 1 land in one pure cluster (+ the
  // rare class-2 one) → perfect scores.
  EXPECT_DOUBLE_EQ(v.homogeneity, 1.0);
  EXPECT_DOUBLE_EQ(v.completeness, 1.0);
}

TEST(Server, CountersNeededStartAtStageOne) {
  AnalysisServer server(2, ServerOptions{});
  auto counters = server.counters_needed();
  EXPECT_FALSE(counters.empty());
  EXPECT_LE(counters.size(), 4u);
}

// One 0.25 s window of a steady loop: every rank runs the same four
// (computation, allreduce) steps, so every cell normalizes to 1.0 except
// where `slow` stretches the computation 1.5x.
FragmentBatch soak_window(int ranks, int window, bool slow_window,
                          int slow_lo, int slow_hi) {
  FragmentBatch batch;
  std::vector<StateKey> keys;
  for (int s = 0; s < 4; ++s) {
    sim::InvocationInfo info = call_info(0, static_cast<sim::CallSiteId>(20 + s));
    info.kind = sim::OpKind::kAllreduce;
    keys.push_back(make_state_key(StgMode::kContextFree, info));
    batch.new_states.push_back(info);
  }
  for (int rank = 0; rank < ranks; ++rank) {
    const bool slow = slow_window && rank >= slow_lo && rank <= slow_hi;
    StateKey prev = kStartState;
    double t = window * 0.25;
    for (int s = 0; s < 4; ++s) {
      batch.fragments.push_back(
          comp(rank, prev, keys[static_cast<std::size_t>(s)], t,
               slow ? 0.06 : 0.04, 1e6 * (1 + s)));
      t += slow ? 0.06 : 0.04;
      Fragment inv;
      inv.kind = FragmentKind::kCommunication;
      inv.op = sim::OpKind::kAllreduce;
      inv.rank = rank;
      inv.from = inv.to = keys[static_cast<std::size_t>(s)];
      inv.start_time = t;
      inv.end_time = t + 0.015;
      inv.args.bytes = 4096.0 * (1 + s);
      batch.fragments.push_back(inv);
      t += 0.015;
      prev = keys[static_cast<std::size_t>(s)];
    }
  }
  return batch;
}

// Feeds `windows` soak windows (ranks 8-15 slow in windows 300-339) to
// `server`, an AnalysisServer or a ServerGroup, and returns the
// vapro.detect.relabeled_cells gauge after window 100 and after the last.
template <class Server>
std::pair<double, double> soak_relabeled_cells(Server& server,
                                               obs::ObsContext& ctx,
                                               int ranks, int windows) {
  const obs::Gauge* relabeled =
      ctx.metrics().gauge("vapro.detect.relabeled_cells");
  double at_100 = 0.0;
  for (int w = 0; w < windows; ++w) {
    server.process_window(
        soak_window(ranks, w, /*slow_window=*/w >= 300 && w < 340, 8, 15));
    if (w == 100) at_100 = relabeled->value();
  }
  return {at_100, relabeled->value()};
}

std::string soak_journal_path(const char* name) {
  const char* dir = std::getenv("TEST_TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

// The long-run gate as exact counts: once the injected block closes, a
// window re-labels no more heat-map cells than an early one did, and the
// maps hold under twice the cells they use.
TEST(Server, SoakKeepsPerWindowRegionCostFlat) {
  constexpr int kRanks = 32, kWindows = 800;
  obs::ObsContext ctx;
  const std::string journal = soak_journal_path("vapro_server_soak.jsonl");
  ASSERT_TRUE(ctx.attach_journal_file(journal));
  ServerOptions opts = quiet_options();
  opts.bin_seconds = 0.05;
  opts.obs = &ctx;
  AnalysisServer server(kRanks, opts);
  const auto [relabeled_at_100, relabeled_at_end] =
      soak_relabeled_cells(server, ctx, kRanks, kWindows);
  EXPECT_GT(relabeled_at_100, 0.0);
  EXPECT_LE(relabeled_at_end, 2.0 * relabeled_at_100);

  const int bins = server.computation_map().bins();
  EXPECT_GE(bins, kWindows * 5);
  EXPECT_LE(ctx.metrics().gauge("vapro.detect.heatmap_cells")->value(),
            2.0 * kRanks * bins * 3);
  const std::vector<VarianceRegion> regions =
      server.locate(FragmentKind::kComputation);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].rank_lo, 8);
  EXPECT_EQ(regions[0].rank_hi, 15);
  std::remove(journal.c_str());
}

// The same gate for a 4-leaf group: the root keeps its merged maps and
// re-merges only the columns the leaves wrote since the last window, so
// its caches re-label a suffix as short as a single server's.
TEST(ServerGroup, SoakKeepsPerWindowRegionCostFlat) {
  constexpr int kRanks = 32, kWindows = 800;
  obs::ObsContext ctx;
  const std::string journal = soak_journal_path("vapro_group_soak.jsonl");
  ASSERT_TRUE(ctx.attach_journal_file(journal));
  ServerOptions opts = quiet_options();
  opts.bin_seconds = 0.05;
  opts.obs = &ctx;
  ServerGroup group(kRanks, 4, opts);
  const auto [relabeled_at_100, relabeled_at_end] =
      soak_relabeled_cells(group, ctx, kRanks, kWindows);
  EXPECT_GT(relabeled_at_100, 0.0);
  EXPECT_LE(relabeled_at_end, 2.0 * relabeled_at_100);

  const int bins = group.merged_map(FragmentKind::kComputation).bins();
  EXPECT_GE(bins, kWindows * 5);
  EXPECT_LE(ctx.metrics().gauge("vapro.detect.heatmap_cells")->value(),
            2.0 * kRanks * bins * 3);
  const std::vector<VarianceRegion> regions =
      group.locate(FragmentKind::kComputation);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].rank_lo, 8);
  EXPECT_EQ(regions[0].rank_hi, 15);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace vapro::core
