// Golden-file tests for the human-facing report tables and the
// self-diagnosis (critical-path) outputs.  The rendered text of
// render_region_table / render_rare_table, the /v1/latency and
// /v1/critical_path bodies, the critical-path table and the journaled
// timing events are part of the tool's interface — operators diff them,
// scripts scrape them, replays re-render them — so formatting changes must
// be deliberate.  Expected outputs live in tests/golden/; regenerate
// them with scripts/update_goldens.sh after an intentional change and
// review the diff like any other code change.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/heatmap.hpp"
#include "src/core/report.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/latency.hpp"
#include "src/util/pipeline.hpp"

namespace vapro {
namespace {

// tests/golden/ next to this source file; __FILE__ is absolute under CMake.
std::string golden_path(const std::string& name) {
  std::string dir = __FILE__;
  dir.resize(dir.find_last_of('/') + 1);
  return dir + "golden/" + name;
}

// Compares `rendered` against the golden file, or rewrites the file when
// VAPRO_UPDATE_GOLDENS is set (see scripts/update_goldens.sh).
void expect_matches_golden(const std::string& rendered,
                           const std::string& name) {
  const std::string path = golden_path(name);
  if (std::getenv("VAPRO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run scripts/update_goldens.sh";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "rendered table drifted from " << path
      << "; if intentional, run scripts/update_goldens.sh and review";
}

std::vector<core::VarianceRegion> fixture_regions() {
  core::VarianceRegion big;
  big.rank_lo = 4;
  big.rank_hi = 11;
  big.bin_lo = 8;
  big.bin_hi = 15;
  big.cells = 64;
  big.mean_perf = 0.58521992720657923;
  big.impact_seconds = 12.75;
  core::VarianceRegion small;
  small.rank_lo = 0;
  small.rank_hi = 0;
  small.bin_lo = 2;
  small.bin_hi = 2;
  small.cells = 1;
  small.mean_perf = 0.8125;
  small.impact_seconds = 0.03125;
  return {big, small};
}

std::vector<core::RareFinding> fixture_findings() {
  core::RareFinding io;
  io.state = "Write site7 path 1/2";
  io.kind = core::FragmentKind::kIo;
  io.executions = 2;
  io.total_seconds = 1.5;
  io.longest_seconds = 1.25;
  core::RareFinding comp;
  comp.state = "site3 -> site4";
  comp.kind = core::FragmentKind::kComputation;
  comp.executions = 1;
  comp.total_seconds = 0.5;
  comp.longest_seconds = 0.5;
  return {io, comp};
}

TEST(Golden, RegionTable) {
  expect_matches_golden(
      core::render_region_table(fixture_regions(), /*bin_seconds=*/0.25),
      "region_table.txt");
}

TEST(Golden, RegionTableEmpty) {
  expect_matches_golden(core::render_region_table({}, 0.25),
                        "region_table_empty.txt");
}

TEST(Golden, RegionTableTruncation) {
  // Past `limit`, smaller regions fold into one "omitted" line.
  std::vector<core::VarianceRegion> many = fixture_regions();
  for (int i = 0; i < 4; ++i) {
    core::VarianceRegion r;
    r.rank_lo = r.rank_hi = i;
    r.bin_lo = r.bin_hi = i;
    r.cells = 1;
    r.mean_perf = 0.80 + 0.01 * i;
    r.impact_seconds = 0.01 * (i + 1);
    many.push_back(r);
  }
  expect_matches_golden(core::render_region_table(many, 0.25, /*limit=*/3),
                        "region_table_truncated.txt");
}

// A real multi-rank heat map whose low-performance regions straddle every
// rank-stripe boundary a 2..4-lane pool can draw over 16 ranks: a wide
// 10-rank band with per-rank perf variation (so the mean/impact sums
// cross boundaries), a 6-rank band near the top edge, a 2-rank blip, and
// an isolated single cell.  The golden table is rendered from the serial
// result; the sharded results must first match it byte for byte.
core::Heatmap stripe_fixture_map() {
  core::Heatmap map(16, 0.25);
  for (int rank = 0; rank < 16; ++rank)
    for (int bin = 0; bin < 24; ++bin)
      map.deposit(rank, bin * 0.25, bin * 0.25 + 0.25, 1.0);
  for (int rank = 3; rank <= 12; ++rank)
    for (int bin = 4; bin <= 9; ++bin)
      map.deposit(rank, bin * 0.25, bin * 0.25 + 0.25, 0.30 + 0.02 * rank);
  for (int rank = 10; rank <= 15; ++rank)
    for (int bin = 18; bin <= 20; ++bin)
      map.deposit(rank, bin * 0.25, bin * 0.25 + 0.25, 0.55);
  for (int rank = 0; rank <= 1; ++rank)
    for (int bin = 14; bin <= 16; ++bin)
      map.deposit(rank, bin * 0.25, bin * 0.25 + 0.25, 0.6);
  map.deposit(8, 22 * 0.25, 22 * 0.25 + 0.25, 0.2);
  return map;
}

TEST(Golden, RegionTableStripeMerged) {
  const core::Heatmap map = stripe_fixture_map();
  const std::vector<core::VarianceRegion> serial =
      core::find_variance_regions(map, 0.85);
  ASSERT_GE(serial.size(), 4u);
  const std::string rendered = core::render_region_table(serial, 0.25);
  // Every lane count must render the identical table — the stripe split
  // and boundary merge are invisible in the output.
  for (std::size_t lanes : {2u, 3u, 4u}) {
    util::WorkerPool pool(lanes);
    EXPECT_EQ(
        core::render_region_table(core::find_variance_regions(map, 0.85, &pool),
                                  0.25),
        rendered)
        << "lanes=" << lanes;
  }
  expect_matches_golden(rendered, "region_table_stripes.txt");
}

TEST(Golden, RareTable) {
  expect_matches_golden(core::render_rare_table(fixture_findings()),
                        "rare_table.txt");
}

TEST(Golden, RareTableEmpty) {
  expect_matches_golden(core::render_rare_table({}), "rare_table_empty.txt");
}

// Four windows of stage timings through a 3-record ring, so the renderers
// show both the trimmed ring and the all-window totals: a cluster-bound
// window (totals only), an exact drain/diagnose tie (the earlier stage
// wins), an all-zero window (queue_wait by the same rule) and a
// publish-bound window.  Each stage dominates one window, so the dominant
// stage is itself a tie.  The values have no short decimal form, so any
// precision lost on the way to text shows.
std::vector<obs::PipelineStats> fixture_latency() {
  const double t = 1.0 / 3.0 * 1e-3;
  const std::array<double, obs::kStageCount> stages[] = {
      {t, 2 * t, 0.0, 7 * t, t / 7, 0.0, 1e-9, t},
      {0.0, 5 * t, t, 0.0, 0.0, t / 11, 5 * t, 0.0},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
      {t / 3, t, 2 * t, t, 0.0, 0.0, t, 9 * t},
  };
  std::vector<obs::PipelineStats> records;
  for (std::size_t w = 0; w < 4; ++w) {
    obs::PipelineStats r;
    r.window = w;
    r.virtual_time = 0.25 * static_cast<double>(w + 1) / 3.0;
    r.stage_seconds = stages[w];
    records.push_back(r);
  }
  return records;
}

void fill_tracker(obs::CriticalPathTracker& tracker) {
  for (const obs::PipelineStats& r : fixture_latency()) tracker.record(r);
}

TEST(Golden, CriticalPathTable) {
  obs::CriticalPathTracker tracker(/*keep=*/3);
  fill_tracker(tracker);
  expect_matches_golden(
      obs::render_critical_path_table(tracker.recent(), tracker.summary()),
      "critical_path_table.txt");
}

TEST(Golden, CriticalPathTableEmpty) {
  obs::CriticalPathTracker empty;
  expect_matches_golden(
      obs::render_critical_path_table(empty.recent(), empty.summary()),
      "critical_path_table_empty.txt");
}

TEST(Golden, LatencyJson) {
  obs::CriticalPathTracker tracker(/*keep=*/3);
  fill_tracker(tracker);
  obs::CriticalPathTracker empty;
  expect_matches_golden(
      obs::render_latency_json(tracker.recent(), tracker.summary()) + '\n' +
          obs::render_latency_json(empty.recent(), empty.summary()) + '\n',
      "latency_json.txt");
}

TEST(Golden, CriticalPathJson) {
  obs::CriticalPathTracker tracker(/*keep=*/3);
  fill_tracker(tracker);
  obs::CriticalPathTracker empty;
  expect_matches_golden(
      obs::render_critical_path_json(tracker.recent(), tracker.summary()) +
          '\n' +
          obs::render_critical_path_json(empty.recent(), empty.summary()) +
          '\n',
      "critical_path_json.txt");
}

// The journaled timing events are what vapro_replay re-renders the
// critical path from: one window_latency event (the tie window) and the
// terminal critical_path event over all four windows.
TEST(Golden, LatencyJournalEvents) {
  obs::Journal journal;
  struct Collect final : obs::JournalSink {
    std::string lines;
    void on_event(const obs::JournalEvent& ev) override {
      lines += ev.to_json_line() + '\n';
    }
  } sink;
  journal.add_sink(&sink);
  const std::vector<obs::PipelineStats> records = fixture_latency();
  obs::journal_window_latency(journal, records[1]);
  obs::CriticalPathTracker tracker;
  fill_tracker(tracker);
  obs::journal_critical_path(
      journal, static_cast<std::int64_t>(records.back().window),
      records.back().virtual_time, tracker.summary());
  expect_matches_golden(sink.lines, "latency_events.jsonl");
}

}  // namespace
}  // namespace vapro
