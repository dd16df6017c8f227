// Self-diagnosis latency surfaces (src/obs/latency): critical-path
// attribution semantics, the tracker ring, the shared JSON/table
// renderers, the window_latency / critical_path journal round trip
// (byte-identical replay), the server's stage timing (no queue wait at
// depth 1; every stage total read from the one stage array), and readback
// of hand-written v1 journals that predate the timing event types.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/journal_replay.hpp"
#include "src/core/server.hpp"
#include "src/obs/context.hpp"
#include "src/obs/latency.hpp"
#include "src/util/clock.hpp"

namespace vapro::obs {
namespace {

PipelineStats make_record(std::size_t window,
                          std::initializer_list<double> stages) {
  PipelineStats r;
  r.window = window;
  r.virtual_time = 0.25 * static_cast<double>(window + 1);
  std::size_t i = 0;
  for (double s : stages) r.stage_seconds[i++] = s;
  return r;
}

TEST(WindowLatency, BoundStageIsTheFirstMaximumInCanonicalOrder) {
  // cluster (index 3) strictly dominates.
  PipelineStats r =
      make_record(0, {0.001, 0.002, 0.003, 0.010, 0.002, 0.001, 0.0, 0.001});
  EXPECT_EQ(r.bound_stage(), 3u);
  EXPECT_STREQ(r.bound_by(), "cluster");
  EXPECT_DOUBLE_EQ(r.bound_seconds(), 0.010);
  EXPECT_NEAR(r.total_seconds(), 0.020, 1e-12);

  // Exact tie between drain (1) and diagnose (6): the earlier stage wins,
  // so attribution is deterministic.
  PipelineStats tie =
      make_record(1, {0.0, 0.005, 0.0, 0.0, 0.0, 0.0, 0.005, 0.0});
  EXPECT_EQ(tie.bound_stage(), 1u);
  EXPECT_STREQ(tie.bound_by(), "drain");

  // All-zero window: queue_wait (index 0) by the same tie rule.
  EXPECT_EQ(PipelineStats{}.bound_stage(), 0u);
}

TEST(WindowLatency, TrackerKeepsARingAndCumulativeTotals) {
  CriticalPathTracker tracker(/*keep=*/4);
  EXPECT_EQ(tracker.summary().dominant_stage(), kStageCount);
  EXPECT_TRUE(tracker.recent().empty());

  for (std::size_t w = 0; w < 10; ++w) {
    // stg-bound except window 7, which is cluster-bound.
    tracker.record(make_record(
        w, {0.001, 0.002, 0.004, w == 7 ? 0.008 : 0.001, 0.0, 0.0, 0.0, 0.0}));
  }
  const auto recent = tracker.recent();
  ASSERT_EQ(recent.size(), 4u);  // ring trimmed to keep
  EXPECT_EQ(recent.front().window, 6u);
  EXPECT_EQ(recent.back().window, 9u);

  const CriticalPathTracker::Summary sum = tracker.summary();
  EXPECT_EQ(sum.windows, 10u);  // totals cover ALL windows, not the ring
  EXPECT_EQ(sum.bound_windows[2], 9u);  // stg
  EXPECT_EQ(sum.bound_windows[3], 1u);  // cluster (window 7)
  EXPECT_EQ(sum.dominant_stage(), 2u);
  EXPECT_NEAR(sum.stage_seconds[2], 10 * 0.004, 1e-12);
  EXPECT_NEAR(sum.total_seconds, 10 * 0.008 + 0.007, 1e-12);
}

TEST(WindowLatency, RenderersNameEveryStageAndTheDominantOne) {
  CriticalPathTracker tracker;
  tracker.record(
      make_record(0, {0.0, 0.001, 0.006, 0.002, 0.0, 0.0, 0.0, 0.001}));
  const std::string latency =
      render_latency_json(tracker.recent(), tracker.summary());
  const std::string critical =
      render_critical_path_json(tracker.recent(), tracker.summary());
  const std::string table =
      render_critical_path_table(tracker.recent(), tracker.summary());
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_NE(critical.find(kStageNames[s]), std::string::npos)
        << kStageNames[s];
  }
  EXPECT_NE(latency.find("\"bound_by\":\"stg\""), std::string::npos) << latency;
  EXPECT_NE(critical.find("\"dominant\":\"stg\""), std::string::npos)
      << critical;
  EXPECT_NE(table.find("dominant stage: stg"), std::string::npos) << table;

  // Empty tracker renders a null dominant stage, not garbage.
  CriticalPathTracker empty;
  EXPECT_NE(render_critical_path_json(empty.recent(), empty.summary())
                .find("\"dominant\":null"),
            std::string::npos);
}

TEST(WindowLatency, JournalEventsRoundTripBitExactly) {
  // Values with no short decimal form, so anything less than %.17g in the
  // round trip shows up as inequality.
  PipelineStats r = make_record(
      3, {1.0 / 3, 0.1, 0.2 / 7, 1e-9, 0.0, 3.14159e-3, 1.0 / 81, 2e-6});

  Journal journal;
  struct Collect final : JournalSink {
    std::vector<JournalEvent> events;
    void on_event(const JournalEvent& ev) override { events.push_back(ev); }
  } sink;
  journal.add_sink(&sink);
  journal_window_latency(journal, r);

  CriticalPathTracker tracker;
  tracker.record(r);
  journal_critical_path(journal, static_cast<std::int64_t>(r.window),
                        r.virtual_time, tracker.summary());

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].type, "window_latency");
  EXPECT_EQ(sink.events[1].type, "critical_path");

  const PipelineStats back = window_latency_from_event(sink.events[0]);
  EXPECT_EQ(back.window, r.window);
  EXPECT_EQ(back.virtual_time, r.virtual_time);  // bit-exact, not NEAR
  for (std::size_t s = 0; s < kStageCount; ++s)
    EXPECT_EQ(back.stage_seconds[s], r.stage_seconds[s])
        << kStageNames[s];

  CriticalPathTracker replay;
  replay.record(back);
  EXPECT_EQ(render_critical_path_table(replay.recent(), replay.summary()),
            render_critical_path_table(tracker.recent(), tracker.summary()));
}

// --- end to end through the analysis server -------------------------------

core::FragmentBatch tiny_window(int ranks, int window) {
  core::FragmentBatch batch;
  sim::InvocationInfo info;
  info.site = static_cast<sim::CallSiteId>(100);
  info.kind = sim::OpKind::kAllreduce;
  const core::StateKey key =
      core::make_state_key(core::StgMode::kContextFree, info);
  batch.new_states.push_back(info);
  for (int rank = 0; rank < ranks; ++rank) {
    core::Fragment comp;
    comp.kind = core::FragmentKind::kComputation;
    comp.rank = rank;
    comp.from = core::kStartState;
    comp.to = key;
    comp.start_time = window * 0.25;
    comp.end_time = window * 0.25 + 0.1;
    comp.counters[pmu::Counter::kTotIns] = 1e6;
    batch.fragments.push_back(comp);
    core::Fragment inv;
    inv.op = sim::OpKind::kAllreduce;
    inv.kind = core::FragmentKind::kCommunication;
    inv.rank = rank;
    inv.from = key;
    inv.to = key;
    inv.start_time = comp.end_time;
    inv.end_time = comp.end_time + 0.05;
    inv.args.bytes = 4096;
    inv.args.peer = (rank + 1) % ranks;
    batch.fragments.push_back(inv);
  }
  return batch;
}

TEST(WindowLatency, ServerJournalReplaysTheLiveCriticalPathByteIdentically) {
  const std::string path = "/tmp/vapro_test_latency_journal.jsonl";
  std::remove(path.c_str());

  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  ctx.enable_trace();
  ASSERT_TRUE(ctx.attach_journal_file(path));

  core::ServerOptions opts;
  opts.run_diagnosis = false;
  opts.bin_seconds = 0.05;
  opts.obs = &ctx;
  opts.clock = &vclock;
  constexpr int kRanks = 4;
  constexpr int kWindows = 5;
  {
    core::AnalysisServer server(kRanks, opts);
    for (int w = 0; w < kWindows; ++w) {
      server.process_window(tiny_window(kRanks, w), /*drain_seconds=*/0.01);
      vclock.advance(0.25);
    }
    server.journal_detection_snapshot();
    ctx.journal()->flush();

    // Live JSON endpoints report every window.
    EXPECT_NE(server.render_latency_json().find("\"windows\":5"),
              std::string::npos);
    EXPECT_NE(server.render_critical_path_json().find("\"dominant\":"),
              std::string::npos);

    const core::JournalSummary summary = core::summarize_journal_file(path);
    ASSERT_TRUE(summary.ok) << summary.error;
    ASSERT_EQ(summary.window_latency.size(),
              static_cast<std::size_t>(kWindows));
    EXPECT_EQ(summary.critical_path_events, 1u);
    for (std::size_t w = 0; w < kWindows; ++w)
      EXPECT_EQ(summary.window_latency[w].window, w);

    CriticalPathTracker replay;
    for (const PipelineStats& r : summary.window_latency) replay.record(r);
    const CriticalPathTracker& live = server.latency_tracker();
    EXPECT_EQ(render_critical_path_table(replay.recent(), replay.summary()),
              render_critical_path_table(live.recent(), live.summary()));

    // The replay report gained a critical-path section.
    const std::string report = core::render_journal_summary(summary);
    EXPECT_NE(report.find("## critical path"), std::string::npos) << report;
    EXPECT_NE(report.find("dominant stage:"), std::string::npos);
  }
  std::remove(path.c_str());
}

// Under a TickClock every clock read advances time by one tick, so each
// stage's seconds count the reads charged to it.  At pipeline_depth 1 no
// window enters the hand-off queue, so none can have waited in it.
TEST(WindowLatency, SerialServerHasNoQueueWait) {
  util::TickClock tick(1e-3);
  core::ServerOptions opts;
  opts.run_diagnosis = false;
  opts.bin_seconds = 0.05;
  opts.clock = &tick;
  constexpr int kRanks = 4;
  core::AnalysisServer server(kRanks, opts);
  for (int w = 0; w < 4; ++w)
    server.process_window(tiny_window(kRanks, w), /*drain_seconds=*/1e-3);

  const std::vector<PipelineStats> recent = server.latency_tracker().recent();
  ASSERT_EQ(recent.size(), 4u);
  for (const PipelineStats& w : recent) {
    EXPECT_EQ(w.seconds(Stage::kQueueWait), 0.0) << "window " << w.window;
    EXPECT_STRNE(w.bound_by(), "queue_wait") << "window " << w.window;
  }
}

// The stage histograms, vapro.server.window_seconds, the critical-path
// tracker and the pipeline breakdown all read each window's one stage
// array, so their totals agree exactly, serial and pipelined.
TEST(WindowLatency, EveryStageTotalComesFromTheOneStageArray) {
  for (int depth : {1, 2}) {
    SCOPED_TRACE("pipeline_depth " + std::to_string(depth));
    util::TickClock tick(1e-3);
    ObsContext ctx;
    core::ServerOptions opts;
    opts.run_diagnosis = false;
    opts.bin_seconds = 0.05;
    opts.pipeline_depth = depth;
    opts.obs = &ctx;
    opts.clock = &tick;
    constexpr int kRanks = 4;
    core::AnalysisServer server(kRanks, opts);
    for (int w = 0; w < 6; ++w)
      server.process_window(tiny_window(kRanks, w), /*drain_seconds=*/1e-3);
    server.sync();
    const std::uint64_t windows = server.windows_processed();
    ASSERT_EQ(windows, 6u);

    const CriticalPathTracker::Summary sum = server.latency_tracker().summary();
    MetricsRegistry& m = ctx.metrics();
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const std::string name =
          static_cast<Stage>(s) == Stage::kQueueWait
              ? std::string("vapro.server.queue_wait_seconds")
              : std::string("vapro.server.stage.") + kStageNames[s] +
                    "_seconds";
      const Histogram* h = m.histogram(name);
      EXPECT_EQ(h->count(), windows) << name;
      EXPECT_DOUBLE_EQ(h->sum_seconds(), sum.stage_seconds[s]) << name;
    }

    double tool = 0.0;
    for (const PipelineStats& w : ctx.windows().windows())
      tool += w.tool_seconds();
    EXPECT_DOUBLE_EQ(m.histogram("vapro.server.window_seconds")->sum_seconds(),
                     tool);

    double busy = 0.0;
    for (Stage s : {Stage::kStg, Stage::kCluster, Stage::kNormalize,
                    Stage::kDeposit, Stage::kDiagnose, Stage::kPublish})
      busy += sum.stage_seconds[static_cast<std::size_t>(s)];
    EXPECT_DOUBLE_EQ(server.pipeline_breakdown().analysis_busy_seconds, busy);

    if (depth > 1) {
      // Producer backpressure is published once, under the name the split
      // wait account uses.
      EXPECT_NE(m.find_gauge("vapro.pipeline.producer_block_seconds"),
                nullptr);
      EXPECT_EQ(m.find_gauge("vapro.pipeline.stall_seconds"), nullptr);
    }
  }
}

TEST(WindowLatency, HandWrittenV1JournalReadsBackWithoutTimingEvents) {
  // A journal written by a v1 producer: no window_latency/critical_path
  // events exist, and unknown future types must be skipped, not fatal.
  const std::string path = "/tmp/vapro_test_latency_v1.jsonl";
  {
    std::ofstream out(path);
    out << "{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
           "\"schema_version\":1}\n"
        << "{\"seq\":0,\"type\":\"window\",\"window\":0,"
           "\"virtual_time\":0.25,\"fragments\":8}\n"
        << "{\"seq\":1,\"type\":\"some_future_type\",\"window\":0,"
           "\"virtual_time\":0.25,\"payload\":1}\n"
        << "{\"seq\":2,\"type\":\"window\",\"window\":1,"
           "\"virtual_time\":0.5,\"fragments\":8}\n";
  }
  const core::JournalSummary summary = core::summarize_journal_file(path);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.windows, 2u);
  EXPECT_TRUE(summary.window_latency.empty());
  EXPECT_EQ(summary.critical_path_events, 0u);
  // No timing data -> no critical-path section in the replay report.
  const std::string report = core::render_journal_summary(summary);
  EXPECT_EQ(report.find("## critical path"), std::string::npos) << report;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vapro::obs
