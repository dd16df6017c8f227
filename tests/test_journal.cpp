// Tests for src/obs/journal + src/obs/journal_segment + src/obs/alerts +
// src/core/journal_replay: byte-identical write→read round-trips,
// schema-version rejection, parent directory creation, segment rotation
// (size/age/faults), refusal of a directory that already holds segments,
// torn-tail semantics across segments, compaction replay byte-identity,
// alert rule parsing/firing, and the acceptance criterion that a journal
// re-ingested by the replay path reproduces the live run's detection and
// diagnosis summaries exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/npb.hpp"
#include "src/core/journal_replay.hpp"
#include "src/core/report.hpp"
#include "src/core/vapro.hpp"
#include "src/obs/alerts.hpp"
#include "src/obs/context.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/journal_segment.hpp"
#include "src/sim/runtime.hpp"
#include "src/testing/fault.hpp"

// vapro::testing collides with gtest's ::testing inside TEST bodies.
namespace testing_ = vapro::testing;

namespace vapro {
namespace {

std::string temp_path(const std::string& leaf) {
  return std::string(::testing::TempDir()) + leaf;
}

#if defined(VAPRO_FAULT_INJECTION) && VAPRO_FAULT_INJECTION
testing_::FaultPlan plan_from(const std::string& text) {
  testing_::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(testing_::FaultPlan::parse(text, &plan, &error)) << error;
  return plan;
}
#endif

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

// In-memory sink used to inspect the exact event stream a run produced.
struct CollectingJournalSink final : obs::JournalSink {
  std::vector<obs::JournalEvent> events;
  void on_event(const obs::JournalEvent& event) override {
    events.push_back(event);
  }
};

struct CollectingAlertSink final : obs::AlertSink {
  std::vector<obs::Alert> alerts;
  void on_alert(const obs::Alert& alert) override {
    alerts.push_back(alert);
  }
};

TEST(Journal, RoundTripIsByteIdentical) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    obs::Journal journal;
    obs::JournalFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    journal.add_sink(&sink);
    journal.emit("window", 0, 0.25,
                 {obs::JournalField::num("variance_ratio", 1.3333333333333333),
                  obs::JournalField::num("region_count", std::uint64_t{2}),
                  obs::JournalField::boolean("final", false)});
    journal.emit("variance_region", 0, 0.1 + 0.2,  // not representable
                 {obs::JournalField::num("mean_perf", 0.58521992720657923),
                  obs::JournalField::str("kind", "io"),
                  obs::JournalField::str("note", "quote \" slash \\ nl \n")});
    journal.emit("diagnosis_finished", -1, 1e-308,
                 {obs::JournalField::str("culprits", "io,network")});
    journal.flush();
    EXPECT_EQ(journal.events_emitted(), 3u);
  }

  obs::JournalReadResult read = obs::read_journal(path);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.schema_version, obs::kJournalSchemaVersion);
  ASSERT_EQ(read.events.size(), 3u);
  for (std::size_t i = 0; i < read.events.size(); ++i)
    EXPECT_EQ(read.events[i].seq, i);

  // Re-serializing every parsed event must reproduce the original file
  // line for line: values keep their raw text, nothing is re-rounded.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  EXPECT_NE(line.find("\"schema\":\"vapro.journal\""), std::string::npos);
  for (const obs::JournalEvent& ev : read.events) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(ev.to_json_line(), line);
  }
  EXPECT_FALSE(std::getline(in, line)) << "trailing junk: " << line;

  // Typed accessors see through the raw text.
  EXPECT_DOUBLE_EQ(read.events[1].number("mean_perf"), 0.58521992720657923);
  EXPECT_EQ(read.events[1].str("note"), "quote \" slash \\ nl \n");
  EXPECT_EQ(read.events[0].flag("final", true), false);
}

TEST(Journal, SchemaVersionMismatchIsRejected) {
  const std::string path = temp_path("journal_future.jsonl");
  {
    std::ofstream out(path);
    out << "{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
           "\"schema_version\":" << (obs::kJournalSchemaVersion + 1) << "}\n"
        << "{\"seq\":0,\"type\":\"window\",\"window\":0,\"t\":0.1}\n";
  }
  obs::JournalReadResult read = obs::read_journal(path);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("version"), std::string::npos) << read.error;

  {
    std::ofstream out(path);
    out << "{\"type\":\"journal_header\",\"schema\":\"someone.else\","
           "\"schema_version\":1}\n";
  }
  read = obs::read_journal(path);
  EXPECT_FALSE(read.ok);
}

TEST(Journal, ReaderRejectsNonMonotonicSequence) {
  const std::string path = temp_path("journal_gap.jsonl");
  {
    std::ofstream out(path);
    out << "{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
           "\"schema_version\":1}\n"
        << "{\"seq\":1,\"type\":\"window\",\"window\":0,\"t\":0.1}\n"
        << "{\"seq\":1,\"type\":\"window\",\"window\":1,\"t\":0.2}\n";
  }
  obs::JournalReadResult read = obs::read_journal(path);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("seq"), std::string::npos) << read.error;
}

TEST(Journal, TruncatedTailIsFatalStrictlyButRecoverable) {
  // A writer killed mid-write leaves a partial final line.  The strict
  // reader fails; recover_truncated_tail drops ONLY that torn tail.
  const std::string path = temp_path("journal_torn_tail.jsonl");
  {
    std::ofstream out(path);
    out << "{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
           "\"schema_version\":1}\n"
        << "{\"seq\":0,\"type\":\"window\",\"window\":0,\"t\":0.1}\n"
        << "{\"seq\":1,\"type\":\"window\",\"window\":1,\"t\":0.2}\n"
        << "{\"seq\":2,\"type\":\"window\",\"wi";  // torn: no newline
  }
  obs::JournalReadResult strict = obs::read_journal(path);
  EXPECT_FALSE(strict.ok);

  obs::JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  obs::JournalReadResult read = obs::read_journal(path, opts);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_TRUE(read.truncated_tail);
  ASSERT_EQ(read.events.size(), 2u);
  EXPECT_EQ(read.events[1].seq, 1u);
}

TEST(Journal, RecoveryDoesNotExcuseMidFileCorruption) {
  const std::string path = temp_path("journal_mid_corrupt.jsonl");
  {
    std::ofstream out(path);
    out << "{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
           "\"schema_version\":1}\n"
        << "{\"seq\":0,\"type\":\"win"  // torn line in the MIDDLE
        << "\n{\"seq\":1,\"type\":\"window\",\"window\":1,\"t\":0.2}\n";
  }
  obs::JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  obs::JournalReadResult read = obs::read_journal(path, opts);
  EXPECT_FALSE(read.ok);  // only the FINAL line may be torn
}

TEST(Journal, FileSinkCreatesParentDirectories) {
  const std::string path = temp_path("journal_nest/a/b/run.jsonl");
  obs::JournalFileSink sink(path);
  ASSERT_TRUE(sink.ok());
  obs::Journal journal;
  journal.add_sink(&sink);
  journal.emit("window", 0, 0.1, {});
  journal.flush();
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string header;
  EXPECT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("vapro.journal"), std::string::npos);
}

// --- segmented store ------------------------------------------------------

// Emits `n` events with distinct payloads at 0.1s virtual-time spacing.
void emit_windows(obs::Journal& journal, int n, int first_window = 0) {
  for (int i = 0; i < n; ++i)
    journal.emit("window", first_window + i,
                 0.1 * static_cast<double>(first_window + i + 1),
                 {obs::JournalField::num("variance_ratio",
                                         1.0 + 0.01 * static_cast<double>(i)),
                  obs::JournalField::str("payload", "window-payload-" +
                                                        std::to_string(i))});
}

TEST(JournalSegments, RotatesBySizeAndReadsBackAsOneStream) {
  const std::string dir = temp_path("seg_rotate_size");
  std::filesystem::remove_all(dir);
  obs::SegmentOptions seg;
  seg.directory = dir;
  seg.max_segment_bytes = 256;  // a few events per segment
  std::size_t segments = 0;
  {
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    ASSERT_TRUE(sink.ok());
    journal.add_sink(&sink);
    emit_windows(journal, 20);
    journal.flush();
    EXPECT_EQ(sink.lines_written(), 20u);
    segments = sink.segments_opened();
    EXPECT_GT(segments, 3u);
    // Every opened segment is on disk under its canonical name.
    for (std::size_t i = 0; i < segments; ++i)
      EXPECT_TRUE(std::filesystem::exists(
          dir + "/" + obs::journal_segment_name(i)));
  }
  obs::JournalReadResult read = obs::read_journal_dir(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.segments, segments);
  ASSERT_EQ(read.events.size(), 20u);
  for (std::size_t i = 0; i < read.events.size(); ++i)
    EXPECT_EQ(read.events[i].seq, i);
  // read_journal on the directory path resolves to the same stream.
  obs::JournalReadResult via_file_api = obs::read_journal(dir);
  ASSERT_TRUE(via_file_api.ok) << via_file_api.error;
  EXPECT_EQ(via_file_api.events.size(), 20u);
}

TEST(JournalSegments, RotatesByVirtualTimeAge) {
  const std::string dir = temp_path("seg_rotate_age");
  std::filesystem::remove_all(dir);
  obs::SegmentOptions seg;
  seg.directory = dir;
  seg.max_segment_seconds = 0.5;  // events arrive every 0.1s of virtual time
  {
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    ASSERT_TRUE(sink.ok());
    journal.add_sink(&sink);
    emit_windows(journal, 20);  // spans 2.0s of virtual time
    EXPECT_GE(sink.segments_opened(), 3u);
  }
  obs::JournalReadResult read = obs::read_journal_dir(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.events.size(), 20u);
}

TEST(JournalSegments, RefusesDirectoryHoldingSegments) {
  // A leftover segment from an earlier run: writing next to it would let
  // the reader stitch both runs into one stream.
  const std::string dir = temp_path("seg_stale");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stale = dir + "/" + obs::journal_segment_name(3);
  const std::string stale_bytes = obs::journal_header_line();
  {
    std::ofstream out(stale, std::ios::binary);
    out << stale_bytes;
  }
  obs::SegmentOptions seg;
  seg.directory = dir;
  obs::JournalFileSink sink(seg);
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.segments_opened(), 0u);
  // Nothing was deleted, overwritten or added.
  EXPECT_EQ(slurp(stale), stale_bytes);
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + obs::journal_segment_name(0)));
  obs::ObsContext ctx;
  EXPECT_FALSE(ctx.attach_journal_file(seg));
}

#if defined(VAPRO_FAULT_INJECTION) && VAPRO_FAULT_INJECTION
TEST(JournalSegments, TornTailIsFatalStrictlyButRecoverable) {
  const std::string dir = temp_path("seg_torn");
  std::filesystem::remove_all(dir);
  obs::SegmentOptions seg;
  seg.directory = dir;
  {
    testing_::FaultScope scope(
        plan_from("seed 1\njournal.write on=4 short_write\n"));
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    journal.add_sink(&sink);
    emit_windows(journal, 5);
    EXPECT_FALSE(sink.ok());  // crashed writer went quiet
    EXPECT_EQ(sink.lines_written(), 3u);
    EXPECT_EQ(sink.write_faults(), 1u);
  }
  // The torn line follows the header and three complete events.
  obs::JournalReadResult strict = obs::read_journal_dir(dir);
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.error.find(obs::journal_segment_name(0) + ": line 5"),
            std::string::npos)
      << strict.error;

  obs::JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  obs::JournalReadResult read = obs::read_journal_dir(dir, opts);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_TRUE(read.truncated_tail);
  ASSERT_EQ(read.events.size(), 3u);
  EXPECT_EQ(read.events.back().seq, 2u);
}
#endif  // VAPRO_FAULT_INJECTION

TEST(JournalSegments, TornLineInFinishedSegmentIsFatalEvenWithRecovery) {
  const std::string dir = temp_path("seg_torn_sealed");
  std::filesystem::remove_all(dir);
  obs::SegmentOptions seg;
  seg.directory = dir;
  seg.max_segment_bytes = 256;
  {
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    journal.add_sink(&sink);
    emit_windows(journal, 8);
    journal.flush();
    ASSERT_GE(sink.segments_opened(), 3u);
  }
  // Tear the last line of the first segment.  A rotation fsynced it before
  // the next segment opened, so no crash can leave it short: recovery,
  // which forgives only the last segment's tail, must not excuse it.
  const std::string first = dir + "/" + obs::journal_segment_name(0);
  std::string bytes = slurp(first);
  ASSERT_GT(bytes.size(), 16u);
  bytes.resize(bytes.size() - 10);
  {
    std::ofstream out(first, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  obs::JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  obs::JournalReadResult read = obs::read_journal_dir(dir, opts);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find(obs::journal_segment_name(0)), std::string::npos)
      << read.error;
}

#if defined(VAPRO_FAULT_INJECTION) && VAPRO_FAULT_INJECTION
TEST(JournalSegments, EnospcLeavesSeqGapNeverReorder) {
  const std::string dir = temp_path("seg_enospc");
  std::filesystem::remove_all(dir);
  obs::SegmentOptions seg;
  seg.directory = dir;
  seg.max_segment_bytes = 256;
  {
    testing_::FaultScope scope(plan_from("seed 1\njournal.write on=3 fail\n"));
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    journal.add_sink(&sink);
    emit_windows(journal, 10);
    journal.flush();
    EXPECT_EQ(sink.write_faults(), 1u);
    EXPECT_EQ(sink.lines_written(), 9u);
  }
  obs::JournalReadResult read = obs::read_journal_dir(dir);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(read.events.size(), 9u);
  std::vector<std::uint64_t> seqs;
  for (const auto& ev : read.events) seqs.push_back(ev.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(JournalSegments, RotateFaultKeepsActiveSegmentGrowing) {
  const std::string dir = temp_path("seg_rotfail");
  std::filesystem::remove_all(dir);
  obs::SegmentOptions seg;
  seg.directory = dir;
  seg.max_segment_bytes = 256;
  std::size_t segments = 0;
  std::uint64_t rotate_faults = 0;
  {
    // The first rotation attempt fails; later ones succeed.
    testing_::FaultScope scope(plan_from("seed 1\njournal.rotate on=1 fail\n"));
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    journal.add_sink(&sink);
    emit_windows(journal, 20);
    journal.flush();
    EXPECT_TRUE(sink.ok());  // rotation failure never wedges the sink
    EXPECT_EQ(sink.lines_written(), 20u);
    segments = sink.segments_opened();
    rotate_faults = sink.rotate_faults();
  }
  EXPECT_GE(rotate_faults, 1u);
  EXPECT_GE(segments, 2u);  // a later rotation still happened
  obs::JournalReadResult read = obs::read_journal_dir(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.events.size(), 20u);  // nothing lost to the failed rotation
}

// tests/plans/journal.plan is loaded from disk (not inlined here) so the
// committed plan file — the documented repro for the segment sink's hazard
// sites — is itself what this test executes.  The expected accounting is a
// pure function of the plan: `journal.write every=5 fail limit=2` drops
// event lines 5 and 10 (seqs 4 and 9), `journal.rotate on=1 fail` makes
// the first size-triggered rotation fail while the segment keeps growing,
// and `journal.write on=17 short_write` tears line 17 (seq 16) mid-line
// and silences the writer.
TEST(JournalSegments, PlanFileDrivesSegmentFaultSites) {
  const std::string dir = temp_path("seg_planfile");
  std::filesystem::remove_all(dir);
  testing_::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(testing_::FaultPlan::parse_file(
      std::string(VAPRO_PLANS_DIR) + "/journal.plan", &plan, &error))
      << error;
  obs::SegmentOptions seg;
  seg.directory = dir;
  seg.max_segment_bytes = 256;  // rotate every couple of records
  std::size_t segments = 0;
  {
    testing_::FaultScope scope(std::move(plan));
    obs::Journal journal;
    obs::JournalFileSink sink(seg);
    journal.add_sink(&sink);
    emit_windows(journal, 20);
    journal.flush();
    EXPECT_FALSE(sink.ok());  // the short write silenced the sink
    EXPECT_EQ(sink.lines_written(), 14u);  // 17 attempts - 2 ENOSPC - 1 torn
    EXPECT_EQ(sink.write_faults(), 3u);
    EXPECT_GE(sink.rotate_faults(), 1u);
    segments = sink.segments_opened();
  }
  EXPECT_GE(segments, 2u);  // rotations after the faulted one succeeded

  obs::JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  obs::JournalReadResult read = obs::read_journal_dir(dir, opts);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_TRUE(read.truncated_tail);
  std::vector<std::uint64_t> seqs;
  for (const auto& ev : read.events) seqs.push_back(ev.seq);
  // Seqs 4 and 9 were dropped by ENOSPC, seq 16 by the torn tail, and the
  // quiet sink never saw 17..19: gaps, never reorders.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 5, 6, 7, 8, 10, 11,
                                              12, 13, 14, 15}));
}
#endif  // VAPRO_FAULT_INJECTION

TEST(JournalSegments, DirReadRejectsCrossSegmentSeqRegression) {
  const std::string dir = temp_path("seg_seq_regress");
  std::filesystem::remove_all(dir);
  CollectingJournalSink events;
  {
    obs::Journal journal;
    journal.add_sink(&events);
    emit_windows(journal, 4);
  }
  std::string error;
  // Segment 1 replays seqs that segment 0 already covered.
  ASSERT_TRUE(obs::write_journal_file(
      dir + "/" + obs::journal_segment_name(0), events.events, 0,
      &error));
  ASSERT_TRUE(obs::write_journal_file(
      dir + "/" + obs::journal_segment_name(1), events.events, 0,
      &error));
  obs::JournalReadResult read = obs::read_journal_dir(dir);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("seq"), std::string::npos) << read.error;
}

TEST(JournalSegments, WriteReadRewriteIsByteIdentical) {
  const std::string a = temp_path("seg_rt_a.jsonl");
  const std::string b = temp_path("seg_rt_b.jsonl");
  CollectingJournalSink events;
  {
    obs::Journal journal;
    journal.add_sink(&events);
    emit_windows(journal, 6);
    journal.emit("variance_region", 3, 0.7,
                 {obs::JournalField::str("kind", "io"),
                  obs::JournalField::num("revision", std::uint64_t{1}),
                  obs::JournalField::num("mean_perf", 0.1 + 0.2)});
  }
  std::string error;
  ASSERT_TRUE(obs::write_journal_file(a, events.events, 0, &error)) << error;
  obs::JournalReadResult read = obs::read_journal(a);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_TRUE(obs::write_journal_file(b, read.events, 0, &error)) << error;
  EXPECT_EQ(slurp(a), slurp(b));
}

// --- compaction -----------------------------------------------------------

// A stream with superseded region revisions and quality snapshots: the
// compactor must drop exactly the superseded ones and replay must not be
// able to tell the difference.
std::vector<obs::JournalEvent> compactable_stream() {
  CollectingJournalSink events;
  obs::Journal journal;
  journal.add_sink(&events);
  auto region = [&](const char* kind, std::uint64_t revision, double perf) {
    journal.emit("variance_region", -1, 0.1 * static_cast<double>(revision),
                 {obs::JournalField::str("kind", kind),
                  obs::JournalField::num("revision", revision),
                  obs::JournalField::num("rank_lo", std::uint64_t{0}),
                  obs::JournalField::num("rank_hi", std::uint64_t{3}),
                  obs::JournalField::num("bin_lo", std::uint64_t{1}),
                  obs::JournalField::num("bin_hi", std::uint64_t{2}),
                  obs::JournalField::num("cells", std::uint64_t{8}),
                  obs::JournalField::num("mean_perf", perf),
                  obs::JournalField::num("impact_seconds", 2.0 * perf),
                  obs::JournalField::num("bin_seconds", 0.1)});
  };
  auto quality_snapshot = [&](double f1) {
    journal.emit("quality_cell", -1, f1,
                 {obs::JournalField::str("app", "CG"),
                  obs::JournalField::str("noise", "cpu"),
                  obs::JournalField::num("f1", f1)});
    journal.emit("quality", -1, f1,
                 {obs::JournalField::num("quality_f1", f1),
                  obs::JournalField::num("cells", std::uint64_t{1})});
  };
  journal.emit("window", 0, 0.1, {});
  region("computation", 1, 0.70);  // superseded by revision 2
  region("computation", 1, 0.72);  // superseded by revision 2
  quality_snapshot(0.5);           // superseded by the later snapshot
  journal.emit("window", 1, 0.2, {});
  region("computation", 2, 0.80);
  region("io", 1, 0.60);           // final for its kind — kept
  quality_snapshot(0.75);
  journal.emit("rare_finding", 1, 0.25,
               {obs::JournalField::str("state", "S1->S2"),
                obs::JournalField::str("kind", "computation"),
                obs::JournalField::num("executions", std::uint64_t{2}),
                obs::JournalField::num("total_seconds", 0.5),
                obs::JournalField::num("longest_seconds", 0.3)});
  return events.events;
}

TEST(JournalCompaction, DropsOnlySupersededEvents) {
  std::vector<obs::JournalEvent> events = compactable_stream();
  const std::size_t before = events.size();
  const obs::CompactionStats stats = obs::compact_journal_events(&events);
  EXPECT_EQ(stats.kept, events.size());
  EXPECT_EQ(stats.kept + stats.dropped, before);
  // Dropped: two computation regions at revision 1 and the first quality
  // snapshot (one cell + one aggregate).
  EXPECT_EQ(stats.dropped, 4u);
  for (const obs::JournalEvent& ev : events) {
    if (ev.type == "variance_region" && ev.str("kind") == "computation") {
      EXPECT_EQ(ev.number("revision"), 2.0);
    }
    if (ev.type == "quality") {
      EXPECT_DOUBLE_EQ(ev.number("quality_f1"), 0.75);
    }
    if (ev.type == "quality_cell") {
      EXPECT_DOUBLE_EQ(ev.number("f1"), 0.75);
    }
  }
  // The io region at revision 1 is that kind's final revision — kept.
  bool io_region = false;
  for (const obs::JournalEvent& ev : events)
    io_region |= ev.type == "variance_region" && ev.str("kind") == "io";
  EXPECT_TRUE(io_region);
  // Seqs keep their original values: sparse but monotonic.
  std::uint64_t last = 0;
  for (const obs::JournalEvent& ev : events) {
    if (&ev != &events.front()) {
      EXPECT_GT(ev.seq, last);
    }
    last = ev.seq;
  }
}

TEST(JournalCompaction, CompactedJournalReplaysByteIdentically) {
  const std::string full = temp_path("compact_full.jsonl");
  const std::string compacted = temp_path("compact_out.jsonl");
  const std::vector<obs::JournalEvent> events = compactable_stream();
  std::string error;
  ASSERT_TRUE(obs::write_journal_file(full, events, 0, &error)) << error;

  obs::CompactionStats stats;
  ASSERT_TRUE(obs::compact_journal(full, compacted, &stats, &error)) << error;
  EXPECT_GT(stats.dropped, 0u);

  // The compacted reader reports the dropped count from the header...
  obs::JournalReadResult read = obs::read_journal(compacted);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.compacted_dropped, stats.dropped);
  EXPECT_EQ(read.events.size(), stats.kept);

  // ...and the rendered replay — region tables, rare findings, event
  // count — is byte-identical to the full journal's.
  const core::JournalSummary sfull = core::summarize_journal_file(full);
  const core::JournalSummary scomp = core::summarize_journal_file(compacted);
  ASSERT_TRUE(sfull.ok) << sfull.error;
  ASSERT_TRUE(scomp.ok) << scomp.error;
  EXPECT_EQ(core::render_journal_summary(sfull),
            core::render_journal_summary(scomp));

  // Compacting an already-compacted journal carries the drop count
  // forward instead of forgetting it.
  const std::string twice = temp_path("compact_twice.jsonl");
  ASSERT_TRUE(obs::compact_journal(compacted, twice, &stats, &error)) << error;
  EXPECT_EQ(stats.dropped, 0u);  // nothing left to supersede
  const core::JournalSummary stwice = core::summarize_journal_file(twice);
  EXPECT_EQ(core::render_journal_summary(sfull),
            core::render_journal_summary(stwice));
}

TEST(Alerts, RuleParsing) {
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("variance_ratio > 1.2 for 3", &rule,
                                    &error))
      << error;
  EXPECT_EQ(rule.metric, "variance_ratio");
  EXPECT_EQ(rule.op, obs::AlertRule::Op::kGt);
  EXPECT_DOUBLE_EQ(rule.threshold, 1.2);
  EXPECT_EQ(rule.for_windows, 3);

  ASSERT_TRUE(obs::parse_alert_rule("factor=io contribution > 0.25", &rule,
                                    &error))
      << error;
  EXPECT_EQ(rule.metric, "factor");
  EXPECT_EQ(rule.factor, "io");
  EXPECT_DOUBLE_EQ(rule.threshold, 0.25);

  ASSERT_TRUE(obs::parse_alert_rule("worst_cell < 0.7", &rule, &error));
  EXPECT_EQ(rule.op, obs::AlertRule::Op::kLt);
  EXPECT_EQ(rule.for_windows, 1);

  EXPECT_FALSE(obs::parse_alert_rule("nonsense !! 12", &rule, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::parse_alert_rule("unknown_metric > 1", &rule, &error));
}

// strtod accepts inf, nan and overflow; a rule on such a threshold always
// or never fires, and its webhook line would not be JSON.  Refused.
TEST(Alerts, RuleRejectsNonFiniteThreshold) {
  for (const std::string threshold : {"nan", "inf", "-inf", "1e999"}) {
    obs::AlertRule rule;
    std::string error;
    EXPECT_FALSE(obs::parse_alert_rule("variance_ratio < " + threshold, &rule,
                                       &error))
        << threshold;
    EXPECT_NE(error.find("threshold '" + threshold + "' is not finite"),
              std::string::npos)
        << error;
  }
}

TEST(Alerts, WebhookLinesStayJsonForNonFiniteValues) {
  const std::string path = temp_path("webhook_nonfinite.jsonl");
  std::remove(path.c_str());
  {
    obs::WebhookFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    obs::Alert alert;
    alert.rule_text = "worst_cell < 0.5";
    alert.metric = "worst_cell";
    alert.value = std::numeric_limits<double>::quiet_NaN();
    alert.threshold = std::numeric_limits<double>::infinity();
    alert.window = 4;
    sink.on_alert(alert);
  }
  EXPECT_EQ(slurp(path),
            "{\"event\":\"vapro.alert\",\"rule\":\"worst_cell < 0.5\","
            "\"metric\":\"worst_cell\",\"value\":null,\"threshold\":null,"
            "\"window\":4}\n");
  std::remove(path.c_str());
}

TEST(Alerts, ForWindowsRequiresConsecutiveStreakAndRearms) {
  obs::Journal journal;
  obs::AlertEngine engine;
  CollectingAlertSink sink;
  engine.add_alert_sink(&sink);
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("variance_ratio > 1.2 for 3", &rule,
                                    &error));
  engine.add_rule(std::move(rule));
  journal.add_sink(&engine);

  auto window = [&](std::int64_t w, double ratio) {
    journal.emit("window", w, 0.1 * static_cast<double>(w + 1),
                 {obs::JournalField::num("variance_ratio", ratio)});
  };
  window(0, 1.5);
  window(1, 1.5);
  EXPECT_EQ(sink.alerts.size(), 0u);  // streak of 2 < 3
  window(2, 1.1);                     // streak broken
  window(3, 1.5);
  window(4, 1.5);
  EXPECT_EQ(sink.alerts.size(), 0u);
  window(5, 1.5);                     // 3rd consecutive — fires
  ASSERT_EQ(sink.alerts.size(), 1u);
  EXPECT_EQ(sink.alerts[0].window, 5);
  EXPECT_DOUBLE_EQ(sink.alerts[0].value, 1.5);
  window(6, 1.5);                     // sustained: no re-fire while armed
  EXPECT_EQ(sink.alerts.size(), 1u);
  window(7, 1.0);                     // condition breaks → re-arm
  window(8, 1.5);
  window(9, 1.5);
  window(10, 1.5);
  EXPECT_EQ(sink.alerts.size(), 2u);
  EXPECT_EQ(engine.alerts_fired(), 2u);
}

TEST(Alerts, FactorRuleMatchesDiagnosisFindings) {
  obs::Journal journal;
  obs::AlertEngine engine;
  CollectingAlertSink sink;
  engine.add_alert_sink(&sink);
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("factor=io contribution > 0.25", &rule,
                                    &error));
  engine.add_rule(std::move(rule));
  journal.add_sink(&engine);

  // Findings precede their window event in seq order (diagnosis feeds
  // before the server emits "window") — the engine buffers the factor hit.
  journal.emit("diagnosis_finding", -1, 0.0,
               {obs::JournalField::str("factor", "network"),
                obs::JournalField::num("share", 0.5)});
  journal.emit("window", 0, 0.1, {});
  EXPECT_EQ(sink.alerts.size(), 0u);  // wrong factor

  journal.emit("diagnosis_finding", -1, 0.0,
               {obs::JournalField::str("factor", "io"),
                obs::JournalField::num("share", 0.4)});
  journal.emit("window", 1, 0.2, {});
  ASSERT_EQ(sink.alerts.size(), 1u);
  EXPECT_NE(sink.alerts[0].metric.find("io"), std::string::npos);
  EXPECT_DOUBLE_EQ(sink.alerts[0].value, 0.4);
}

TEST(Alerts, ShedCountRuleFiresOnIngestOverload) {
  obs::Journal journal;
  obs::AlertEngine engine;
  CollectingAlertSink sink;
  engine.add_alert_sink(&sink);
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("shed_count > 0", &rule, &error)) << error;
  engine.add_rule(std::move(rule));
  journal.add_sink(&engine);

  // A healthy window: no sheds, no alert.
  journal.emit("window", 0, 0.1, {});
  EXPECT_EQ(sink.alerts.size(), 0u);

  // The ingest plane drops two batches (one shed, one reorder-window
  // reject) before the window closes: the rule fires with the drop count.
  journal.emit("shed", 4, 0.15,
               {obs::JournalField::num("batch_seq", 4.0),
                obs::JournalField::num("fragments", 120.0)});
  journal.emit("net_drop", 9, 0.18,
               {obs::JournalField::num("batch_seq", 9.0),
                obs::JournalField::str("reason", "reorder_window_exceeded")});
  journal.emit("window", 1, 0.2, {});
  ASSERT_EQ(sink.alerts.size(), 1u);
  EXPECT_EQ(sink.alerts[0].metric, "shed_count");
  EXPECT_DOUBLE_EQ(sink.alerts[0].value, 2.0);

  // The count resets per window: a clean window re-arms the rule, the
  // next overloaded one fires again.
  journal.emit("window", 2, 0.3, {});
  EXPECT_EQ(sink.alerts.size(), 1u);
  journal.emit("shed", 12, 0.35, {obs::JournalField::num("batch_seq", 12.0)});
  journal.emit("window", 3, 0.4, {});
  EXPECT_EQ(sink.alerts.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.alerts[1].value, 1.0);
}

TEST(Alerts, JournalSinkRecordsAlertBackIntoJournal) {
  obs::Journal journal;
  CollectingJournalSink events;
  journal.add_sink(&events);
  obs::AlertEngine engine;
  obs::JournalAlertSink back(&journal);
  engine.add_alert_sink(&back);
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("worst_cell < 0.7", &rule, &error));
  engine.add_rule(std::move(rule));
  journal.add_sink(&engine);

  journal.emit("window", 0, 0.1,
               {obs::JournalField::num("worst_cell", 0.5)});
  // Re-entrant emit is queued after the triggering event, seq stays dense.
  ASSERT_EQ(events.events.size(), 2u);
  EXPECT_EQ(events.events[0].type, "window");
  EXPECT_EQ(events.events[1].type, "alert");
  EXPECT_EQ(events.events[1].seq, 1u);
  EXPECT_EQ(events.events[1].str("metric"), "worst_cell");
}

// Acceptance: a journal captured from a live run, re-ingested through
// core::summarize_journal, reproduces the run's own detection region table
// and diagnosis summary character for character.
TEST(JournalReplay, ReproducesLiveDetectionAndDiagnosisSummaries) {
  sim::SimConfig cfg;
  cfg.ranks = 16;
  cfg.cores_per_node = 8;
  cfg.seed = 3;
  sim::NoiseSpec noise;
  noise.kind = sim::NoiseKind::kIoInterference;
  noise.node = 1;
  noise.t_begin = 0.2;
  noise.t_end = 10.0;
  noise.magnitude = 2.0;
  cfg.noises.push_back(noise);
  sim::Simulator simulator(cfg);

  obs::ObsContext ctx;
  ctx.enable_journal();
  CollectingJournalSink events;
  ctx.journal()->add_sink(&events);

  core::VaproOptions opts;
  opts.window_seconds = 0.1;
  opts.obs = &ctx;
  core::VaproSession session(simulator, opts);

  apps::NpbParams p;
  p.iters = 80;
  simulator.run(apps::cg(p));
  session.server().journal_detection_snapshot();

  core::JournalSummary summary = core::summarize_journal(events.events);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_GT(summary.windows, 0u);

  // Region tables per category, byte for byte.
  for (core::FragmentKind kind :
       {core::FragmentKind::kComputation, core::FragmentKind::kCommunication,
        core::FragmentKind::kIo}) {
    const auto live = session.server().locate(kind);
    EXPECT_EQ(core::render_region_table(
                  summary.regions[static_cast<int>(kind)], opts.bin_seconds),
              core::render_region_table(live, opts.bin_seconds))
        << core::fragment_kind_name(kind);
  }

  // Diagnosis verdict, byte for byte.
  EXPECT_EQ(summary.diagnosis.summary(),
            session.server().diagnosis().summary());
}

}  // namespace
}  // namespace vapro
