// Tests for src/testing (fault plans, the injector, the virtual clock) and
// for the hardened hazard sites they drive: journal short-write/ENOSPC and
// torn-tail recovery, alert-sink drop/throw survival, client ingest drops,
// and skipped window publication (rotation failure is covered by the
// segment tests in test_journal.cpp).  Everything here is deterministic —
// seeded plans, no sleeps, no real time.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/core/server.hpp"
#include "src/obs/alerts.hpp"
#include "src/obs/context.hpp"
#include "src/obs/journal.hpp"
#include "src/testing/fault.hpp"
#include "src/util/clock.hpp"

// The repo-level namespace is vapro::testing, which collides with gtest's
// ::testing inside TEST bodies; alias it once.
namespace testing_ = vapro::testing;

namespace vapro {
namespace {

std::string temp_path(const std::string& leaf) {
  return std::string(::testing::TempDir()) + leaf;
}

// --- plan parsing ---------------------------------------------------------

TEST(FaultPlan, ParsesRulesAndRoundTrips) {
  const std::string text =
      "# stress plan\n"
      "seed 1234\n"
      "journal.write  on=3  short_write\n"
      "journal.write  every=7  fail  limit=2\n"
      "expo.send  prob=0.25  close\n"
      "alerts.dispatch  on=2  throw\n";
  testing_::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(testing_::FaultPlan::parse(text, &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 1234u);
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].site, "journal.write");
  EXPECT_EQ(plan.rules[0].on, 3u);
  EXPECT_EQ(plan.rules[0].action, testing_::FaultAction::kShortWrite);
  EXPECT_EQ(plan.rules[1].every, 7u);
  EXPECT_EQ(plan.rules[1].limit, 2u);
  EXPECT_DOUBLE_EQ(plan.rules[2].prob, 0.25);
  EXPECT_EQ(plan.rules[3].action, testing_::FaultAction::kThrow);

  // Canonical text re-parses to the same plan.
  testing_::FaultPlan again;
  ASSERT_TRUE(testing_::FaultPlan::parse(plan.to_string(), &again, &error))
      << error;
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(FaultPlan, RejectsMalformedLinesWithLineNumbers) {
  testing_::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(testing_::FaultPlan::parse("journal.write on=3\n", &plan,
                                          &error));  // no action
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(
      testing_::FaultPlan::parse("seed 1\nexpo.send frob\n", &plan, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(testing_::FaultPlan::parse("expo.send close\n", &plan,
                                          &error));  // no trigger
}

TEST(FaultPlan, ParseFileReadsPlanFromDisk) {
  const std::string path = temp_path("plan.txt");
  {
    std::ofstream out(path);
    out << "seed 7\njournal.write on=1 fail\n";
  }
  testing_::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(testing_::FaultPlan::parse_file(path, &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_FALSE(
      testing_::FaultPlan::parse_file(temp_path("missing.txt"), &plan, &error));
}

// --- injector semantics ---------------------------------------------------

#if defined(VAPRO_FAULT_INJECTION) && VAPRO_FAULT_INJECTION

testing_::FaultPlan plan_from(const std::string& text) {
  testing_::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(testing_::FaultPlan::parse(text, &plan, &error)) << error;
  return plan;
}

TEST(FaultInjector, UnarmedHitsAreNoops) {
  EXPECT_EQ(VAPRO_FAULT("journal.write"), testing_::FaultAction::kNone);
  EXPECT_EQ(testing_::FaultInjector::instance().injected_total(), 0u);
}

TEST(FaultInjector, OnAndEveryTriggersAreExact) {
  testing_::FaultScope scope(plan_from(
      "seed 1\njournal.write on=3 short_write\njournal.write every=5 fail\n"));
  std::vector<testing_::FaultAction> seen;
  for (int i = 0; i < 10; ++i) seen.push_back(VAPRO_FAULT("journal.write"));
  for (int i = 0; i < 10; ++i) {
    testing_::FaultAction want = testing_::FaultAction::kNone;
    if (i + 1 == 3) want = testing_::FaultAction::kShortWrite;
    if ((i + 1) % 5 == 0) want = testing_::FaultAction::kFail;
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], want) << "hit " << i + 1;
  }
  EXPECT_EQ(testing_::FaultInjector::instance().hits("journal.write"), 10u);
  EXPECT_EQ(testing_::FaultInjector::instance().injected("journal.write"), 3u);
}

TEST(FaultInjector, LimitCapsFirings) {
  testing_::FaultScope scope(
      plan_from("seed 1\nclient.ingest every=2 drop limit=3\n"));
  int fired = 0;
  for (int i = 0; i < 20; ++i)
    if (VAPRO_FAULT("client.ingest") == testing_::FaultAction::kDrop) ++fired;
  EXPECT_EQ(fired, 3);
}

TEST(FaultInjector, ProbabilityScheduleIsSeedDeterministic) {
  auto schedule = [](std::uint64_t seed) {
    testing_::FaultScope scope(plan_from(
        "seed " + std::to_string(seed) + "\nexpo.send prob=0.3 close\n"));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i)
      fired.push_back(VAPRO_FAULT("expo.send") ==
                      testing_::FaultAction::kClose);
    return fired;
  };
  const auto a = schedule(42), b = schedule(42), c = schedule(43);
  EXPECT_EQ(a, b);  // same seed → identical firing schedule
  EXPECT_NE(a, c);  // different seed → (overwhelmingly) different schedule
  int fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST(FaultInjector, SitesCountIndependently) {
  testing_::FaultScope scope(plan_from(
      "seed 1\njournal.write on=2 fail\nalerts.dispatch on=2 drop\n"));
  // Interleave: each site fires on ITS OWN second hit, regardless of the
  // other site's traffic.
  EXPECT_EQ(VAPRO_FAULT("journal.write"), testing_::FaultAction::kNone);
  EXPECT_EQ(VAPRO_FAULT("alerts.dispatch"), testing_::FaultAction::kNone);
  EXPECT_EQ(VAPRO_FAULT("journal.write"), testing_::FaultAction::kFail);
  EXPECT_EQ(VAPRO_FAULT("alerts.dispatch"), testing_::FaultAction::kDrop);
}

TEST(FaultInjector, ThrowIfRaisesFaultInjected) {
  EXPECT_THROW(testing_::FaultInjector::throw_if(
                   testing_::FaultAction::kThrow, "alerts.dispatch"),
               testing_::FaultInjected);
  testing_::FaultInjector::throw_if(testing_::FaultAction::kNone,
                                    "alerts.dispatch");  // no throw
}

// --- journal hazard sites -------------------------------------------------

TEST(JournalFault, EnospcDropsLineButKeepsSeqMonotonic) {
  const std::string path = temp_path("journal_enospc.jsonl");
  std::remove(path.c_str());
  {
    testing_::FaultScope scope(plan_from("seed 1\njournal.write on=3 fail\n"));
    obs::Journal journal;
    obs::JournalFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    journal.add_sink(&sink);
    // The header is written at open, not through the hook: hits count
    // event writes only, so on=3 drops the event with seq 2.
    for (int i = 0; i < 5; ++i)
      journal.emit("window", i, 0.1 * i, {obs::JournalField::num(
                                             "n", static_cast<double>(i))});
    journal.flush();
    EXPECT_EQ(sink.write_faults(), 1u);
    EXPECT_EQ(sink.lines_written(), 4u);
  }
  obs::JournalReadResult read = obs::read_journal(path);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(read.events.size(), 4u);
  // seq 2 is a hole: monotonic, never reordered.
  std::vector<std::uint64_t> seqs;
  for (const auto& ev : read.events) seqs.push_back(ev.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 3, 4}));
}

TEST(JournalFault, ShortWriteLeavesTornTailAndReaderRecovers) {
  const std::string path = temp_path("journal_torn.jsonl");
  std::remove(path.c_str());
  {
    testing_::FaultScope scope(
        plan_from("seed 1\njournal.write on=3 short_write\n"));
    obs::Journal journal;
    obs::JournalFileSink sink(path);
    journal.add_sink(&sink);
    for (int i = 0; i < 4; ++i)
      journal.emit("window", i, 0.1 * i,
                   {obs::JournalField::str("payload", "x-marks-the-line")});
    journal.flush();
    EXPECT_FALSE(sink.ok());  // the "crashed" writer went quiet
    EXPECT_EQ(sink.lines_written(), 2u);
  }
  // Without recovery the torn final line is fatal.
  obs::JournalReadResult strict = obs::read_journal(path);
  EXPECT_FALSE(strict.ok);
  // With recovery: both complete events survive, the tail is reported.
  obs::JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  obs::JournalReadResult read = obs::read_journal(path, opts);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_TRUE(read.truncated_tail);
  ASSERT_EQ(read.events.size(), 2u);
  EXPECT_EQ(read.events[1].seq, 1u);
}

// --- alert dispatch -------------------------------------------------------

struct CountingAlertSink final : obs::AlertSink {
  int delivered = 0;
  bool throws = false;
  void on_alert(const obs::Alert&) override {
    if (throws) throw std::runtime_error("sink exploded");
    ++delivered;
  }
};

// Three windows over threshold fire `variance_ratio > 1.2 for 3` once.
void run_streak(obs::Journal& journal, int windows) {
  for (int i = 0; i < windows; ++i)
    journal.emit("window", i, 0.1 * i,
                 {obs::JournalField::num("variance_ratio", 1.5)});
}

TEST(AlertFault, DroppedDispatchSkipsSinkButCountsFire) {
  testing_::FaultScope scope(
      plan_from("seed 1\nalerts.dispatch on=1 drop\n"));
  obs::Journal journal;
  obs::AlertEngine engine;
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("variance_ratio > 1.2 for 3", &rule,
                                    &error))
      << error;
  engine.add_rule(rule);
  CountingAlertSink sink;
  engine.add_alert_sink(&sink);
  journal.add_sink(&engine);
  run_streak(journal, 3);
  EXPECT_EQ(engine.alerts_fired(), 1u);    // the rule fired...
  EXPECT_EQ(sink.delivered, 0);            // ...but delivery was dropped
  EXPECT_EQ(engine.dispatch_faults(), 1u);
  // The streak does not re-fire: a lost delivery is not a new alert.
  run_streak(journal, 3);
  EXPECT_EQ(engine.alerts_fired(), 1u);
}

TEST(AlertFault, ThrowingSinkDoesNotStarveOtherSinks) {
  obs::Journal journal;
  obs::AlertEngine engine;
  obs::AlertRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_alert_rule("variance_ratio > 1.2 for 3", &rule,
                                    &error))
      << error;
  engine.add_rule(rule);
  CountingAlertSink bad;
  bad.throws = true;
  CountingAlertSink good;
  engine.add_alert_sink(&bad);
  engine.add_alert_sink(&good);
  journal.add_sink(&engine);
  run_streak(journal, 3);  // must not propagate the sink's exception
  EXPECT_EQ(engine.alerts_fired(), 1u);
  EXPECT_EQ(good.delivered, 1);
  EXPECT_EQ(engine.dispatch_faults(), 1u);
}

// --- server publication ---------------------------------------------------

// A small multi-edge batch so the shard pool has real fan-out work: 3
// sites x 4 ranks of computation + communication fragments, with rank 3
// slowed in window 1 to produce a non-trivial heat map.
core::FragmentBatch shard_batch(int window) {
  core::FragmentBatch batch;
  const int kSites = 3, kRanks = 4, kReps = 6;
  std::vector<core::StateKey> keys;
  for (int s = 0; s < kSites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(20 + s);
    info.kind = sim::OpKind::kAllreduce;
    keys.push_back(core::make_state_key(core::StgMode::kContextFree, info));
    batch.new_states.push_back(info);
  }
  for (int rank = 0; rank < kRanks; ++rank) {
    core::StateKey prev = core::kStartState;
    double t = window * 0.25;
    for (int step = 0; step < kSites * kReps; ++step) {
      const int s = step % kSites;
      core::Fragment comp;
      comp.kind = core::FragmentKind::kComputation;
      comp.rank = rank;
      comp.from = prev;
      comp.to = keys[static_cast<std::size_t>(s)];
      comp.start_time = t;
      const double stretch = (window == 1 && rank == kRanks - 1) ? 2.0 : 1.0;
      comp.end_time = t + 0.003 * stretch;
      comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
      batch.fragments.push_back(comp);
      t = comp.end_time + 0.005;
      prev = keys[static_cast<std::size_t>(s)];
    }
  }
  return batch;
}

// What a faulted window must leave identical: the computation map and its
// regions.
std::string detection_fingerprint(const core::AnalysisServer& server) {
  std::string fp = server.computation_map().render_ascii();
  for (const core::VarianceRegion& r :
       server.locate(core::FragmentKind::kComputation))
    fp += std::to_string(r.rank_lo) + "," + std::to_string(r.rank_hi) + "," +
          std::to_string(r.bin_lo) + "," + std::to_string(r.bin_hi) + "," +
          std::to_string(r.impact_seconds) + "\n";
  return fp;
}

TEST(PipelineFault, ShardFaultDegradesWindowToSerialWithIdenticalOutput) {
  // The pool-task throw is contained, the window re-fans-out serially, and
  // — because sharding is byte-equivalent by design — detection output
  // matches an unfaulted run exactly.
  auto run = [](const char* plan_text, std::size_t expected_faults) {
    std::optional<testing_::FaultScope> scope;
    if (plan_text) scope.emplace(plan_from(plan_text));
    core::ServerOptions opts;
    opts.run_diagnosis = false;
    opts.analysis_threads = 4;
    core::AnalysisServer server(4, opts);
    for (int w = 0; w < 3; ++w) server.process_window(shard_batch(w));
    EXPECT_EQ(server.shard_faults(), expected_faults);
    return detection_fingerprint(server);
  };
  const std::string clean = run(nullptr, 0);
  const std::string faulted = run("seed 1\npipeline.shard on=2 fail\n", 1);
  EXPECT_EQ(faulted, clean);
  EXPECT_FALSE(clean.empty());
}

TEST(PipelineFault, HandoffFaultDegradesWindowToSyncWithIdenticalOutput) {
  // A failed hand-off waits for its window instead of overlapping it; the
  // worker still runs every window in FIFO order, so a depth-2 server's
  // detection output matches an unfaulted run exactly.
  auto run = [](const char* plan_text, std::size_t expected_faults) {
    std::optional<testing_::FaultScope> scope;
    if (plan_text) scope.emplace(plan_from(plan_text));
    core::ServerOptions opts;
    opts.run_diagnosis = false;
    opts.pipeline_depth = 2;
    core::AnalysisServer server(4, opts);
    for (int w = 0; w < 3; ++w) server.process_window(shard_batch(w));
    EXPECT_EQ(server.handoff_faults(), expected_faults);
    return detection_fingerprint(server);
  };
  const std::string clean = run(nullptr, 0);
  const std::string faulted =
      run("seed 1\npipeline.handoff on=2 fail\n", 1);
  EXPECT_EQ(faulted, clean);
  EXPECT_FALSE(clean.empty());
}

TEST(PipelineFault, ShardFaultOnSerialServerNeverFires) {
  // The site is only evaluated when a shard pool exists, so a serial
  // server under the same plan stays untouched.
  testing_::FaultScope scope(
      plan_from("seed 1\npipeline.shard every=1 fail\n"));
  core::ServerOptions opts;
  opts.run_diagnosis = false;
  opts.analysis_threads = 1;
  core::AnalysisServer server(4, opts);
  for (int w = 0; w < 2; ++w) server.process_window(shard_batch(w));
  EXPECT_EQ(server.shard_faults(), 0u);
  EXPECT_EQ(server.windows_processed(), 2u);
}

TEST(ServerFault, WindowPublishFaultSkipsJournalButKeepsAnalysis) {
  testing_::FaultScope scope(plan_from("seed 1\nserver.window on=1 fail\n"));
  obs::ObsContext obs;
  obs.enable_journal();
  struct Collecting final : obs::JournalSink {
    std::vector<std::string> types;
    void on_event(const obs::JournalEvent& ev) override {
      types.push_back(ev.type);
    }
  } collector;
  obs.journal()->add_sink(&collector);

  core::ServerOptions opts;
  opts.run_diagnosis = false;
  opts.obs = &obs;
  core::AnalysisServer server(2, opts);
  server.process_window({});  // publish for window 0 is injected away
  server.process_window({});  // window 1 publishes normally
  EXPECT_EQ(server.windows_processed(), 2u);
  EXPECT_EQ(server.publish_faults(), 1u);
  int window_events = 0;
  for (const std::string& t : collector.types) window_events += t == "window";
  EXPECT_EQ(window_events, 1);  // only the unfaulted window journaled
}

#endif  // VAPRO_FAULT_INJECTION

// --- virtual clock --------------------------------------------------------

TEST(VirtualClock, AdvancesOnlyExplicitly) {
  util::VirtualClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 100.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 102.5);
  clock.sleep_for(1.5);  // a virtual sleeper advances time itself
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 104.0);
  clock.set(90.0);  // monotonic: set() never steps backwards
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 104.0);
  clock.advance(-3.0);  // negative advances are ignored
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 104.0);
}

TEST(VirtualClock, DrivesObsContextAgesWithoutSleeping) {
  util::VirtualClock clock;
  obs::ObsContext obs;
  obs.set_clock(&clock);
  EXPECT_DOUBLE_EQ(obs.uptime_seconds(), 0.0);
  EXPECT_LT(obs.last_window_age_seconds(), 0.0);  // no window yet
  clock.advance(5.0);
  EXPECT_DOUBLE_EQ(obs.uptime_seconds(), 5.0);
  obs.emit_window({});
  EXPECT_NEAR(obs.last_window_age_seconds(), 0.0, 1e-9);
  clock.advance(7.0);
  EXPECT_NEAR(obs.last_window_age_seconds(), 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(obs.uptime_seconds(), 12.0);
}

TEST(VirtualClock, RealClockIsMonotonicSingleton) {
  util::Clock* clock = util::real_clock();
  ASSERT_NE(clock, nullptr);
  EXPECT_EQ(clock, util::real_clock());
  const double a = clock->now_seconds();
  const double b = clock->now_seconds();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace vapro
