// Tests for the trace subsystem: recording, binary round trip, replay
// fidelity, and offline re-analysis equivalence with the live session.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "src/apps/npb.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/vapro.hpp"
#include "src/sim/runtime.hpp"
#include "src/trace/offline.hpp"
#include "src/trace/trace.hpp"

namespace vapro::trace {
namespace {

sim::SimConfig noisy_config() {
  sim::SimConfig cfg;
  cfg.ranks = 16;
  cfg.cores_per_node = 8;
  cfg.seed = 55;
  sim::NoiseSpec dimm;
  dimm.kind = sim::NoiseKind::kSlowDram;
  dimm.node = 1;
  dimm.magnitude = 3.0;
  cfg.noises.push_back(dimm);
  return cfg;
}

Trace record_nekbone() {
  sim::Simulator simulator(noisy_config());
  TraceWriter writer;
  simulator.set_interceptor(&writer);
  apps::NekboneParams p;
  p.iters = 120;
  simulator.run(apps::nekbone(p));
  return writer.take();
}

TEST(Trace, RecordsBeginEndPairsInTimeOrder) {
  Trace trace = record_nekbone();
  ASSERT_GT(trace.size(), 1000u);
  double prev = 0.0;
  std::size_t begins = 0, ends = 0, program_ends = 0;
  for (const TraceEvent& ev : trace.events()) {
    EXPECT_GE(ev.time, prev);
    prev = ev.time;
    switch (ev.kind) {
      case EventKind::kCallBegin: ++begins; break;
      case EventKind::kCallEnd: ++ends; break;
      case EventKind::kProgramEnd: ++program_ends; break;
    }
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(program_ends, 16u);
}

TEST(Trace, BinaryRoundTripIsLossless) {
  Trace trace = record_nekbone();
  const std::string path = "/tmp/vapro_trace_test.vprt";
  ASSERT_TRUE(trace.save(path));
  std::string error;
  const std::optional<Trace> loaded = Trace::load(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;

  ASSERT_EQ(loaded->size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); i += 97) {  // spot-check stride
    const TraceEvent& a = trace.events()[i];
    const TraceEvent& b = loaded->events()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.info.rank, b.info.rank);
    EXPECT_EQ(a.info.site, b.info.site);
    EXPECT_EQ(a.info.kind, b.info.kind);
    EXPECT_DOUBLE_EQ(a.info.args.bytes, b.info.args.bytes);
    EXPECT_EQ(a.info.truth_class_since_last, b.info.truth_class_since_last);
    EXPECT_EQ(a.info.path, b.info.path);
    for (std::size_t c = 0; c < pmu::kCounterCount; ++c)
      EXPECT_DOUBLE_EQ(a.ground_truth.values[c], b.ground_truth.values[c]);
  }
}

// The error load() returns for `path`, which must not load.
std::string load_error(const std::string& path) {
  std::string error;
  const std::optional<Trace> trace = Trace::load(path, &error);
  EXPECT_FALSE(trace.has_value()) << path;
  return error;
}

TEST(Trace, LoadRejectsGarbage) {
  const std::string path = "/tmp/vapro_trace_garbage.vprt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace", f);
    std::fclose(f);
  }
  EXPECT_EQ(load_error(path), "not a vapro trace");
  std::remove(path.c_str());
}

TEST(Trace, SaveAndLoadReportUnusablePaths) {
  // A path under a regular file can be neither written nor read.
  const std::string file = "/tmp/vapro_trace_not_a_dir";
  { std::ofstream touch(file); }
  Trace trace;
  EXPECT_FALSE(trace.save(file + "/t.vprt"));
  EXPECT_EQ(load_error(file + "/t.vprt"), "cannot open file");
  std::remove(file.c_str());
}

// Saves a valid two-event trace, then overwrites the bytes of `value` at
// `offset`: 12 is the first event's kind byte, 21 its rank.
template <typename T>
std::string corrupted_trace(const std::string& name, std::size_t offset,
                            T value) {
  Trace trace;
  TraceEvent ev;
  ev.kind = EventKind::kProgramEnd;
  ev.time = 1.0;
  trace.append(ev);
  trace.append(ev);
  const std::string path = "/tmp/vapro_trace_" + name + ".vprt";
  EXPECT_TRUE(trace.save(path));
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return path;
}

TEST(Trace, LoadRejectsNegativeRank) {
  const std::string path =
      corrupted_trace("negative_rank", 21, std::int32_t{-5});
  EXPECT_EQ(load_error(path), "trace event 0: rank -5 out of range");
  std::remove(path.c_str());
}

TEST(Trace, LoadRejectsRankPastEventCount) {
  // INT_MAX + 1 would overflow the rank count a replay sizes its client by.
  const std::string path =
      corrupted_trace("huge_rank", 21, std::int32_t{INT_MAX});
  EXPECT_EQ(load_error(path), "trace event 0: rank 2147483647 out of range");
  std::remove(path.c_str());
}

TEST(Trace, LoadRejectsUnknownEventKind) {
  const std::string path = corrupted_trace("bad_kind", 12, std::uint8_t{7});
  EXPECT_EQ(load_error(path), "trace event 0: bad event kind 7");
  std::remove(path.c_str());
}

TEST(Trace, ReplayFeedsEveryEvent) {
  Trace trace = record_nekbone();
  struct Counter final : sim::Interceptor {
    std::size_t begins = 0, ends = 0, finishes = 0;
    void on_call_begin(const sim::InvocationInfo&, double,
                       const pmu::CounterSample&) override {
      ++begins;
    }
    void on_call_end(const sim::InvocationInfo&, double,
                     const pmu::CounterSample&) override {
      ++ends;
    }
    void on_program_end(sim::RankId, double) override { ++finishes; }
  } sink;
  TraceReplayer(trace).replay(sink);
  EXPECT_EQ(sink.begins + sink.ends + sink.finishes, trace.size());
}

// Regression: a window that is not positive and finite never moved the
// flush time past the first event, so the replay looped forever.
TEST(Trace, ReplayWindowedRejectsUnusableWindows) {
  const Trace trace = record_nekbone();
  struct Ignore final : sim::Interceptor {
    void on_call_begin(const sim::InvocationInfo&, double,
                       const pmu::CounterSample&) override {}
    void on_call_end(const sim::InvocationInfo&, double,
                     const pmu::CounterSample&) override {}
  } sink;
  for (const double window : {0.0, -1.0, std::nan("")})
    EXPECT_DEATH(
        TraceReplayer(trace).replay_windowed(sink, window, [](double) {}),
        "not positive and finite")
        << "window " << window;
}

// Replays `trace` into a fresh detached session.
std::unique_ptr<core::VaproSession> replayed(const Trace& trace,
                                             core::VaproOptions opts) {
  auto session =
      std::make_unique<core::VaproSession>(trace.ranks(), std::move(opts));
  replay(trace, *session);
  return session;
}

// Everything a replay must reproduce of its run: every region at full
// precision, the diagnosis, covered time, and the rare-finding and
// fragment counts.
std::string analysis_fingerprint(const core::VaproSession& session) {
  std::string out;
  char line[256];
  for (core::FragmentKind kind :
       {core::FragmentKind::kComputation, core::FragmentKind::kCommunication,
        core::FragmentKind::kIo}) {
    for (const core::VarianceRegion& r : session.locate(kind)) {
      std::snprintf(line, sizeof(line),
                    "%s ranks %d-%d bins %d-%d cells %zu perf %.17g "
                    "impact %.17g\n",
                    core::fragment_kind_name(kind), r.rank_lo, r.rank_hi,
                    r.bin_lo, r.bin_hi, r.cells, r.mean_perf,
                    r.impact_seconds);
      out += line;
    }
  }
  const core::CoverageAccumulator& cov = session.coverage_accumulator();
  std::snprintf(line, sizeof(line),
                "covered %.17g %.17g %.17g rare %zu fragments %llu\n",
                cov.covered[0], cov.covered[1], cov.covered[2],
                session.rare_findings().size(),
                static_cast<unsigned long long>(session.fragments_recorded()));
  return out + line + session.diagnosis().summary();
}

TEST(Offline, MatchesLiveDetection) {
  // Record a live run through a tee, then replay the trace with the run's
  // own options: the replay must reproduce the run exactly, including the
  // PMU jitter (same seed) and the counters diagnosis and proxies program.
  struct Case {
    const char* name;
    std::vector<pmu::Counter> proxies;
    double overlap;
    int depth;
    int threads;
  };
  const Case cases[] = {
      {"defaults", {}, 0.0, 1, 1},
      {"proxies", {pmu::Counter::kTotIns, pmu::Counter::kMemRefs}, 0.0, 1, 1},
      {"overlap", {}, 0.05, 1, 1},
      {"proxies+overlap d2/t3",
       {pmu::Counter::kTotIns, pmu::Counter::kStallsL2}, 0.1, 2, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::VaproOptions opts;
    opts.window_seconds = 0.25;
    opts.cluster.proxies = c.proxies;
    opts.window_overlap_seconds = c.overlap;
    opts.pipeline_depth = c.depth;
    opts.analysis_threads = c.threads;

    sim::Simulator simulator(noisy_config());
    core::VaproSession live(simulator, opts);
    // The session attached itself; re-attach a writer that tees into it
    // (set_interceptor replaces, so wire the tee explicitly).
    TraceWriter teeing(&live.client());
    simulator.set_interceptor(&teeing);
    apps::NekboneParams p;
    p.iters = 120;
    simulator.run(apps::nekbone(p));
    ASSERT_FALSE(live.locate(core::FragmentKind::kComputation).empty());
    ASSERT_FALSE(live.diagnosis().culprits.empty());

    auto offline = replayed(teeing.trace(), opts);
    EXPECT_EQ(analysis_fingerprint(*offline), analysis_fingerprint(live));
  }
}

TEST(Offline, KnobSweepWithoutRerun) {
  Trace trace = record_nekbone();
  // Same trace, different variance thresholds: stricter threshold finds
  // fewer/smaller regions, without re-running anything.
  core::VaproOptions strict;
  strict.variance_threshold = 0.5;
  core::VaproOptions lax;
  lax.variance_threshold = 0.95;
  const auto strict_regions =
      replayed(trace, strict)->locate(core::FragmentKind::kComputation);
  const auto lax_regions =
      replayed(trace, lax)->locate(core::FragmentKind::kComputation);
  std::size_t strict_cells = 0, lax_cells = 0;
  for (const auto& r : strict_regions) strict_cells += r.cells;
  for (const auto& r : lax_regions) lax_cells += r.cells;
  EXPECT_LE(strict_cells, lax_cells);
  EXPECT_FALSE(lax_regions.empty());
}

TEST(Offline, DiagnosisWorksFromTrace) {
  Trace trace = record_nekbone();
  core::VaproOptions opts;
  opts.window_seconds = 0.25;
  auto offline = replayed(trace, opts);
  ASSERT_TRUE(offline->server().diagnosis_finished());
  ASSERT_FALSE(offline->diagnosis().culprits.empty());
  EXPECT_EQ(offline->diagnosis().culprits.front(),
            core::FactorId::kDramBound);
}

TEST(Trace, VolumeDwarfsFragmentSummaries) {
  // The §7 argument: tracing moves far more data than Vapro's fragments.
  sim::Simulator simulator(noisy_config());
  core::VaproOptions opts;
  core::VaproSession session(simulator, opts);
  TraceWriter writer(&session.client());
  simulator.set_interceptor(&writer);
  apps::NekboneParams p;
  p.iters = 120;
  simulator.run(apps::nekbone(p));
  EXPECT_GT(writer.trace().byte_size(), session.bytes_recorded());
}

}  // namespace
}  // namespace vapro::trace
