// Self-telemetry subsystem (src/obs): registry semantics, quantile
// extraction against known distributions, concurrency, Chrome-trace JSON
// validity, and end-to-end PipelineStats invariants over a real
// VaproSession run.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/npb.hpp"
#include "src/core/vapro.hpp"
#include "src/obs/context.hpp"
#include "src/obs/exposition.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/span.hpp"
#include "src/sim/runtime.hpp"

namespace vapro::obs {
namespace {

// --- a minimal JSON validator (no external deps) -------------------------
// Recursive-descent scan; returns true iff the whole string is one valid
// JSON value.  Good enough to assert "parseable by Perfetto/chrome".
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- registry semantics ---------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a.count");
  EXPECT_EQ(c->value(), 0u);
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(reg.counter("a.count"), c);
  EXPECT_EQ(reg.counter("a.count")->value(), 42u);

  Gauge* g = reg.gauge("a.gauge");
  g->set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->add(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  EXPECT_EQ(reg.gauge("a.gauge"), g);
}

TEST(Metrics, HistogramCountSumAndBucketBounds) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record(1e-3);
  h.record(2e-3);
  h.record(4e-3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum_seconds(), 7e-3, 1e-12);
  EXPECT_NEAR(h.mean_seconds(), 7e-3 / 3, 1e-12);
  // Bucket bounds are contiguous and doubling.
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_hi(i), Histogram::bucket_lo(i + 1));
    EXPECT_DOUBLE_EQ(Histogram::bucket_hi(i), 2 * Histogram::bucket_lo(i));
  }
}

TEST(Metrics, QuantilesAgainstKnownDistribution) {
  // 1000 samples uniform over (0, 100 ms]: quantile(q) ≈ q·100 ms.  Log2
  // buckets bound the relative error by 2×, so assert within a factor of 2.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 0.1e-3);
  for (double q : {0.5, 0.95, 0.99}) {
    const double expected = q * 100e-3;
    const double got = h.quantile(q);
    EXPECT_GE(got, expected / 2) << "q=" << q;
    EXPECT_LE(got, expected * 2) << "q=" << q;
  }
  // Monotonicity.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  // A point mass lands inside its own bucket.
  Histogram point;
  for (int i = 0; i < 100; ++i) point.record(3e-3);
  const double p50 = point.quantile(0.5);
  EXPECT_GE(p50, 3e-3 / 2);
  EXPECT_LE(p50, 2 * 3e-3);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter* c = reg.counter("hot");
  Histogram* h = reg.histogram("lat");
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->inc();
        h->record(1e-4);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ZeroAndNegativeRecordsClampToTheFirstBucket) {
  Histogram h;
  h.record(0.0);
  h.record(-3.5);                       // negative durations clamp to 0
  h.record(Histogram::kMinSeconds / 2); // sub-resolution stays in bucket 0
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), Histogram::kMinSeconds / 2);
  // Everything lives in bucket 0, so every quantile is within it.
  EXPECT_LE(h.quantile(0.99), Histogram::bucket_hi(0));
}

TEST(Metrics, OversizedRecordsLandInTheOverflowBucket) {
  Histogram h;
  h.record(1e6);   // ~11 days, far past the ~54 s top bound
  h.record(1e9);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 2u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 1e6 + 1e9);  // sum keeps the true value
  // Quantiles interpolate within the overflow bucket and never
  // extrapolate past its top bound.
  EXPECT_GE(h.quantile(0.5), Histogram::bucket_lo(Histogram::kBuckets - 1));
  EXPECT_LE(h.quantile(0.99), Histogram::bucket_hi(Histogram::kBuckets - 1));
}

TEST(Metrics, EmptySnapshotQuantilesAreZeroAndMergeIsAdditive) {
  Histogram h;
  const HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_seconds(), 0.0);

  // Merging an empty snapshot is the identity; merging two shards is the
  // same distribution as one histogram that saw both streams.
  Histogram a, b, both;
  for (int i = 0; i < 40; ++i) {
    a.record(1e-3);
    both.record(1e-3);
  }
  for (int i = 0; i < 10; ++i) {
    b.record(64e-3);
    both.record(64e-3);
  }
  HistogramSnapshot merged = a.snapshot();
  merged.merge(empty);
  merged.merge(b.snapshot());
  const HistogramSnapshot expect = both.snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_DOUBLE_EQ(merged.sum_seconds, expect.sum_seconds);
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
    EXPECT_EQ(merged.buckets[i], expect.buckets[i]) << "bucket " << i;
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), expect.quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), expect.quantile(0.99));
}

TEST(Metrics, ConcurrentRecordAndMergeNeverTearASnapshot) {
  // Recorders hammer one histogram while a reader repeatedly snapshots and
  // merges into an accumulator.  Run under TSan this doubles as a data-race
  // check; the invariants below hold in any interleaving: bucket sums never
  // exceed the final count, and the final snapshot is exact.
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> writers;
  std::atomic<bool> done{false};
  std::uint64_t snapshots_taken = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const HistogramSnapshot snap = h.snapshot();
      std::uint64_t in_buckets = 0;
      for (std::uint64_t b : snap.buckets) in_buckets += b;
      ASSERT_LE(in_buckets,
                static_cast<std::uint64_t>(kThreads) * kPerThread);
      ++snapshots_taken;
    }
  });
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(2e-3);
    });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(snapshots_taken, 0u);
  const HistogramSnapshot final_snap = h.snapshot();
  EXPECT_EQ(final_snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t in_buckets = 0;
  for (std::uint64_t b : final_snap.buckets) in_buckets += b;
  EXPECT_EQ(in_buckets, final_snap.count);
}

TEST(Metrics, RegistryJsonIsValid) {
  MetricsRegistry reg;
  reg.counter("c")->inc(7);
  reg.gauge("g")->set(1.25);
  reg.histogram("h")->record(2e-3);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonScanner(json).valid()) << json;
  EXPECT_NE(json.find("\"c\":7"), std::string::npos);
}

// --- number spellings -----------------------------------------------------

// One writer for every JSON double; Prometheus text shares its digits and
// spells the special values its own way.
TEST(Json, NumberSpellings) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(-0.0), "-0");
  const double denormal = 5e-324;
  EXPECT_EQ(std::strtod(json_number(denormal).c_str(), nullptr), denormal);
  EXPECT_EQ(json_number(inf), "null");
  EXPECT_EQ(json_number(-inf), "null");
  EXPECT_EQ(json_number(nan), "null");

  EXPECT_EQ(prometheus_number(nan), "NaN");
  EXPECT_EQ(prometheus_number(inf), "+Inf");
  EXPECT_EQ(prometheus_number(-inf), "-Inf");
  for (double v : {0.0, -0.0, 0.1, -2.5e-300, 5e-324, 1.7976931348623157e308,
                   12345.678})
    EXPECT_EQ(prometheus_number(v), json_number(v)) << v;

  MetricsRegistry reg;
  reg.gauge("vapro.test.nan_gauge")->set(nan);
  EXPECT_NE(render_prometheus(reg).find("\nvapro_test_nan_gauge NaN\n"),
            std::string::npos)
      << render_prometheus(reg);
}

// --- tool-time scope + overhead -------------------------------------------

TEST(Overhead, ToolTimeScopeAndAccountant) {
  OverheadAccountant acct;
  {
    ToolTimeScope scope(&acct);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(acct.tool_seconds(), 1e-3);
  acct.set_run_wall_seconds(1.0);
  EXPECT_GT(acct.tool_fraction_of_wall(), 0.0);
  EXPECT_LT(acct.tool_fraction_of_wall(), 1.0);
  EXPECT_TRUE(JsonScanner(acct.to_json()).valid());
}

// --- trace exporter --------------------------------------------------------

TEST(Trace, ChromeJsonIsParseableAndBalanced) {
  TraceRecorder rec;
  {
    SpanScope outer({&rec}, "outer", "test",
                    {TraceRecorder::arg("k", std::uint64_t{7})});
    SpanScope inner({&rec}, "inner", "test");
    rec.instant("marker", "test", {TraceRecorder::arg("s", "a \"quoted\"\n")});
  }
  const std::string json = rec.to_json();
  ASSERT_TRUE(JsonScanner(json).valid()) << json;

  // Complete (X) events are self-balanced; assert we only ever emit X/i,
  // with sane timestamps and durations.
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (const ChromeEvent& ev : events) {
    EXPECT_TRUE(ev.phase == 'X' || ev.phase == 'i') << ev.phase;
    EXPECT_GE(ev.ts_us, 0.0);
    if (ev.phase == 'X') {
      EXPECT_GE(ev.dur_us, 0.0);
    }
  }
  // Nesting: inner completes before outer, and outer's span contains it.
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_LE(events[2].ts_us, events[1].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST(Trace, WriteJsonRoundTripsThroughDisk) {
  TraceRecorder rec;
  rec.instant("x", "test");
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(rec.write_json(path));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, rec.to_json());
  EXPECT_TRUE(JsonScanner(contents).valid());
  std::remove(path.c_str());
}

// --- end-to-end over a real session ----------------------------------------

TEST(ObsSession, PipelineStatsMatchSessionAndStagesSumToTotals) {
  sim::SimConfig cfg;
  cfg.ranks = 16;
  cfg.cores_per_node = 8;
  cfg.seed = 7;
  sim::Simulator simulator(cfg);

  ObsContext ctx;
  ctx.enable_trace();
  core::VaproOptions opts;
  opts.window_seconds = 0.1;
  opts.analysis_threads = 4;  // exercise cluster.shard spans
  opts.obs = &ctx;
  core::VaproSession session(simulator, opts);
  apps::NpbParams p;
  p.iters = 30;
  simulator.run(apps::cg(p));

  const auto& windows = ctx.windows().windows();
  ASSERT_EQ(windows.size(), session.server().windows_processed());
  ASSERT_GT(windows.size(), 0u);

  // Per-window: tool time is the stage array's sum without queue wait, and
  // the window total adds queue wait back.
  for (const PipelineStats& w : windows) {
    double tool = 0.0;
    for (std::size_t s = 0; s < kStageCount; ++s)
      if (static_cast<Stage>(s) != Stage::kQueueWait)
        tool += w.stage_seconds[s];
    EXPECT_DOUBLE_EQ(w.tool_seconds(), tool);
    EXPECT_DOUBLE_EQ(w.total_seconds(),
                     tool + w.seconds(Stage::kQueueWait));
    EXPECT_GT(w.tool_seconds(), 0.0);
  }

  // Session totals equal the sum of the per-window snapshots.
  std::size_t fragments = 0;
  for (const PipelineStats& w : windows) fragments += w.fragments_drained;
  EXPECT_EQ(fragments, session.server().fragments_processed());

  // Registry counters agree with the session's own bookkeeping.
  EXPECT_EQ(ctx.metrics().counter("vapro.server.windows_total")->value(),
            session.server().windows_processed());
  EXPECT_EQ(ctx.metrics().counter("vapro.server.fragments_total")->value(),
            session.server().fragments_processed());
  // The client publishes at drain time; the final partial window may still
  // be buffered, so the published tally can only lag the session's.
  EXPECT_LE(ctx.metrics().counter("vapro.client.fragments_total")->value(),
            session.fragments_recorded());
  EXPECT_GT(ctx.metrics().counter("vapro.client.fragments_total")->value(),
            0u);

  // Tool time was accounted and a stage histogram saw every window.
  EXPECT_GT(ctx.overhead().tool_seconds(), 0.0);
  EXPECT_EQ(ctx.metrics().histogram("vapro.server.window_seconds")->count(),
            windows.size());

  // The trace captured analysis windows and parallel cluster shards, and
  // the full export is valid JSON.
  // The handoff flow arrow ends with an 'f' event carrying the consuming
  // span's name, so filter on the 'X' phase to count spans exactly once.
  std::size_t window_events = 0, shard_events = 0;
  for (const ChromeEvent& ev : ctx.trace()->snapshot()) {
    if (ev.name == "analysis.window" && ev.phase == 'X') ++window_events;
    if (ev.name == "cluster.shard") ++shard_events;
  }
  EXPECT_EQ(window_events, windows.size());
  EXPECT_GT(shard_events, 0u);
  // Every window fanned out over the server's persistent 4-lane pool.
  for (const PipelineStats& w : windows) EXPECT_EQ(w.cluster_shards, 4u);
  EXPECT_TRUE(JsonScanner(ctx.trace()->to_json()).valid());
  EXPECT_TRUE(JsonScanner(ctx.metrics_json()).valid());
}

}  // namespace
}  // namespace vapro::obs
