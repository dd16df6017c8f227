// TickClock clock-read determinism check for the self-diagnosis pipeline:
// per-stage timing of the analysis pipeline (queue_wait/drain/stg/cluster/
// normalize/deposit/diagnose/publish) and the critical-path attribution
// built from it.  This is NOT latency data.
//
// Stage timings come from a util::TickClock (every clock read advances
// virtual time by a fixed tick), so each stage's "seconds" counts clock
// reads, not machine speed: every stage reads exactly one tick and queue
// wait reads 0 on this serial server.  BENCH_latency.json is therefore
// identical on every run for the fixed seed, and a diff in it means the
// pipeline's clock-read pattern changed; CI regenerates it and cmp's it
// against the committed file.  Pass --wall to profile with the real clock
// instead (informational; not committed).
//
//   latency_profile [--json PATH] [--wall] [--windows N]
//   (scripts/bench.sh -> BENCH_latency.json)
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/server.hpp"
#include "src/core/stg.hpp"
#include "src/obs/context.hpp"
#include "src/obs/latency.hpp"
#include "src/util/clock.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace {

using namespace vapro;

constexpr int kRanks = 32;
constexpr int kSites = 12;
constexpr int kReps = 6;
constexpr double kWindowSeconds = 0.25;

// Deterministic synthetic window (the pipeline_scaling shape, smaller):
// per rank, `kReps` loops over the site ring with a computation fragment
// before each invocation fragment.
core::FragmentBatch make_window(int window, util::Rng& rng) {
  core::FragmentBatch batch;
  std::vector<core::StateKey> keys(kSites);
  for (int s = 0; s < kSites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(100 + s);
    info.kind = s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
    keys[static_cast<std::size_t>(s)] =
        core::make_state_key(core::StgMode::kContextFree, info);
    batch.new_states.push_back(info);
  }
  const int steps = kSites * kReps;
  const double step_seconds = kWindowSeconds / (steps + 1);
  for (int rank = 0; rank < kRanks; ++rank) {
    core::StateKey prev = core::kStartState;
    double t = window * kWindowSeconds;
    for (int step = 0; step < steps; ++step) {
      const int s = step % kSites;
      const core::StateKey key = keys[static_cast<std::size_t>(s)];
      core::Fragment comp;
      comp.kind = core::FragmentKind::kComputation;
      comp.rank = rank;
      comp.from = prev;
      comp.to = key;
      comp.start_time = t;
      comp.end_time = t + step_seconds * 0.7 * rng.uniform(0.95, 1.05);
      comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
      batch.fragments.push_back(comp);
      t = comp.end_time;

      core::Fragment inv;
      inv.op = s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
      inv.kind = s % 3 == 2 ? core::FragmentKind::kIo
                            : core::FragmentKind::kCommunication;
      inv.rank = rank;
      inv.from = key;
      inv.to = key;
      inv.start_time = t;
      inv.end_time = t + step_seconds * 0.3 * rng.uniform(0.95, 1.05);
      inv.args.bytes = 4096.0 * (1 + s) * (1 + 0.01 * rank);
      inv.args.peer = (rank + 1) % kRanks;
      inv.args.fd = s % 3 == 2 ? 3 : -1;
      batch.fragments.push_back(inv);
      t = inv.end_time;
      prev = key;
    }
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  bool wall = false;
  int windows = 24;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wall") == 0) wall = true;
    if (std::strcmp(argv[i], "--windows") == 0 && i + 1 < argc)
      windows = std::atoi(argv[i + 1]);
  }
  bench::print_header(
      "Self-diagnosis latency profile: per-stage time + critical path",
      "repo self-diagnosis; TickClock clock-read determinism check, not "
      "latency data (--wall: real clock)");
  bench::JsonReport json("latency_profile", argc, argv);

  // One TickClock read = 1 ms of virtual time, so "stage seconds" counts
  // the pipeline's clock-read pattern — a pure function of the seed.
  util::TickClock tick(1e-3);
  obs::ObsContext ctx;
  ctx.enable_trace();  // spans + flow events exercised alongside the laps

  core::ServerOptions sopts;
  sopts.analysis_threads = 1;
  sopts.pipeline_depth = 1;  // serial: one deterministic clock-read order
  sopts.run_diagnosis = true;
  sopts.bin_seconds = 0.1;
  sopts.live_detection = true;
  sopts.obs = &ctx;
  if (!wall) sopts.clock = &tick;
  core::AnalysisServer server(kRanks, sopts);
  util::Rng rng(7);

  std::vector<double> per_stage[obs::kStageCount];
  std::vector<double> totals;
  for (int w = 0; w < windows; ++w) {
    core::FragmentBatch batch = make_window(w, rng);
    // Drain cost modeled as one fixed-size lap of the same clock.
    util::Clock* clock = sopts.clock ? sopts.clock : util::real_clock();
    const double d0 = clock->now_seconds();
    const double drain = clock->now_seconds() - d0;
    server.process_window(std::move(batch), drain);
    const auto& recent = server.latency_tracker().recent();
    if (!recent.empty()) {
      const obs::PipelineStats& r = recent.back();
      for (std::size_t s = 0; s < obs::kStageCount; ++s)
        per_stage[s].push_back(r.stage_seconds[s]);
      totals.push_back(r.total_seconds());
    }
  }

  const obs::CriticalPathTracker& tracker = server.latency_tracker();
  std::cout << obs::render_critical_path_table(tracker.recent(),
                                               tracker.summary());

  const obs::CriticalPathTracker::Summary sum = tracker.summary();
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    json.record(std::string("stage_") + obs::kStageNames[s] + "_seconds",
                per_stage[s]);
    json.record(std::string("bound_windows_") + obs::kStageNames[s],
                {static_cast<double>(sum.bound_windows[s])});
  }
  json.record("window_total_seconds", totals);
  json.record("dominant_stage_index",
              {static_cast<double>(sum.dominant_stage())});
  if (!json.write()) return 1;
  if (sum.windows != static_cast<std::uint64_t>(windows)) {
    std::cout << "WARNING: tracker saw " << sum.windows << " of " << windows
              << " windows\n";
    return 1;
  }
  return 0;
}
