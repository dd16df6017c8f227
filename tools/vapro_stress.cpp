// vapro_stress — seeded scenario fuzzer for the online pipeline.
//
// Generates randomized multi-process sessions (rank count, fragment mix,
// transport drop/duplicate/reorder, optional mid-run faults from a
// FaultPlan), drives them through AnalysisServer / ServerGroup with the
// event journal attached, and asserts pipeline invariants after every
// window and at end of round:
//
//   * journal sequence numbers are strictly monotonic (sparse is fine —
//     an injected ENOSPC drops a line, never reorders one);
//   * no lost regions: every live variance region survives into the final
//     journal snapshot;
//   * replay-vs-live equality: the region tables reconstructed from the
//     journal render byte-identically to the live server's;
//   * cached-vs-fresh equality: every AnalysisServer's locate(), answered
//     from its incremental region caches, equals find_variance_regions
//     recomputed on its final maps (each leaf of a group); a group root's
//     persistent merged maps equal a merge of its leaves' maps from empty,
//     and its locate() a from-scratch pass over that merge;
//   * no alert double-fire: replaying the journal through a fresh
//     AlertEngine fires exactly as often as the live engine did.
//
// Everything — scenario shape, fragment workloads, transport chaos, fault
// schedule — is a pure function of --seed and --fault-plan, and the report
// never prints wall-clock values, so a failure reproduces byte-identically:
//
//   vapro_stress --seed 7 --rounds 5 --fault-plan plans/enospc.plan
//
// Exit code 0 = all invariants held, 1 = at least one violation (the
// report says which round and which invariant).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/apps.hpp"
#include "src/core/journal_replay.hpp"
#include "src/core/report.hpp"
#include "src/core/scoreboard.hpp"
#include "src/core/server.hpp"
#include "src/core/server_group.hpp"
#include "src/core/vapro.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/net/session.hpp"
#include "src/obs/alerts.hpp"
#include "src/obs/context.hpp"
#include "src/obs/latency.hpp"
#include "src/obs/quality.hpp"
#include "src/testing/fault.hpp"
#include "src/util/cli.hpp"
#include "src/util/clock.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "tools/obs_cli.hpp"

namespace {

using namespace vapro;

int usage() {
  std::cout <<
      "usage: vapro_stress [options]\n"
      "  --seed=N           scenario seed (default 1); same seed, same\n"
      "                     fault plan => byte-identical report\n"
      "  --rounds=N         scenarios to run (default 5)\n"
      "  --fault-plan=FILE  arm deterministic fault injection from FILE\n"
      "                     (see docs/TESTING.md for the plan syntax)\n"
      "  --scratch=DIR      journal scratch directory (default\n"
      "                     /tmp/vapro_stress; never printed, so two runs\n"
      "                     with different scratch dirs still compare equal)\n"
      "  --verbose          print the per-round region tables\n"
      "  --equivalence      serial/parallel equivalence property mode: run\n"
      "                     every round at --pipeline-depth=1\n"
      "                     --analysis-threads=1 and then across the full\n"
      "                     depth {1,2} x threads {2,4,1} variant matrix, and\n"
      "                     byte-compare region tables, rare-path tables,\n"
      "                     journal-replay tables and the seq-normalized\n"
      "                     journal event stream against the serial base;\n"
      "                     two extra `soa` legs rebuild every window's\n"
      "                     fragment columns through the materialize/view\n"
      "                     shim and must stay byte-identical too\n"
      "  --net              net-transport equivalence variant: feed every\n"
      "                     scenario through the framed wire protocol over\n"
      "                     a loopback socket (IngestClient -> IngestServer\n"
      "                     -> TenantSession admission) and byte-compare\n"
      "                     region/rare/critical-path tables against an\n"
      "                     in-process reference fed the identical batches;\n"
      "                     with --fault-plan the tables may differ but\n"
      "                     every dropped batch must be accounted by a\n"
      "                     journaled shed/net_drop event and no fragment\n"
      "                     may be double-counted\n"
      "  --tenants=N        --net: concurrent tenant streams (default 1);\n"
      "                     each tenant runs its own scenario and must\n"
      "                     reproduce its own isolated reference report\n"
      "  --score            detection-quality scoreboard mode: run the\n"
      "                     app x noise matrix deterministically, score\n"
      "                     detections and diagnoses against the injected\n"
      "                     ground truth, print the per-cell table\n"
      "  --score-apps=A,B   matrix rows (default\n"
      "                     CG,MG,Nekbone,RAxML,MasterWorker)\n"
      "  --score-noises=K,... matrix columns; K in\n"
      "                     none|cpu|mem|dram|l2bug|pf|io|net (default\n"
      "                     none,cpu,dram,pf,io,net)\n"
      "  --ranks=N          score mode: ranks per run (default 16)\n"
      "  --json PATH        score mode: write BENCH_quality.json\n"
      "                     (byte-deterministic for a fixed --seed)\n"
      "  --journal-out/--listen/--alert-rule also apply in score mode:\n"
      "                     the journal gets quality/quality_cell events,\n"
      "                     /v1/quality serves the scoreboard live, and\n"
      "                     rules like 'quality_recall < 0.8' can fire\n"
      << tools::PipelineCli::usage_lines();
  return 2;
}

// Deterministic per-round scenario shape drawn from the round's own rng.
struct Scenario {
  int ranks = 0;
  int windows = 0;
  int sites = 0;          // distinct call sites (STG vertices)
  int reps = 0;           // site-loop repetitions per rank per window
  bool use_group = false; // ServerGroup vs single AnalysisServer
  int group_servers = 0;
  double drop_prob = 0.0;      // transport: fragment lost
  double dup_prob = 0.0;       // transport: fragment duplicated
  bool reorder = false;        // transport: window batch shuffled
  int slow_rank = -1;          // rank hit by the injected slowdown
  int slow_window_lo = 0;      // windows [lo, hi] run slow on that rank
  int slow_window_hi = 0;
  double slow_factor = 1.0;    // duration multiplier while slow
};

Scenario make_scenario(util::Rng& rng) {
  Scenario sc;
  sc.ranks = 6 + static_cast<int>(rng.uniform_u64(11));       // 6..16
  sc.windows = 3 + static_cast<int>(rng.uniform_u64(4));      // 3..6
  sc.sites = 3 + static_cast<int>(rng.uniform_u64(3));        // 3..5
  sc.reps = 2 + static_cast<int>(rng.uniform_u64(3));         // 2..4
  sc.use_group = rng.bernoulli(0.4);
  sc.group_servers = 2 + static_cast<int>(rng.uniform_u64(2)); // 2..3
  sc.drop_prob = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.08) : 0.0;
  sc.dup_prob = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.05) : 0.0;
  sc.reorder = rng.bernoulli(0.5);
  sc.slow_rank = static_cast<int>(rng.uniform_u64(
      static_cast<std::uint64_t>(sc.ranks)));
  sc.slow_window_lo = 1;
  sc.slow_window_hi = sc.windows - 1;
  sc.slow_factor = rng.uniform(1.6, 3.0);
  return sc;
}

// The op kind cycling across call sites: a mix of communication and IO so
// all three heat-map categories see fragments.
sim::OpKind site_op(int site) {
  switch (site % 4) {
    case 0: return sim::OpKind::kAllreduce;
    case 1: return sim::OpKind::kSend;
    case 2: return sim::OpKind::kFileWrite;
    default: return sim::OpKind::kBarrier;
  }
}

// One window of synthetic client data: every rank loops `reps` times over
// the site ring, cutting a computation fragment (fixed workload, noisy
// duration) before each invocation and a vertex fragment for the
// invocation itself.  Transport chaos (drop/dup/reorder) is applied to the
// assembled batch, as a lossy client->server link would.
core::FragmentBatch make_window_batch(const Scenario& sc, int window,
                                      double window_seconds,
                                      util::Rng& rng) {
  core::FragmentBatch batch;
  std::vector<core::StateKey> site_keys(
      static_cast<std::size_t>(sc.sites));
  for (int s = 0; s < sc.sites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(100 + s);
    info.kind = site_op(s);
    site_keys[static_cast<std::size_t>(s)] =
        core::make_state_key(core::StgMode::kContextFree, info);
    batch.new_states.push_back(info);
  }

  const double t0 = window * window_seconds;
  const bool slow_window =
      window >= sc.slow_window_lo && window <= sc.slow_window_hi;
  const int steps = sc.sites * sc.reps;
  const double step_seconds = window_seconds / (steps + 1);

  for (int rank = 0; rank < sc.ranks; ++rank) {
    core::StateKey prev = core::kStartState;
    double t = t0;
    for (int step = 0; step < steps; ++step) {
      const int s = step % sc.sites;
      const core::StateKey key = site_keys[static_cast<std::size_t>(s)];
      const bool slow = slow_window && rank == sc.slow_rank;

      // Computation: identical workload per edge, duration stretched on
      // the slow rank so the heat map grows a variance region.
      core::Fragment comp;
      comp.kind = core::FragmentKind::kComputation;
      comp.rank = rank;
      comp.from = prev;
      comp.to = key;
      comp.start_time = t;
      const double base = step_seconds * 0.7;
      comp.end_time = t + base * (slow ? sc.slow_factor : 1.0) *
                              rng.uniform(0.98, 1.02);
      comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
      batch.fragments.push_back(comp);
      t = comp.end_time;

      // The invocation itself: fixed arguments per site, so per-vertex
      // clustering sees one fixed-workload class.
      core::Fragment inv;
      inv.op = site_op(s);
      inv.kind = sim::is_io_op(inv.op) ? core::FragmentKind::kIo
                                       : core::FragmentKind::kCommunication;
      inv.rank = rank;
      inv.from = key;
      inv.to = key;
      inv.start_time = t;
      inv.end_time = t + step_seconds * 0.3 *
                             (slow ? sc.slow_factor : 1.0) *
                             rng.uniform(0.98, 1.02);
      inv.args.bytes = 4096.0 * (1 + s);
      inv.args.peer = (rank + 1) % sc.ranks;
      inv.args.fd = sim::is_io_op(inv.op) ? 3 : -1;
      batch.fragments.push_back(inv);
      t = inv.end_time;
      prev = key;
    }
  }

  // Transport chaos.  Drops and duplicates are per-fragment Bernoulli
  // draws; reorder is a full Fisher–Yates shuffle of the window batch.
  std::vector<core::Fragment> wire;
  wire.reserve(batch.fragments.size());
  std::size_t dropped = 0, duplicated = 0;
  for (std::size_t i = 0; i < batch.fragments.size(); ++i) {
    if (sc.drop_prob > 0 && rng.bernoulli(sc.drop_prob)) {
      ++dropped;
      continue;
    }
    core::Fragment f = batch.fragments.materialize(i);
    wire.push_back(f);
    if (sc.dup_prob > 0 && rng.bernoulli(sc.dup_prob)) {
      wire.push_back(f);
      ++duplicated;
    }
  }
  if (sc.reorder && wire.size() > 1) {
    for (std::size_t i = wire.size() - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.uniform_u64(i + 1));
      std::swap(wire[i], wire[j]);
    }
  }
  batch.fragments.clear();
  for (const core::Fragment& f : wire) batch.fragments.push_back(f);
  (void)dropped;
  (void)duplicated;
  return batch;
}

// Journal sink asserting strict seq monotonicity as events are emitted
// (the in-memory stream; the on-disk file may be sparse under faults).
struct SeqCheckSink final : obs::JournalSink {
  std::uint64_t last = 0;
  bool any = false;
  bool violated = false;
  void on_event(const obs::JournalEvent& event) override {
    if (any && event.seq <= last) violated = true;
    last = event.seq;
    any = true;
  }
};

struct CountingAlertSink final : obs::AlertSink {
  std::uint64_t delivered = 0;
  void on_alert(const obs::Alert&) override { ++delivered; }
};

struct RoundResult {
  bool pass = true;
  std::vector<std::string> failures;
  std::ostringstream report;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      pass = false;
      failures.push_back(what);
    }
  }
};

const core::FragmentKind kKinds[3] = {core::FragmentKind::kComputation,
                                      core::FragmentKind::kCommunication,
                                      core::FragmentKind::kIo};

// Pipeline configuration of one stress run.  In --equivalence mode each
// round runs once serial and once pipelined and every artifact below must
// byte-compare equal.
struct PipeCfg {
  int depth = 1;
  int threads = 1;
  // SoA leg: rebuild every window's FragmentColumns through materialize,
  // push_back and append before feeding the server — proves the columnar
  // conversion is lossless (artifacts byte-identical to the direct path).
  bool soa_rebuild = false;
};

// Round-trips a batch's columns through every conversion surface the
// columns offer: every fragment is materialized to an owning Fragment and
// re-pushed (columns -> Fragment -> columns); the first half lands in the
// result directly, the second half in a separate block that is then
// appended (cross-arena splice).  Any drift in the SoA layout shows up as
// a byte-level artifact mismatch downstream.
core::FragmentColumns rebuild_columns(const core::FragmentColumns& cols) {
  core::FragmentColumns rebuilt;
  rebuilt.reserve(cols.size());
  const std::size_t half = cols.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    rebuilt.push_back(cols.materialize(i));
  core::FragmentColumns tail;
  for (std::size_t i = half; i < cols.size(); ++i)
    tail.push_back(cols.materialize(i));
  rebuilt.append(tail);
  return rebuilt;
}

// Everything the equivalence property compares between two runs of the
// same scenario.
struct RoundArtifacts {
  std::string region_tables[3];  // live render_region_table per kind
  std::string replay_tables[3];  // reconstructed from the journal
  std::string rare_table;        // rare-path findings, full precision
  // Journal event stream with seq zeroed, sorted: concurrent leaf servers
  // may interleave emission differently run to run, but the multiset of
  // events must be identical.  Self-timing events (window_latency /
  // critical_path) are excluded: their stage laps depend on how the
  // VirtualClock advances relative to the worker, which is exactly the
  // schedule freedom the equivalence property permits — only their COUNT
  // must match (compared via timing_events).
  std::vector<std::string> journal_lines;
  std::size_t timing_events = 0;
  std::uint64_t alerts = 0;
};

// Stricter than core::render_rare_table: full json_number precision, every
// row — so even sub-format-width divergence fails the equivalence property.
std::string rare_findings_fingerprint(
    const std::vector<core::RareFinding>& findings) {
  std::ostringstream oss;
  for (const core::RareFinding& f : findings)
    oss << f.state << '|' << core::fragment_kind_name(f.kind) << '|'
        << f.executions << '|' << obs::json_number(f.total_seconds) << '|'
        << obs::json_number(f.longest_seconds) << '|'
        << obs::json_number(f.window_start) << '\n';
  return oss.str();
}

// A server's locate() answers from its incrementally updated region
// caches; it must equal a from-scratch pass over the same final map,
// field for field, in every category.
bool cached_regions_match(const core::AnalysisServer& server,
                          double threshold) {
  const core::Heatmap* maps[3] = {&server.computation_map(),
                                  &server.communication_map(),
                                  &server.io_map()};
  for (int k = 0; k < 3; ++k)
    if (server.locate(kKinds[k]) !=
        core::find_variance_regions(*maps[k], threshold))
      return false;
  return true;
}

// A group root refreshes its persistent merged maps from the leaves'
// write stamps; each must equal a merge of the leaves' maps from empty,
// cell for cell, and the root's locate() a from-scratch pass over it.
bool root_regions_match(const core::ServerGroup& group, double threshold) {
  for (int k = 0; k < 3; ++k) {
    const core::Heatmap merged = group.merged_map(kKinds[k]);
    core::Heatmap fresh(merged.ranks(), merged.bin_seconds());
    for (int i = 0; i < group.servers(); ++i) {
      const core::AnalysisServer& leaf = group.leaf(i);
      const core::Heatmap* maps[3] = {&leaf.computation_map(),
                                      &leaf.communication_map(),
                                      &leaf.io_map()};
      fresh.merge(*maps[k]);
    }
    if (merged.bins() != fresh.bins()) return false;
    for (int r = 0; r < fresh.ranks(); ++r)
      for (int b = 0; b < fresh.bins(); ++b)
        if (merged.weight(r, b) != fresh.weight(r, b) ||
            merged.has_data(r, b) != fresh.has_data(r, b) ||
            (fresh.has_data(r, b) && merged.cell(r, b) != fresh.cell(r, b)))
          return false;
    if (group.locate(kKinds[k]) !=
        core::find_variance_regions(fresh, threshold))
      return false;
  }
  return true;
}

RoundResult run_round(int round, std::uint64_t seed,
                      const std::string& scratch, bool verbose,
                      const PipeCfg& cfg, const std::string& tag,
                      RoundArtifacts* art) {
  RoundResult rr;
  util::Rng rng(seed ^ (0x5bd1e995ULL * static_cast<std::uint64_t>(round + 1)));
  const Scenario sc = make_scenario(rng);
  const double window_seconds = 0.25;
  const double bin_seconds = 0.05;
  const bool pipelined = cfg.depth > 1;

  rr.report << "round " << round << ": ranks=" << sc.ranks
            << " windows=" << sc.windows << " sites=" << sc.sites
            << " reps=" << sc.reps
            << " group=" << (sc.use_group ? sc.group_servers : 0)
            << " drop=" << (sc.drop_prob > 0 ? 1 : 0)
            << " dup=" << (sc.dup_prob > 0 ? 1 : 0)
            << " reorder=" << (sc.reorder ? 1 : 0)
            << " slow_rank=" << sc.slow_rank << " depth=" << cfg.depth
            << " threads=" << cfg.threads << "\n";

  // Virtual time: the whole round runs on a scripted clock, so stage
  // timings and window ages in the journal are deterministic too.
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  // Span tracing on: every round exercises the SpanScope/flow-event path
  // (and its obs.span fault site) alongside the invariants.
  ctx.enable_trace();
  const std::string journal_path =
      scratch + "/round" + std::to_string(round) +
      (tag.empty() ? std::string() : "-" + tag) + ".jsonl";
  if (!ctx.attach_journal_file(journal_path)) {
    rr.check(false, "journal file unwritable");
    return rr;
  }
  SeqCheckSink seq_check;
  ctx.journal()->add_sink(&seq_check);

  obs::AlertEngine engine;
  obs::AlertRule rule;
  std::string rule_error;
  obs::parse_alert_rule("variance_ratio > 1.2 for 2", &rule, &rule_error);
  engine.add_rule(rule);
  CountingAlertSink alert_sink;
  engine.add_alert_sink(&alert_sink);
  ctx.journal()->add_sink(&engine);

  core::ServerOptions opts;
  opts.bin_seconds = bin_seconds;
  opts.cluster.min_cluster_size = 3;
  opts.run_diagnosis = false;  // diagnosis needs the simulator's noise model
  opts.analysis_threads = cfg.threads;
  opts.pipeline_depth = cfg.depth;
  opts.obs = &ctx;
  opts.clock = &vclock;

  std::unique_ptr<core::AnalysisServer> server;
  std::unique_ptr<core::ServerGroup> group;
  if (sc.use_group)
    group = std::make_unique<core::ServerGroup>(sc.ranks, sc.group_servers,
                                                opts);
  else
    server = std::make_unique<core::AnalysisServer>(sc.ranks, opts);

  std::size_t sent_fragments = 0;
  for (int w = 0; w < sc.windows; ++w) {
    core::FragmentBatch batch =
        make_window_batch(sc, w, window_seconds, rng);
    if (cfg.soa_rebuild)
      batch.fragments = rebuild_columns(batch.fragments);
    sent_fragments += batch.fragments.size();
    if (group)
      group->process_window(std::move(batch));
    else
      server->process_window(std::move(batch), /*drain_seconds=*/0.0);
    vclock.advance(window_seconds);

    // Per-window invariants.  Skipped while pipelined — every accessor
    // syncs, so checking here would serialize the very overlap this mode
    // exists to exercise; the same checks run once after the loop.
    if (pipelined) continue;
    rr.check(!seq_check.violated, "journal seq not monotonic (live)");
    const std::size_t processed =
        group ? group->windows_processed() : server->windows_processed();
    rr.check(processed == static_cast<std::size_t>(w + 1),
             "windows_processed out of step");
    for (core::FragmentKind kind : kKinds) {
      const auto regions =
          group ? group->locate(kind) : server->locate(kind);
      for (const core::VarianceRegion& r : regions) {
        rr.check(r.cells > 0, "region with zero cells");
        rr.check(r.rank_lo <= r.rank_hi && r.rank_hi < sc.ranks,
                 "region rank range out of bounds");
        rr.check(r.bin_lo <= r.bin_hi, "region bin range inverted");
        rr.check(r.impact_seconds >= 0.0, "negative region impact");
      }
    }
  }
  if (pipelined) {
    // End-of-round versions of the per-window checks.  Drain explicitly
    // first: group->windows_processed() is a root-side counter that would
    // not sync the leaves on its own.
    if (group)
      group->sync();
    else
      server->sync();
    const std::size_t processed =
        group ? group->windows_processed() : server->windows_processed();
    rr.check(processed == static_cast<std::size_t>(sc.windows),
             "windows_processed out of step");
    rr.check(!seq_check.violated, "journal seq not monotonic (live)");
    for (core::FragmentKind kind : kKinds) {
      const auto regions = group ? group->locate(kind) : server->locate(kind);
      for (const core::VarianceRegion& r : regions) {
        rr.check(r.cells > 0, "region with zero cells");
        rr.check(r.rank_lo <= r.rank_hi && r.rank_hi < sc.ranks,
                 "region rank range out of bounds");
        rr.check(r.bin_lo <= r.bin_hi, "region bin range inverted");
        rr.check(r.impact_seconds >= 0.0, "negative region impact");
      }
    }
  }

  // End of round: final full-precision snapshot, then replay the journal
  // file and demand the reconstruction matches the live server.
  if (group)
    group->journal_detection_snapshot();
  else
    server->journal_detection_snapshot();
  ctx.journal()->flush();
  if (group) {
    for (int i = 0; i < group->servers(); ++i)
      rr.check(cached_regions_match(group->leaf(i), opts.variance_threshold),
               "leaf " + std::to_string(i) +
                   ": cached regions differ from a from-scratch pass");
    rr.check(root_regions_match(*group, opts.variance_threshold),
             "group root: merged maps or regions differ from a fresh merge");
  } else {
    rr.check(cached_regions_match(*server, opts.variance_threshold),
             "cached regions differ from a from-scratch pass");
  }

  obs::JournalReadOptions ropts;
  ropts.recover_truncated_tail = true;
  const obs::JournalReadResult read = obs::read_journal(journal_path, ropts);
  rr.check(read.ok, "journal unreadable: " + read.error);
  if (read.ok) {
    bool file_monotonic = true;
    for (std::size_t i = 1; i < read.events.size(); ++i)
      if (read.events[i].seq <= read.events[i - 1].seq) file_monotonic = false;
    rr.check(file_monotonic, "journal seq not monotonic (file)");

    const core::JournalSummary summary = core::summarize_journal(read.events);
    rr.check(summary.ok, "journal summary failed: " + summary.error);

    std::size_t live_regions = 0;
    for (int k = 0; k < 3; ++k) {
      const auto live = group ? group->locate(kKinds[k])
                              : server->locate(kKinds[k]);
      live_regions += live.size();
      const std::string live_table =
          core::render_region_table(live, bin_seconds);
      const std::string replay_table =
          core::render_region_table(summary.regions[k], bin_seconds);
      rr.check(replay_table == live_table,
               std::string("replay-vs-live mismatch (") +
                   core::fragment_kind_name(kKinds[k]) + ")");
      if (verbose && !live.empty())
        rr.report << core::fragment_kind_name(kKinds[k]) << " regions:\n"
                  << live_table;
      if (art) {
        art->region_tables[k] = live_table;
        art->replay_tables[k] = replay_table;
      }
    }
    if (art) {
      art->rare_table = rare_findings_fingerprint(
          group ? group->merged_rare_findings() : server->rare_findings());
      art->alerts = engine.alerts_fired();
      for (obs::JournalEvent ev : read.events) {
        if (ev.type == "window_latency" || ev.type == "critical_path") {
          ++art->timing_events;  // schedule-dependent payload; count only
          continue;
        }
        ev.seq = 0;  // seq normalization: compare the multiset of events
        art->journal_lines.push_back(ev.to_json_line());
      }
      std::sort(art->journal_lines.begin(), art->journal_lines.end());
    }
    // The slowdown ran long enough that detection must have seen it.
    rr.check(live_regions > 0, "no variance regions despite injected slowdown");

    // Critical-path replay: re-folding the journaled window_latency events
    // must render the exact table the live tracker renders.  Single-server
    // rounds only — group leaves run live_detection=false and emit no
    // timing events (the root serves per-leaf views instead).
    if (!group) {
      const obs::CriticalPathTracker& live_tracker = server->latency_tracker();
      obs::CriticalPathTracker replay_tracker;
      for (const obs::PipelineStats& r : summary.window_latency)
        replay_tracker.record(r);
      rr.check(obs::render_critical_path_table(replay_tracker.recent(),
                                               replay_tracker.summary()) ==
                   obs::render_critical_path_table(live_tracker.recent(),
                                                   live_tracker.summary()),
               "critical-path replay-vs-live mismatch");
      rr.check(summary.critical_path_events == 1,
               "terminal critical_path event missing from journal");
    }

    // No alert double-fire: a fresh engine replaying the journal fires
    // exactly as often as the live one did.
    obs::AlertEngine replay_engine;
    replay_engine.add_rule(rule);
    for (const obs::JournalEvent& event : read.events)
      replay_engine.on_event(event);
    rr.check(replay_engine.alerts_fired() == engine.alerts_fired(),
             "alert fire count diverges on replay");

    rr.report << "  fragments=" << sent_fragments
              << " windows=" << sc.windows
              << " journal_events=" << read.events.size()
              << " truncated_tail=" << (read.truncated_tail ? 1 : 0)
              << " alerts=" << engine.alerts_fired()
              << " delivered=" << alert_sink.delivered << "\n";
  }

  const std::size_t faults =
      group ? group->merge_faults() : server->publish_faults();
  rr.report << "  publish_faults=" << faults
            << " alert_dispatch_faults=" << engine.dispatch_faults() << "\n";
  if (rr.pass) {
    rr.report << "  invariants: OK\n";
  } else {
    for (const std::string& f : rr.failures)
      rr.report << "  INVARIANT VIOLATED: " << f << "\n";
  }
  return rr;
}

// --- net-transport equivalence (--net) ------------------------------------
//
// The same scenario generator, but every window batch crosses the framed
// wire protocol: per-tenant IngestClient -> loopback TCP -> IngestServer ->
// TenantSession admission -> AnalysisServer.  Each tenant runs its own
// scenario against its own isolated backend/journal/clock, so the check is
// simultaneously a transport-transparency property (socket ingest changes
// nothing) and a multi-tenant isolation property (neighbors change
// nothing).  Without faults every tenant's region, rare-path, and
// critical-path tables must be byte-identical to an in-process reference
// fed the very same batches.  With a seeded net fault plan the tables may
// legitimately differ (batches shed), but every unique sequence number
// must have exactly one durable fate, every missing fragment must trace to
// a journaled shed/net_drop event, and nothing may be double-counted —
// retransmits (torn frames, reset connections, duplicated batches) dedup.

struct NetTenantPlan {
  Scenario sc;
  std::vector<core::FragmentBatch> batches;
  std::size_t total_fragments = 0;
};

struct NetArtifacts {
  std::string region_tables[3];
  std::string rare_table;
  std::string critical_path;
};

NetArtifacts collect_net_artifacts(core::AnalysisServer& server,
                                   double bin_seconds) {
  NetArtifacts art;
  for (int k = 0; k < 3; ++k)
    art.region_tables[k] =
        core::render_region_table(server.locate(kKinds[k]), bin_seconds);
  art.rare_table = rare_findings_fingerprint(server.rare_findings());
  art.critical_path = obs::render_critical_path_table(
      server.latency_tracker().recent(), server.latency_tracker().summary());
  return art;
}

bool run_net_round(int round, std::uint64_t seed, int tenants,
                   const std::string& scratch, bool faulted) {
  const double window_seconds = 0.25;
  const double bin_seconds = 0.05;
  bool pass = true;
  auto require = [&pass](bool ok, const std::string& what) {
    if (!ok) {
      pass = false;
      std::cout << "  NET INVARIANT VIOLATED: " << what << "\n";
    }
  };

  std::cout << "net round " << round << ": tenants=" << tenants
            << " faulted=" << (faulted ? 1 : 0) << "\n";

  // Per-tenant scenario plus the full batch sequence, generated once so the
  // reference run and the socket run feed byte-identical windows.
  std::vector<NetTenantPlan> plans;
  for (int t = 0; t < tenants; ++t) {
    util::Rng rng(seed ^
                  (0x5bd1e995ULL * static_cast<std::uint64_t>(round + 1)) ^
                  (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t)));
    NetTenantPlan plan;
    plan.sc = make_scenario(rng);
    for (int w = 0; w < plan.sc.windows; ++w) {
      core::FragmentBatch b =
          make_window_batch(plan.sc, w, window_seconds, rng);
      plan.total_fragments += b.fragments.size();
      plan.batches.push_back(std::move(b));
    }
    plans.push_back(std::move(plan));
  }

  auto server_opts = [bin_seconds](obs::ObsContext* ctx, util::Clock* clock) {
    core::ServerOptions opts;
    opts.bin_seconds = bin_seconds;
    opts.cluster.min_cluster_size = 3;
    opts.run_diagnosis = false;
    opts.obs = ctx;
    opts.clock = clock;
    return opts;
  };

  // In-process reference: one isolated single server per tenant (the
  // critical-path tracker is a single-server instrument) fed the identical
  // batches on an identically-advanced virtual clock.
  std::vector<NetArtifacts> reference;
  for (int t = 0; t < tenants; ++t) {
    const NetTenantPlan& plan = plans[static_cast<std::size_t>(t)];
    util::VirtualClock vclock;
    obs::ObsContext ctx;
    ctx.set_clock(&vclock);
    core::AnalysisServer server(plan.sc.ranks, server_opts(&ctx, &vclock));
    for (const core::FragmentBatch& b : plan.batches) {
      server.process_window(core::FragmentBatch(b), /*drain_seconds=*/0.0);
      vclock.advance(window_seconds);
    }
    server.sync();
    reference.push_back(collect_net_artifacts(server, bin_seconds));
  }

  // Socket run: one plane, one ingest endpoint, N tenant streams.  Tenant
  // clocks are isolated and advanced in lockstep with the reference runs;
  // the plane clock only timestamps shed events and queue accounting.
  util::VirtualClock plane_clock;
  obs::ObsContext plane_ctx;
  plane_ctx.set_clock(&plane_clock);
  net::PlaneOptions popts;
  popts.obs = &plane_ctx;
  popts.clock = &plane_clock;
  net::IngestPlane plane(popts);

  std::vector<std::unique_ptr<util::VirtualClock>> clocks;
  std::vector<std::unique_ptr<obs::ObsContext>> ctxs;
  std::vector<net::TenantSession*> sessions;
  std::vector<std::string> journal_paths;
  for (int t = 0; t < tenants; ++t) {
    clocks.push_back(std::make_unique<util::VirtualClock>());
    ctxs.push_back(std::make_unique<obs::ObsContext>());
    ctxs.back()->set_clock(clocks.back().get());
    journal_paths.push_back(scratch + "/net-round" + std::to_string(round) +
                            "-tenant" + std::to_string(t) + ".jsonl");
    if (!ctxs.back()->attach_journal_file(journal_paths.back())) {
      require(false, "tenant journal unwritable");
      return pass;
    }
    net::TenantOptions topts;
    topts.name = "tenant" + std::to_string(t);
    topts.ranks = plans[static_cast<std::size_t>(t)].sc.ranks;
    topts.server = server_opts(ctxs.back().get(), clocks.back().get());
    topts.admission = faulted ? net::AdmissionPolicy::kShedOldest
                              : net::AdmissionPolicy::kBlock;
    sessions.push_back(plane.add_tenant(std::move(topts)));
  }

  net::IngestServer ingest(&plane);
  std::string error;
  if (!ingest.start(0, &error)) {
    require(false, "ingest server start: " + error);
    return pass;
  }
  std::vector<std::unique_ptr<net::IngestClient>> clients;
  for (int t = 0; t < tenants; ++t) {
    net::ClientOptions copts;
    copts.port = ingest.port();
    copts.tenant = "tenant" + std::to_string(t);
    copts.ranks =
        static_cast<std::uint32_t>(plans[static_cast<std::size_t>(t)].sc.ranks);
    copts.sleep_fn = [](double) {};  // retry backoff must not burn real time
    clients.push_back(std::make_unique<net::IngestClient>(copts));
    if (!clients.back()->connect(&error)) {
      require(false, "client connect: " + error);
      return pass;
    }
  }

  // Sends are serialized (each batch ack completes before the next send),
  // so fault-site hit order — hence the shed set — is a pure function of
  // the plan, and two runs of the same seed print byte-identical reports.
  int max_windows = 0;
  for (const NetTenantPlan& p : plans)
    max_windows = std::max(max_windows, p.sc.windows);
  for (int w = 0; w < max_windows; ++w) {
    for (int t = 0; t < tenants; ++t) {
      if (w >= plans[static_cast<std::size_t>(t)].sc.windows) continue;
      std::string send_error;
      require(clients[static_cast<std::size_t>(t)]->send_batch(
                  plans[static_cast<std::size_t>(t)].batches[
                      static_cast<std::size_t>(w)],
                  /*drain_seconds=*/0.0, &send_error),
              "send_batch: " + send_error);
    }
    plane.sync_all();
    for (int t = 0; t < tenants; ++t)
      if (w < plans[static_cast<std::size_t>(t)].sc.windows)
        clocks[static_cast<std::size_t>(t)]->advance(window_seconds);
  }
  for (auto& client : clients) {
    std::string flush_error;
    require(client->flush(&flush_error), "flush: " + flush_error);
  }
  plane.sync_all();

  for (int t = 0; t < tenants; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    const NetTenantPlan& plan = plans[ti];
    net::TenantSession* session = sessions[ti];
    const net::TenantStats st = session->stats();
    session->journal_detection_snapshot();
    ctxs[ti]->journal()->flush();

    std::cout << "  tenant" << t << ": ranks=" << plan.sc.ranks
              << " windows=" << plan.sc.windows
              << " fragments_sent=" << plan.total_fragments
              << " admitted=" << st.admitted << " shed=" << st.shed
              << " rejected=" << st.rejected
              << " duplicates=" << st.duplicates
              << " reordered=" << st.reordered
              << " processed=" << session->fragments_processed() << "\n";

    // Every unique seq has exactly one durable fate.
    require(st.submitted - st.duplicates ==
                st.admitted + st.shed + st.rejected,
            "tenant" + std::to_string(t) +
                ": seq fates don't partition unique submissions");
    require(session->windows_processed() == st.admitted,
            "tenant" + std::to_string(t) +
                ": windows processed != batches admitted");

    // Journal accounting: every fragment the backend never saw traces to
    // exactly one shed/net_drop event carrying its batch's fragment count.
    obs::JournalReadOptions ropts;
    const obs::JournalReadResult read =
        obs::read_journal(journal_paths[ti], ropts);
    require(read.ok, "tenant journal unreadable: " + read.error);
    if (read.ok) {
      std::size_t shed_events = 0, drop_events = 0;
      std::size_t dropped_fragments = 0;
      for (const obs::JournalEvent& ev : read.events) {
        if (ev.type == "shed") {
          ++shed_events;
          dropped_fragments += static_cast<std::size_t>(ev.number("fragments"));
        } else if (ev.type == "net_drop") {
          ++drop_events;
          dropped_fragments += static_cast<std::size_t>(ev.number("fragments"));
        }
      }
      require(shed_events == st.shed,
              "journaled shed events != shed stat");
      require(drop_events == st.rejected,
              "journaled net_drop events != rejected stat");
      require(session->fragments_processed() + dropped_fragments ==
                  plan.total_fragments,
              "tenant" + std::to_string(t) +
                  ": fragment accounting leaks (processed + dropped != sent)");
    }

    if (!faulted) {
      require(st.shed == 0 && st.rejected == 0 && st.duplicates == 0,
              "clean run saw sheds/rejects/duplicates");
      const NetArtifacts net_art =
          collect_net_artifacts(*session->server(), bin_seconds);
      const NetArtifacts& ref = reference[ti];
      bool equal = true;
      for (int k = 0; k < 3; ++k)
        equal = equal && net_art.region_tables[k] == ref.region_tables[k];
      require(equal, "region tables differ from in-process reference");
      require(net_art.rare_table == ref.rare_table,
              "rare-path table differs from in-process reference");
      require(net_art.critical_path == ref.critical_path,
              "critical-path table differs from in-process reference");
      if (pass)
        std::cout << "  tenant" << t
                  << ": socket ingest == in-process reference: OK\n";
    }
  }

  std::cout << "  plane: shed_total=" << plane.shed_total()
            << " frames_torn=" << ingest.frames_torn()
            << " conn_resets=" << ingest.conn_resets()
            << " batches_received=" << ingest.batches_received()
            << " protocol_errors=" << ingest.protocol_errors() << "\n";
  if (!faulted)
    require(!plane.degraded(), "degraded latched without any shed");
  return pass;
}

// --- detection-quality scoreboard (--score) -------------------------------
//
// Runs a fixed app x noise matrix: every cell is one deterministic
// simulated run with Vapro attached and exactly one injected perturbation
// (or none), scored against the injector's own ground truth
// (core::score_run_quality).  Everything derives from virtual time and the
// --seed, so the table, the journal events, and the --json file are
// byte-identical run to run — BENCH_quality.json is diffable across
// commits and scripts/quality_gate.py gates CI on it.

sim::Simulator::RankProgram make_score_app(const std::string& name) {
  if (name == "CG") {
    apps::NpbParams p;
    p.iters = 60;
    return apps::cg(p);
  }
  if (name == "MG") {
    apps::NpbParams p;
    p.iters = 120;
    return apps::mg(p);
  }
  if (name == "Nekbone") {
    apps::NekboneParams p;
    p.iters = 150;
    return apps::nekbone(p);
  }
  if (name == "RAxML") {
    apps::RaxmlParams p;
    p.io_rounds = 300;
    p.compute_iters = 60;
    return apps::raxml(p);
  }
  if (name == "MasterWorker") {
    apps::MasterWorkerParams p;
    p.rounds = 80;
    return apps::masterworker(p);
  }
  return nullptr;
}

// One representative injection per noise kind, magnitudes matching the
// integration tests (strong enough that detection *should* see them).
// Node-scoped kinds hit node 1 inside [0.1, 0.35) — within even the
// shortest app's makespan; the slow DIMM is persistent; IO/network
// interference is global by nature.
bool make_score_noise(const std::string& tag,
                      std::vector<sim::NoiseSpec>* out) {
  if (tag == "none") return true;
  sim::NoiseSpec s;
  if (!sim::noise_kind_from_name(tag, &s.kind)) return false;
  s.node = 1;
  s.t_begin = 0.1;
  s.t_end = 0.35;
  switch (s.kind) {
    case sim::NoiseKind::kCpuContention: s.magnitude = 1.2; break;
    case sim::NoiseKind::kMemoryBandwidth: s.magnitude = 3.5; break;
    case sim::NoiseKind::kL2CacheBug: s.magnitude = 4.0; break;
    case sim::NoiseKind::kSlowDram:
      s.magnitude = 3.0;
      s.t_begin = 0.0;
      s.t_end = std::numeric_limits<double>::infinity();
      break;
    case sim::NoiseKind::kPageFaultStorm: s.magnitude = 2e5; break;
    case sim::NoiseKind::kIoInterference:
      s.magnitude = 20.0;
      s.node = -1;
      s.t_begin = 0.05;
      s.t_end = std::numeric_limits<double>::infinity();
      break;
    case sim::NoiseKind::kNetworkCongestion:
      s.magnitude = 8.0;
      s.node = -1;
      break;
  }
  out->push_back(s);
  return true;
}

int run_score_mode(const util::CliArgs& args, int argc, char** argv) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 21));
  const int ranks = args.get_int("ranks", 16);
  const int cores_per_node = args.get_int("cores-per-node", 8);
  const std::vector<std::string> app_names =
      util::split(args.get("score-apps", "CG,MG,Nekbone,RAxML,MasterWorker"),
                  ',');
  const std::vector<std::string> noise_tags =
      util::split(args.get("score-noises", "none,cpu,dram,pf,io,net"), ',');

  for (const std::string& name : app_names)
    if (!make_score_app(name)) {
      std::cerr << "unknown --score-apps entry '" << name << "'\n";
      return 2;
    }
  for (const std::string& tag : noise_tags) {
    std::vector<sim::NoiseSpec> probe;
    if (!make_score_noise(tag, &probe)) {
      std::cerr << "unknown --score-noises entry '" << tag << "'\n";
      return 2;
    }
  }

  tools::ObsCli obs_cli;
  if (!obs_cli.parse(args)) return 2;
  // Scoreboard before the context: the exposition server (owned by the
  // context) borrows it through /v1/quality until the context dies.
  obs::QualityScoreboard scoreboard;
  obs::ObsContext obs_ctx;
  if (obs_cli.want_obs()) {
    std::string error;
    if (!obs_cli.activate(obs_ctx, &error)) {
      std::cerr << error << "\n";
      return 2;
    }
    if (obs_ctx.exposition()) scoreboard.attach_route(*obs_ctx.exposition());
  }

  bench::JsonReport json("quality", argc, argv);
  std::cout << "vapro_stress --score seed=" << seed << " ranks=" << ranks
            << " matrix=" << app_names.size() << "x" << noise_tags.size()
            << "\n";

  util::TextTable table({"app", "noise", "truths", "detected", "precision",
                         "recall", "f1", "top_factor"});
  double last_makespan = 0.0;
  for (const std::string& app_name : app_names) {
    for (const std::string& tag : noise_tags) {
      sim::SimConfig config;
      config.ranks = ranks;
      config.cores_per_node = cores_per_node;
      config.seed = seed;
      make_score_noise(tag, &config.noises);
      sim::Simulator simulator(config);

      core::VaproOptions vopts;
      vopts.window_seconds = 0.1;
      vopts.bin_seconds = 0.05;
      core::VaproSession session(simulator, vopts);
      const sim::RunResult result = simulator.run(make_score_app(app_name));
      last_makespan = result.makespan;

      core::RunConclusions rc;
      rc.bin_seconds = vopts.bin_seconds;
      rc.computation = session.locate(core::FragmentKind::kComputation);
      rc.communication = session.locate(core::FragmentKind::kCommunication);
      rc.io = session.locate(core::FragmentKind::kIo);
      rc.culprits = session.diagnosis().culprits;

      const std::vector<sim::GroundTruthEvent> truths =
          simulator.ground_truth(result.makespan);
      const obs::QualityScore score = core::score_run_quality(truths, rc);
      scoreboard.add({app_name, tag, score});
      scoreboard.publish_gauges(obs_ctx.metrics());

      table.add_row({app_name, tag, std::to_string(score.truths),
                     std::to_string(score.detections),
                     util::fmt(score.precision(), 3),
                     util::fmt(score.recall(), 3), util::fmt(score.f1(), 3),
                     util::fmt(score.top_factor_accuracy(), 3)});
      const std::string base = app_name + "." + tag + ".";
      json.record(base + "precision", {score.precision()});
      json.record(base + "recall", {score.recall()});
      json.record(base + "f1", {score.f1()});
      json.record(base + "top_factor_accuracy",
                  {score.top_factor_accuracy()});
    }
  }

  const obs::QualityScore total = scoreboard.aggregate();
  table.add_row({"aggregate", "-", std::to_string(total.truths),
                 std::to_string(total.detections),
                 util::fmt(total.precision(), 3), util::fmt(total.recall(), 3),
                 util::fmt(total.f1(), 3),
                 util::fmt(total.top_factor_accuracy(), 3)});
  table.print(std::cout);
  json.record("aggregate.precision", {total.precision()});
  json.record("aggregate.recall", {total.recall()});
  json.record("aggregate.f1", {total.f1()});
  json.record("aggregate.top_factor_accuracy", {total.top_factor_accuracy()});
  if (!json.write()) return 1;

  if (obs::Journal* journal = obs_ctx.journal())
    scoreboard.journal(*journal, last_makespan);
  if (obs_cli.want_obs()) {
    const bool ok = obs_cli.finish(obs_ctx);
    obs_cli.linger(obs_ctx);
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.get_bool("help")) return usage();
  if (args.get_bool("score")) return run_score_mode(args, argc, argv);

  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int rounds = args.get_int("rounds", 5);
  const std::string scratch = args.get("scratch", "/tmp/vapro_stress");
  const std::string plan_path = args.get("fault-plan", "");
  const bool verbose = args.get_bool("verbose");
  const bool equivalence = args.get_bool("equivalence");
  const bool net_mode = args.get_bool("net");
  const int tenants = args.get_int("tenants", 1);
  vapro::tools::PipelineCli pipeline_cli;
  if (!pipeline_cli.parse(args)) return 2;

  vapro::testing::FaultPlan plan;
  if (!plan_path.empty()) {
    std::string error;
    if (!vapro::testing::FaultPlan::parse_file(plan_path, &plan, &error)) {
      std::cerr << "bad fault plan: " << error << "\n";
      return 2;
    }
#if !defined(VAPRO_FAULT_INJECTION) || !VAPRO_FAULT_INJECTION
    std::cerr << "fault injection is compiled out of this build "
                 "(configure with -DVAPRO_FAULT_INJECTION=ON)\n";
    return 2;
#endif
    vapro::testing::FaultInjector::instance().arm(plan);
  }

  std::cout << "vapro_stress seed=" << seed << " rounds=" << rounds
            << " fault_plan=" << (plan_path.empty() ? "none" : "armed")
            << " fault_rules=" << plan.rules.size() << " mode="
            << (net_mode ? "net" : equivalence ? "equivalence" : "fuzz")
            << "\n";

  int failed = 0;
  if (net_mode) {
    for (int r = 0; r < rounds; ++r) {
      // Re-arm per round so every round observes the same per-site fault
      // sequence (the reference runs never touch net.* sites).
      if (!plan_path.empty())
        vapro::testing::FaultInjector::instance().arm(plan);
      if (!run_net_round(r, seed, tenants, scratch, !plan_path.empty()))
        ++failed;
    }
  } else if (equivalence) {
    // The property: the same scenario produces byte-identical detection
    // artifacts for EVERY pipeline-depth x analysis-threads combination.
    // Each round runs the serial base (depth 1, 1 thread) and then the
    // full depth {1,2} x threads {1,2,4} variant matrix against it.  The
    // two `soa` legs rebuild every window's columns through
    // materialize/push_back/append (rebuild_columns) — serially and at the
    // widest pipeline point — so the SoA layout's conversion surfaces are
    // part of the same byte-identity property as the threading matrix.
    struct Variant {
      int depth;
      int threads;
      bool soa;
      const char* tag;
    };
    const Variant kVariants[] = {
        {1, 2, false, "d1t2"}, {1, 4, false, "d1t4"}, {2, 1, false, "d2t1"},
        {2, 2, false, "d2t2"}, {2, 4, false, "d2t4"}, {1, 1, true, "soa"},
        {2, 4, true, "soa-d2t4"}};
    for (int r = 0; r < rounds; ++r) {
      const PipeCfg serial{1, 1};
      RoundArtifacts base;
      // Re-arm before each run so every variant sees the identical
      // per-site fault sequence (arm() resets every per-(site, rule)
      // counter).
      if (!plan_path.empty()) vapro::testing::FaultInjector::instance().arm(plan);
      RoundResult ra = run_round(r, seed, scratch, verbose, serial,
                                 "serial", &base);
      std::cout << ra.report.str();
      bool round_ok = ra.pass;
      std::size_t variants_ok = 0;
      for (const Variant& v : kVariants) {
        const PipeCfg variant{v.depth, v.threads, v.soa};
        const std::string tag = v.tag;
        RoundArtifacts b;
        if (!plan_path.empty())
          vapro::testing::FaultInjector::instance().arm(plan);
        RoundResult rb = run_round(r, seed, scratch, verbose, variant, tag,
                                   &b);
        bool equal = true;
        auto require = [&](bool ok, const char* what) {
          if (!ok) {
            equal = false;
            std::cout << "  EQUIVALENCE VIOLATED (" << tag << "): " << what
                      << "\n";
          }
        };
        for (int k = 0; k < 3; ++k) {
          require(base.region_tables[k] == b.region_tables[k],
                  "live region table differs");
          require(base.replay_tables[k] == b.replay_tables[k],
                  "journal-replay region table differs");
        }
        require(base.rare_table == b.rare_table, "rare-path table differs");
        require(base.journal_lines == b.journal_lines,
                "journal event stream differs (after seq normalization)");
        require(base.timing_events == b.timing_events,
                "self-timing journal event count differs");
        require(base.alerts == b.alerts, "alert fire count differs");
        if (!rb.pass || !equal) {
          round_ok = false;
          std::cout << rb.report.str();
        } else {
          ++variants_ok;
        }
      }
      if (!round_ok) {
        ++failed;
      } else {
        std::cout << "  serial == {d1t2,d1t4,d2t1,d2t2,d2t4,soa,soa-d2t4}:"
                     " OK ("
                  << variants_ok << " variants, "
                  << base.journal_lines.size() << " journal events, "
                  << base.alerts << " alerts)\n";
      }
    }
  } else {
    const PipeCfg cfg{pipeline_cli.pipeline_depth,
                      pipeline_cli.analysis_threads};
    for (int r = 0; r < rounds; ++r) {
      RoundResult rr = run_round(r, seed, scratch, verbose, cfg,
                                 /*tag=*/"", /*art=*/nullptr);
      std::cout << rr.report.str();
      if (!rr.pass) ++failed;
    }
  }

  auto& injector = vapro::testing::FaultInjector::instance();
  const auto by_site = injector.injected_by_site();
  std::cout << "faults injected: " << injector.injected_total() << "\n";
  for (const auto& [site, count] : by_site)
    std::cout << "  " << site << ": " << count << "\n";
  injector.disarm();

  if (failed > 0) {
    std::cout << "RESULT: FAIL (" << failed << "/" << rounds
              << " rounds violated invariants; rerun with --seed " << seed
              << (plan_path.empty()
                      ? std::string()
                      : " --fault-plan " + plan_path)
              << " to reproduce byte-identically)\n";
    return 1;
  }
  std::cout << "RESULT: PASS (" << rounds << "/" << rounds << " rounds)\n";
  return 0;
}
