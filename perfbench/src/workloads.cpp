#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "replay.hpp"
#include "synthetic.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/vapro.hpp"
#include "src/obs/context.hpp"

namespace perfbench {

using namespace vapro;

namespace {

constexpr core::FragmentKind kKinds[3] = {core::FragmentKind::kComputation,
                                          core::FragmentKind::kCommunication,
                                          core::FragmentKind::kIo};
const double kNoSample = std::numeric_limits<double>::quiet_NaN();

// One measured episode: a fresh server (or session) fed a whole run.
struct Episode {
  // Producer-side ms per window, by window index; NaN marks a window that
  // is not a sample (a pipeline-fill hand-off that returns without
  // waiting for analysis by construction of the chunked feed).
  std::vector<double> window_ms;
  double wall_s = 0.0;   // timed region only (input generation excluded)
  double cpu_s = 0.0;    // process CPU over the same region
  // The timed region split into steps, in order: a chunk's hand-offs plus
  // its sync (synthetic workloads), or one window of the application and
  // its flush (app_run).  They sum to wall_s and cpu_s.
  std::vector<double> step_wall_s;
  std::vector<double> step_cpu_s;
  // Untraced runs only: this episode's peak RSS, the set-up samples taken
  // after it, and reference_seconds() samples taken before and after it.
  double rss_mb = 0.0;
  std::vector<double> setup_samples;
  std::vector<double> reference_samples;
  double gen_s = 0.0;
  std::uint64_t windows = 0;    // analyzed
  std::uint64_t fragments = 0;  // analyzed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  core::PipelineBreakdown breakdown;
  std::uint64_t journal_events = 0;
  std::uint64_t journal_bytes = 0;
  std::vector<core::VarianceRegion> regions[3];  // server locate() at the end
  // app_run traced episode: interception hooks and drains.
  std::uint64_t hook_calls = 0;
  double hook_s = 0.0;
  double drain_s = 0.0;
};

void expect(Episode& ep, std::uint64_t attempted, std::uint64_t failed,
            const std::string& what) {
  ep.attempted += attempted;
  ep.failed += failed;
  if (failed) ep.failures.push_back(what);
}

std::uint64_t diff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

// Accounting checks shared by every workload: every submitted window
// analyzed, every submitted fragment accounted for.
void check_accounting(Episode& ep, std::uint64_t windows_submitted,
                      std::uint64_t fragments_submitted) {
  std::ostringstream w, f;
  w << "windows analyzed " << ep.windows << " of " << windows_submitted;
  f << "fragments analyzed " << ep.fragments << " of " << fragments_submitted;
  expect(ep, windows_submitted, diff(ep.windows, windows_submitted), w.str());
  expect(ep, fragments_submitted, diff(ep.fragments, fragments_submitted),
         f.str());
}

std::uint64_t episode_seed(std::uint64_t seed, int episode) {
  util::SplitMix64 mix(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(episode));
  return mix.next();
}

std::string region_str(const core::VarianceRegion& r, double bin) {
  std::ostringstream oss;
  oss << "ranks " << r.rank_lo << "-" << r.rank_hi << " t=[" << r.time_lo(bin)
      << "," << r.time_hi(bin) << ")";
  return oss.str();
}

// ---------------------------------------------------------------- synthetic

struct SyntheticWorkload {
  SyntheticShape shape;
  core::ServerOptions sopts;
  int chunk = 1;         // windows generated per batch of hand-offs
  bool journal = false;  // ObsContext + journal file attached
};

SyntheticWorkload steady_windows(bool smoke) {
  SyntheticWorkload wl;
  if (smoke) {
    wl.shape.ranks = 16;
    wl.shape.sites = 10;
    wl.shape.reps = 6;
    wl.shape.windows = 16;
    wl.shape.slow_ranks = 4;
    wl.shape.slow_windows = 4;
  } else {
    // 40 window samples per episode, so the late tenth holds 4 of them.
    wl.shape.windows = 80;
  }
  wl.sopts.analysis_threads = 3;
  wl.sopts.pipeline_depth = 2;
  wl.sopts.run_diagnosis = false;
  wl.sopts.bin_seconds = 0.1;
  wl.sopts.cluster.threshold = 0.01;
  wl.chunk = 4;
  return wl;
}

SyntheticWorkload long_run(bool smoke) {
  SyntheticWorkload wl;
  wl.shape.ranks = smoke ? 32 : 256;
  wl.shape.sites = 8;
  wl.shape.reps = 4;
  // 160 windows (40 s of run time): long enough that per-window cost
  // growth shows, short enough for several episodes in one run.
  wl.shape.windows = smoke ? 40 : 160;
  wl.shape.slow_ranks = smoke ? 8 : 32;
  wl.shape.slow_windows = smoke ? 8 : 40;
  wl.sopts.run_diagnosis = false;
  wl.sopts.bin_seconds = 0.05;
  wl.chunk = 1;
  wl.journal = true;
  return wl;
}

// The top computation region must be the injected block: exactly its
// ranks, and a time extent that covers the slowed span.
bool slowdown_found(const std::vector<core::VarianceRegion>& comp,
                    const SyntheticShape& s, double bin, std::string* why) {
  const double lo = s.slow_window_lo * s.window_seconds;
  const double hi = s.slow_window_hi * s.window_seconds;
  std::ostringstream oss;
  oss << "injected ranks " << s.slow_rank_lo << "-" << s.slow_rank_hi << " t=["
      << lo << "," << hi << "), top region ";
  if (comp.empty()) {
    *why = oss.str() + "none";
    return false;
  }
  const core::VarianceRegion& r = comp.front();
  oss << region_str(r, bin);
  *why = oss.str();
  const double slack = s.window_seconds + bin;
  return r.rank_lo == s.slow_rank_lo && r.rank_hi == s.slow_rank_hi &&
         std::abs(r.time_lo(bin) - lo) <= slack &&
         r.time_hi(bin) >= hi - slack &&
         r.time_hi(bin) <= hi + s.window_seconds * s.slow_factor + slack;
}

Episode synthetic_episode(const SyntheticWorkload& wl, std::uint64_t seed,
                          Tracer* tracer, const std::string& journal_path) {
  Episode ep;
  SyntheticShape shape = wl.shape;
  shape.place_slowdown(seed);
  util::Rng rng(seed);
  std::error_code ec;
  if (wl.journal) std::filesystem::remove(journal_path, ec);

  std::unique_ptr<obs::ObsContext> ctx;
  core::ServerOptions sopts = wl.sopts;
  if (wl.journal) {
    ctx = std::make_unique<obs::ObsContext>();
    expect(ep, 1, ctx->attach_journal_file(journal_path) ? 0 : 1,
           "cannot open journal " + journal_path);
    sopts.obs = ctx.get();
  }
  auto server = std::make_unique<core::AnalysisServer>(shape.ranks, sopts);

  // At depth d > 1 the first d hand-offs after a sync are admitted without
  // waiting; at depth 1 every call is the whole analysis.
  const int fill = sopts.pipeline_depth > 1 ? sopts.pipeline_depth : 0;
  ep.window_ms.assign(static_cast<std::size_t>(shape.windows), kNoSample);
  std::uint64_t submitted = 0;
  std::vector<core::FragmentBatch> chunk;
  for (int w0 = 0; w0 < shape.windows; w0 += wl.chunk) {
    const int n = std::min(wl.chunk, shape.windows - w0);
    const double g0 = wall_now();
    chunk.clear();
    for (int i = 0; i < n; ++i) {
      Scope span(tracer, "generator.make_window", w0 + i);
      chunk.push_back(make_window(shape, w0 + i, rng));
      submitted += chunk.back().fragments.size();
    }
    ep.gen_s += wall_now() - g0;

    const double t0 = wall_now();
    const double c0 = cpu_now();
    for (int i = 0; i < n; ++i) {
      const double p0 = wall_now();
      {
        Scope span(tracer, "server.process_window", w0 + i);
        server->process_window(std::move(chunk[static_cast<std::size_t>(i)]));
      }
      if (i >= fill)
        ep.window_ms[static_cast<std::size_t>(w0 + i)] = (wall_now() - p0) * 1e3;
    }
    {
      Scope span(tracer, "server.sync", w0 + n - 1);
      server->sync();
    }
    ep.step_wall_s.push_back(wall_now() - t0);
    ep.step_cpu_s.push_back(cpu_now() - c0);
    ep.wall_s += ep.step_wall_s.back();
    ep.cpu_s += ep.step_cpu_s.back();
  }

  ep.windows = server->windows_processed();
  ep.fragments = server->fragments_processed();
  check_accounting(ep, static_cast<std::uint64_t>(shape.windows), submitted);
  for (int k = 0; k < 3; ++k) ep.regions[k] = server->locate(kKinds[k]);
  std::string why;
  const bool found = slowdown_found(ep.regions[0], shape, sopts.bin_seconds, &why);
  expect(ep, 1, found ? 0 : 1, "detection: " + why);
  ep.breakdown = server->pipeline_breakdown();
  if (ctx) {
    ep.journal_events = ctx->journal()->events_emitted();
    ctx->journal()->flush();
  }
  server.reset();
  ctx.reset();
  if (wl.journal) ep.journal_bytes = std::filesystem::file_size(journal_path, ec);
  return ep;
}

// Regenerates the episode's inputs from its seed and replays them.
void synthetic_replay(const SyntheticWorkload& wl, std::uint64_t seed,
                      Replayer& replay) {
  SyntheticShape shape = wl.shape;
  shape.place_slowdown(seed);
  util::Rng rng(seed);
  for (int w = 0; w < shape.windows; ++w) replay.window(make_window(shape, w, rng));
}

// ---------------------------------------------------------------- app_run

struct AppWorkload {
  int ranks = 64;
  int cores_per_node = 16;
  int slow_node = 2;  // ranks 32-47
  double dram_factor = 1.7;
  int iters = 4000;
  double window_seconds = 0.25;
};

AppWorkload app_run(bool smoke) {
  AppWorkload a;
  if (smoke) a.iters = 1500;
  return a;
}

sim::SimConfig app_config(const AppWorkload& a, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.ranks = a.ranks;
  cfg.cores_per_node = a.cores_per_node;
  cfg.seed = seed;
  sim::NoiseSpec dimm;
  dimm.kind = sim::NoiseKind::kSlowDram;
  dimm.node = a.slow_node;
  dimm.magnitude = a.dram_factor;
  cfg.noises.push_back(dimm);
  return cfg;
}

core::VaproOptions app_options(const AppWorkload& a, std::uint64_t seed) {
  core::VaproOptions o;
  o.window_seconds = a.window_seconds;
  o.seed = seed;
  return o;
}

// The client a VaproSession would build from the same options.
core::ClientOptions client_options(const core::VaproOptions& o) {
  core::ClientOptions c;
  c.stg_mode = o.stg_mode;
  c.pmu_budget = o.pmu_budget;
  c.pmu_jitter = o.pmu_jitter;
  c.sampling = o.sampling;
  c.sampling_warmup = o.sampling_warmup;
  c.seed = o.seed;
  return c;
}

void check_app_answer(Episode& ep, const AppWorkload& a,
                      const core::DiagnosisReport& report, double bin) {
  const int lo = a.slow_node * a.cores_per_node;
  const int hi = lo + a.cores_per_node - 1;
  const auto& comp = ep.regions[0];
  const bool located =
      !comp.empty() && comp.front().rank_lo == lo && comp.front().rank_hi == hi;
  std::ostringstream where;
  where << "detection: expected ranks " << lo << "-" << hi << ", top region "
        << (comp.empty() ? std::string("none") : region_str(comp.front(), bin));
  expect(ep, 1, located ? 0 : 1, where.str());
  const bool dram = report.culprits.size() == 1 &&
                    report.culprits.front() == core::FactorId::kDramBound;
  std::ostringstream culprits;
  culprits << "diagnosis: expected [DRAM bound], got [";
  for (std::size_t i = 0; i < report.culprits.size(); ++i)
    culprits << (i ? ", " : "") << core::factor_name(report.culprits[i]);
  culprits << "]";
  expect(ep, 1, dram ? 0 : 1, culprits.str());
}

sim::Simulator::RankProgram app_program(const AppWorkload& a) {
  apps::NekboneParams p;
  p.iters = a.iters;
  return apps::nekbone(p);
}

// Untraced: the public VaproSession, with two bracketing periodics (one
// registered before the session's window flush, one after — the
// simulator fires same-time periodics in registration order) timing each
// window's drain + analysis + counter reprogramming.
Episode app_episode(const AppWorkload& a, std::uint64_t seed) {
  Episode ep;
  const double g0 = wall_now();
  const sim::Simulator::RankProgram program = app_program(a);
  ep.gen_s = wall_now() - g0;
  const core::VaproOptions vopts = app_options(a, seed);
  double tick_start = 0.0;
  double step_wall = 0.0, step_cpu = 0.0;  // where the current step began
  auto end_step = [&] {
    const double w = wall_now(), c = cpu_now();
    ep.step_wall_s.push_back(w - step_wall);
    ep.step_cpu_s.push_back(c - step_cpu);
    step_wall = w;
    step_cpu = c;
  };
  sim::Simulator simulator(app_config(a, seed));
  simulator.add_periodic(a.window_seconds, [&](double) { tick_start = wall_now(); });
  core::VaproSession session(simulator, vopts);
  simulator.add_periodic(a.window_seconds, [&](double) {
    ep.window_ms.push_back((wall_now() - tick_start) * 1e3);
    end_step();
  });

  const double t0 = wall_now();
  const double c0 = cpu_now();
  step_wall = t0;
  step_cpu = c0;
  simulator.run(program);
  end_step();  // the application's tail after the last window
  ep.wall_s = wall_now() - t0;
  ep.cpu_s = cpu_now() - c0;

  const core::AnalysisServer& server = session.server();
  ep.windows = server.windows_processed();
  ep.fragments = server.fragments_processed();
  check_accounting(ep, ep.window_ms.size(), session.fragments_recorded());
  for (int k = 0; k < 3; ++k) ep.regions[k] = session.locate(kKinds[k]);
  check_app_answer(ep, a, session.diagnosis(), vopts.bin_seconds);
  ep.breakdown = server.pipeline_breakdown();
  return ep;
}

// Forwards every interception hook to the client and times it.
class TimedInterceptor final : public sim::Interceptor {
 public:
  explicit TimedInterceptor(core::VaproClient& client) : client_(client) {}
  bool wants_call_path() const override { return client_.wants_call_path(); }
  void on_call_begin(const sim::InvocationInfo& info, double time,
                     const pmu::CounterSample& gt) override {
    const auto t0 = std::chrono::steady_clock::now();
    client_.on_call_begin(info, time, gt);
    ns_ += (std::chrono::steady_clock::now() - t0).count();
    ++calls_;
  }
  void on_call_end(const sim::InvocationInfo& info, double time,
                   const pmu::CounterSample& gt) override {
    const auto t0 = std::chrono::steady_clock::now();
    client_.on_call_end(info, time, gt);
    ns_ += (std::chrono::steady_clock::now() - t0).count();
    ++calls_;
  }
  void on_program_end(sim::RankId rank, double time) override {
    client_.on_program_end(rank, time);
  }
  std::uint64_t calls() const { return calls_; }
  double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  core::VaproClient& client_;
  std::uint64_t calls_ = 0;
  std::int64_t ns_ = 0;
};

// Traced: the client and server wired the way VaproSession wires them,
// with a timed forwarding interceptor and a span per public call.
Episode app_traced_episode(const AppWorkload& a, std::uint64_t seed,
                           Tracer* tracer) {
  Episode ep;
  const sim::Simulator::RankProgram program = app_program(a);
  const core::VaproOptions vopts = app_options(a, seed);
  sim::Simulator simulator(app_config(a, seed));
  core::VaproClient client(a.ranks, client_options(vopts));
  core::AnalysisServer server(
      a.ranks, core::server_options_from(vopts, simulator.config().machine));
  TimedInterceptor hooks(client);
  client.configure_counters(server.counters_needed());
  simulator.set_interceptor(&hooks);
  long window = 0;
  std::uint64_t calls_before = 0;
  double hooks_before = 0.0;
  simulator.add_periodic(a.window_seconds, [&](double) {
    const double p0 = wall_now();
    core::FragmentBatch batch;
    {
      Scope span(tracer, "client.drain", window);
      batch = client.drain();
    }
    ep.drain_s += wall_now() - p0;
    {
      Scope span(tracer, "server.process_window", window);
      server.process_window(std::move(batch));
    }
    if (vopts.run_diagnosis) {
      Scope span(tracer, "server.sync", window);
      server.sync();
    }
    {
      Scope span(tracer, "client.configure_counters", window);
      client.configure_counters(server.counters_needed());
    }
    ep.window_ms.push_back((wall_now() - p0) * 1e3);
    // One aggregated span per window for the interception hooks (a span
    // per hook call would hold millions of entries).
    const double hook_s = hooks.seconds() - hooks_before;
    if (tracer)
      tracer->add("client.hooks", tracer->now() - hook_s, tracer->now(), window,
                  hooks.calls() - calls_before);
    calls_before = hooks.calls();
    hooks_before = hooks.seconds();
    ++window;
  });

  const double t0 = wall_now();
  const double c0 = cpu_now();
  simulator.run(program);
  ep.wall_s = wall_now() - t0;
  ep.cpu_s = cpu_now() - c0;
  simulator.set_interceptor(nullptr);

  ep.windows = server.windows_processed();
  ep.fragments = server.fragments_processed();
  check_accounting(ep, ep.window_ms.size(), client.fragments_recorded());
  for (int k = 0; k < 3; ++k) ep.regions[k] = server.locate(kKinds[k]);
  check_app_answer(ep, a, server.diagnosis(), vopts.bin_seconds);
  ep.hook_calls = hooks.calls();
  ep.hook_s = hooks.seconds();
  return ep;
}

// Re-runs the same application with the same client and replays each
// drained batch; the replayed diagnoser drives counter reprogramming.
void app_replay(const AppWorkload& a, std::uint64_t seed, Replayer& replay) {
  const sim::Simulator::RankProgram program = app_program(a);
  const core::VaproOptions vopts = app_options(a, seed);
  sim::Simulator simulator(app_config(a, seed));
  core::VaproClient client(a.ranks, client_options(vopts));
  client.configure_counters(replay.counters_needed());
  simulator.set_interceptor(&client);
  simulator.add_periodic(a.window_seconds, [&](double) {
    replay.window(client.drain());
    client.configure_counters(replay.counters_needed());
  });
  simulator.run(program);
  simulator.set_interceptor(nullptr);
}

double app_only_seconds(const AppWorkload& a, std::uint64_t seed) {
  const sim::Simulator::RankProgram program = app_program(a);
  sim::Simulator simulator(app_config(a, seed));
  const double t0 = wall_now();
  simulator.run(program);
  return wall_now() - t0;
}

// ---------------------------------------------------------------- metrics

void add_failures(Outcome& out, const Episode& ep, const std::string& pass) {
  out.attempted += ep.attempted;
  out.failed += ep.failed;
  for (const std::string& f : ep.failures)
    out.notes.push_back("FAILED (" + pass + "): " + f);
}

// Within a phase the host still stalls for milliseconds now and then.  A
// timing is estimated by the median of its fastest quarter of samples (at
// least kMinKept, or all when fewer were taken).
double fast_median(std::vector<double> v) {
  constexpr std::size_t kMinKept = 3;
  std::sort(v.begin(), v.end());
  v.resize(std::min(v.size(), std::max(kMinKept, v.size() / 4)));
  return median(std::move(v));
}

// The host's speed drifts by tens of percent, on every CPU at once, in
// phases of seconds to minutes that the program does not cause.  Each
// untraced episode is therefore bracketed by runs of a fixed reference job
// (reference_seconds()), and its timings are scaled to the host speed at
// which that job takes kReferenceSeconds: the speed of this benchmark's
// 4-vCPU reference host in its fast phases.  A change to Vapro moves the
// scaled timings as much as the raw ones; a change of host speed does not.
constexpr double kReferenceSeconds = 1.12e-3;

Episode at_reference_speed(Episode ep) {
  const double k = kReferenceSeconds / fast_median(ep.reference_samples);
  for (std::vector<double>* series :
       {&ep.step_wall_s, &ep.step_cpu_s, &ep.window_ms, &ep.setup_samples})
    for (double& x : *series) x *= k;
  ep.wall_s *= k;
  ep.cpu_s *= k;
  return ep;
}

// One series of an episode, estimated position by position over a run's
// episodes: entry i is the fast_median of entry i of every episode that has
// one (NaN entries are not samples).
std::vector<double> by_position(const std::vector<Episode>& eps,
                                std::vector<double> Episode::*series) {
  std::vector<double> out;
  for (std::size_t i = 0;; ++i) {
    std::vector<double> at;
    bool any = false;
    for (const Episode& ep : eps) {
      const std::vector<double>& s = ep.*series;
      if (i >= s.size()) continue;
      any = true;
      if (!std::isnan(s[i])) at.push_back(s[i]);
    }
    if (!any) return out;
    out.push_back(at.empty() ? kNoSample : fast_median(std::move(at)));
  }
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

// The end-to-end metrics of a run's untraced episodes.  The timings, scaled
// to the reference speed, describe one episode built position by position
// (by_position) from its steps and window samples; counts and memory are
// medians over episodes.
void end_to_end(const std::vector<Episode>& raw, Outcome& out) {
  std::vector<Episode> eps;
  std::vector<double> windows, fragments, rss, setups, pooled, references;
  for (const Episode& r : raw) {
    eps.push_back(at_reference_speed(r));
    const Episode& ep = eps.back();
    windows.push_back(static_cast<double>(ep.windows));
    fragments.push_back(static_cast<double>(ep.fragments));
    rss.push_back(ep.rss_mb);
    setups.insert(setups.end(), ep.setup_samples.begin(), ep.setup_samples.end());
    for (double ms : ep.window_ms)
      if (!std::isnan(ms)) pooled.push_back(ms);
    references.push_back(fast_median(r.reference_samples));
  }
  const double wall = sum(by_position(eps, &Episode::step_wall_s));
  const double cpu = sum(by_position(eps, &Episode::step_cpu_s));
  // Early tenth after a tenth of warm-up vs the last tenth, in window order.
  std::vector<double> samples, early, late;
  for (double ms : by_position(eps, &Episode::window_ms))
    if (!std::isnan(ms)) samples.push_back(ms);
  const std::size_t n = samples.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= tenth && i < 2 * tenth) early.push_back(samples[i]);
    if (i + tenth >= n) late.push_back(samples[i]);
  }
  const double late_ms = median(late);
  Metrics& m = out.metrics;
  m.set("windows_per_s", median(windows) / wall, "1/s");
  m.set("fragments_per_s", median(fragments) / wall, "1/s");
  m.set("window_ms_p50", median(samples), "ms");
  // The tail tracks host bursts more than the program: its run-to-run
  // spread exceeds any usable bound on a shared host, so it is reported,
  // over every window sample of the run, but not in the result line.
  out.extra.set("window_ms_p95", quantile(pooled, 0.95), "ms");
  m.set("late_window_ms", late_ms, "ms");
  m.set("window_cost_growth", late_ms / median(early), "ratio");
  m.set("run_wall_s", wall, "s");
  m.set("run_cpu_s", cpu, "s");
  m.set("peak_rss_mb", median(rss), "MiB");
  m.set("setup_s", fast_median(setups), "s");
  // How far this run's host was from the reference speed, and the wall
  // before scaling, so the scaling can be checked.
  out.extra.set("host.reference_ms", median(references) * 1e3, "ms");
  out.extra.set("run_wall_s.unscaled", sum(by_position(raw, &Episode::step_wall_s)), "s");
  std::ostringstream note;
  note << "episodes " << eps.size() << ": window positions " << n << " (early "
       << early.size() << ", late " << late.size() << "), window samples "
       << pooled.size() << ", setup samples " << setups.size()
       << "; windows/s per episode at reference speed:";
  for (const Episode& ep : eps) note << " " << static_cast<double>(ep.windows) / ep.wall_s;
  out.notes.push_back(note.str());
}

void write_series(std::ostream& os, const char* name, const std::vector<double>& v) {
  os << "\"" << name << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? "," : "");
    if (std::isnan(v[i])) os << "null";
    else os << v[i];
  }
  os << "]";
}

// Every untraced episode's raw (unscaled) figures, one JSON object per
// line, for checking the estimators above against the samples they
// summarise.
void write_episodes(const std::string& path, const std::vector<Episode>& eps) {
  std::ofstream os(path);
  os.precision(9);
  for (const Episode& ep : eps) {
    os << "{\"wall_s\": " << ep.wall_s << ", \"cpu_s\": " << ep.cpu_s
       << ", \"windows\": " << ep.windows << ", \"fragments\": " << ep.fragments
       << ", \"rss_mb\": " << ep.rss_mb << ", ";
    write_series(os, "reference_s", ep.reference_samples);
    os << ", ";
    write_series(os, "setup_s", ep.setup_samples);
    os << ", ";
    write_series(os, "window_ms", ep.window_ms);
    os << ", ";
    write_series(os, "step_wall_s", ep.step_wall_s);
    os << ", ";
    write_series(os, "step_cpu_s", ep.step_cpu_s);
    os << "}\n";
  }
}

// One set-up sample: the mean of as many set-ups as fill kSetupSampleSeconds
// of construction time.  A single set-up takes from a fraction of a
// microsecond (a serial server) to tens of microseconds (pool threads), too
// short to time steadily on its own.  `setup_once` builds the objects,
// returns its construction time and tears them down untimed.
template <typename SetupOnce>
double setup_sample(SetupOnce setup_once) {
  constexpr double kSetupSampleSeconds = 1e-3;
  double sum = 0.0;
  int n = 0;
  for (; sum < kSetupSampleSeconds; ++n) sum += setup_once();
  return sum / n;
}

// Runs episodes until the budget is spent (at least one).  Each episode is
// bracketed by reference-job samples, and set-up is sampled on its own
// between the episode and the closing reference samples, so set-up shares
// the episode's host phase and scale.
template <typename RunEpisode, typename SetupOnce>
void untraced(const RunOptions& opts, RunEpisode run_episode, SetupOnce setup_once,
              Outcome& out) {
  constexpr int kSetupsPerEpisode = 20;
  constexpr int kReferencesPerSide = 8;
  std::vector<Episode> eps;
  reference_seconds();  // first touch of its buffer
  const double start = wall_now();
  for (int e = 0;; ++e) {
    std::vector<double> before;
    for (int i = 0; i < kReferencesPerSide; ++i) before.push_back(reference_seconds());
    reset_peak_rss();
    eps.push_back(run_episode(episode_seed(opts.seed, e)));
    Episode& ep = eps.back();
    ep.rss_mb = peak_rss_mb();
    add_failures(out, ep, "episode " + std::to_string(e));
    for (int i = 0; i < kSetupsPerEpisode; ++i)
      ep.setup_samples.push_back(setup_sample(setup_once));
    ep.reference_samples = std::move(before);
    for (int i = 0; i < kReferencesPerSide; ++i)
      ep.reference_samples.push_back(reference_seconds());
    const double elapsed = wall_now() - start;
    if (elapsed + elapsed / (e + 1) > opts.seconds) break;
  }
  end_to_end(eps, out);
  write_episodes(opts.out_dir + "/episodes_" + opts.workload + "_" +
                     std::to_string(opts.seed) + ".jsonl",
                 eps);
}

// Per-layer metrics shared by every traced workload.
// What a traced run measured end to end: the last untraced and traced
// episodes of the same inputs, and the traced over untraced median wall of
// all pairs.
struct TracedPair {
  Episode base;
  Episode traced;
  double wall_ratio = 1.0;
};

void layer_metrics(const TracedPair& run, const Replayer& replay, int ranks,
                   Outcome& out) {
  const Episode& base = run.base;
  const Episode& traced = run.traced;
  const double w = std::max<long>(1, replay.windows());
  const LayerSeconds& s = replay.seconds();
  Metrics& m = out.metrics;
  m.set("stg.adopt_ms", s.stg / w * 1e3, "ms");
  m.set("stg.edges", static_cast<double>(replay.stg().edge_count()), "count");
  m.set("stg.vertices", static_cast<double>(replay.stg().vertex_count()), "count");
  m.set("clustering.ms", s.clustering / w * 1e3, "ms");
  m.set("clustering.clusters", replay.clusters_per_window(), "count");
  m.set("clustering.rare", replay.rare_per_window(), "count");
  const core::CoverageAccumulator& cov = replay.coverage();
  m.set("clustering.covered_frac",
        cov.observed_total() > 0 ? cov.covered_total() / cov.observed_total() : 0.0,
        "frac");
  m.set("detection.normalize_ms", s.normalize / w * 1e3, "ms");
  m.set("detection.coverage_ms", s.coverage / w * 1e3, "ms");
  m.set("detection.baseline_entries", static_cast<double>(replay.baseline().size()),
        "count");
  m.set("heatmap.deposit_ms", s.deposit / w * 1e3, "ms");
  m.set("heatmap.regions_ms",
        s.region_passes ? s.regions / s.region_passes * 1e3 : 0.0, "ms");
  const int bins = replay.computation_map().bins();
  m.set("heatmap.bins", bins, "count");
  m.set("heatmap.regions", static_cast<double>(replay.final_regions()), "count");
  m.set("heatmap.cells_mb", 3.0 * ranks * bins * 16.0 / (1024.0 * 1024.0), "MiB");
  m.set("diagnosis.windows_to_verdict",
        static_cast<double>(replay.windows_to_verdict()), "count");

  const core::PipelineBreakdown& b = base.breakdown;
  double shard_busy = 0.0, shard_peak = 0.0;
  for (double lane : b.shard_busy_seconds) {
    shard_busy += lane;
    shard_peak = std::max(shard_peak, lane);
  }
  const double lanes = static_cast<double>(b.shard_busy_seconds.size());
  m.set("pipeline.analysis_busy_s", b.analysis_busy_seconds, "s");
  m.set("pipeline.shard_imbalance",
        shard_busy > 0.0 ? shard_peak / (shard_busy / lanes) : 1.0, "ratio");
  m.set("client.calls", static_cast<double>(traced.hook_calls), "count");
  m.set("obs.journal_events", static_cast<double>(base.journal_events), "count");
  m.set("obs.journal_bytes_per_window",
        base.windows ? static_cast<double>(base.journal_bytes) / base.windows : 0.0,
        "B");
  m.set("generator.build_s", base.gen_s, "s");
  m.set("trace.wall_ratio", run.wall_ratio, "ratio");

  // Report-only: these read exactly 0 on every workload that bypasses the
  // layer (no client, no diagnosis, or a serial pipeline), so they stay out
  // of the result line and go to the report file and the printed table.
  Metrics& x = out.extra;
  x.set("client.ns_per_call",
        traced.hook_calls ? traced.hook_s / traced.hook_calls * 1e9 : 0.0, "ns");
  x.set("client.drain_ms",
        traced.windows ? traced.drain_s / traced.windows * 1e3 : 0.0, "ms");
  x.set("diagnosis.feed_ms", s.diagnosis / w * 1e3, "ms");
  x.set("pipeline.producer_block_s", b.queue_stall_seconds, "s");
  x.set("pipeline.consumer_idle_s", b.consumer_idle_seconds, "s");
  x.set("pipeline.handoff_wait_s", b.handoff_wait_seconds, "s");
  x.set("pipeline.shard_busy_s", shard_busy, "s");
  x.set("pipeline.shard_idle_s", b.shard_idle_seconds, "s");
}

// The traced run's episodes: a warm-up, then traced and untraced episodes
// of the same inputs in alternation while the budget allows (leaving room
// for the replay, which costs about one episode).  The ratio of their
// median walls, minus 1, is the tracing overhead; the last pair feeds the
// layer metrics.
template <typename Plain, typename Traced>
TracedPair traced_pairs(const RunOptions& opts, std::uint64_t seed, Plain plain,
                        Traced traced, Outcome& out) {
  const double start = wall_now();
  add_failures(out, plain(seed), "warm-up");
  std::vector<double> traced_wall, plain_wall;
  TracedPair last;
  for (int pair = 1;; ++pair) {
    last.traced = traced(seed);
    add_failures(out, last.traced, "traced");
    last.base = plain(seed);
    add_failures(out, last.base, "untraced");
    traced_wall.push_back(last.traced.wall_s);
    plain_wall.push_back(last.base.wall_s);
    const double elapsed = wall_now() - start;
    if (elapsed + 3.0 * elapsed / (2 * pair + 1) > opts.seconds) break;
  }
  last.wall_ratio = median(traced_wall) / median(plain_wall);
  std::ostringstream note;
  note << "tracing overhead " << last.wall_ratio - 1.0 << " over " << plain_wall.size()
       << " pair(s): traced wall median " << median(traced_wall)
       << " s, untraced " << median(plain_wall) << " s";
  out.notes.push_back(note.str());
  return last;
}

void check_replay(Outcome& out, Replayer& replay, const Episode& traced) {
  std::string why;
  const bool same = replay.matches(traced.regions, &why);
  out.attempted += 1;
  if (!same) {
    out.failed += 1;
    out.notes.push_back("FAILED (replay): region table differs from locate(): " + why);
  } else {
    out.notes.push_back("replay check: region table equals AnalysisServer::locate()");
  }
}

Outcome run_synthetic(const RunOptions& opts, const SyntheticWorkload& wl,
                      Tracer* tracer) {
  Outcome out;
  const std::string journal = opts.out_dir + "/journal_" + opts.workload + ".jsonl";
  if (!opts.trace) {
    obs::ObsContext ctx;
    core::ServerOptions sopts = wl.sopts;
    if (wl.journal) sopts.obs = &ctx;
    untraced(
        opts,
        [&](std::uint64_t seed) { return synthetic_episode(wl, seed, nullptr, journal); },
        // Set-up is the server with its pool threads.  The telemetry
        // context and its journal file are the caller's, made once.
        [&] {
          const double s0 = wall_now();
          core::AnalysisServer server(wl.shape.ranks, sopts);
          return wall_now() - s0;
        },
        out);
    return out;
  }
  const std::uint64_t seed = episode_seed(opts.seed, 0);
  const TracedPair run = traced_pairs(
      opts, seed,
      [&](std::uint64_t sd) { return synthetic_episode(wl, sd, nullptr, journal); },
      [&](std::uint64_t sd) { return synthetic_episode(wl, sd, tracer, journal); },
      out);
  Replayer replay(wl.shape.ranks, wl.sopts, wl.journal, tracer);
  synthetic_replay(wl, seed, replay);
  check_replay(out, replay, run.traced);
  layer_metrics(run, replay, wl.shape.ranks, out);
  out.extra.set("sim.app_only_s", 0.0, "s");
  return out;
}

Outcome run_app(const RunOptions& opts, Tracer* tracer) {
  Outcome out;
  const AppWorkload a = app_run(opts.smoke);
  if (!opts.trace) {
    const core::VaproOptions vopts = app_options(a, opts.seed);
    untraced(
        opts,
        [&](std::uint64_t seed) { return app_episode(a, seed); },
        [&, cfg = app_config(a, opts.seed)] {
          const double s0 = wall_now();
          sim::Simulator simulator(cfg);
          core::VaproSession session(simulator, vopts);
          return wall_now() - s0;
        },
        out);
    return out;
  }
  const std::uint64_t seed = episode_seed(opts.seed, 0);
  const TracedPair run = traced_pairs(
      opts, seed, [&](std::uint64_t sd) { return app_episode(a, sd); },
      [&](std::uint64_t sd) { return app_traced_episode(a, sd, tracer); }, out);
  const core::VaproOptions vopts = app_options(a, seed);
  Replayer replay(a.ranks,
                  core::server_options_from(vopts, app_config(a, seed).machine),
                  false, tracer);
  app_replay(a, seed, replay);
  check_replay(out, replay, run.traced);
  layer_metrics(run, replay, a.ranks, out);
  out.extra.set("sim.app_only_s", app_only_seconds(a, seed), "s");
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steady_windows", "long_run",
                                                 "app_run"};
  return names;
}

Outcome run_workload(const RunOptions& opts, Tracer* tracer) {
  if (opts.workload == "steady_windows")
    return run_synthetic(opts, steady_windows(opts.smoke), tracer);
  if (opts.workload == "long_run")
    return run_synthetic(opts, long_run(opts.smoke), tracer);
  return run_app(opts, tracer);
}

}  // namespace perfbench
