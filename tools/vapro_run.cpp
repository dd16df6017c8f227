// vapro_run — the command-line driver.
//
// Runs any registered application on the simulated cluster with optional
// noise injection, attaches Vapro, and prints the full report:
//
//   vapro_run --app=CG --ranks=64 --noise=cpu:1:0.4:1.4:1.0
//   vapro_run --app=Nekbone --ranks=128 --noise=dram:3:0:inf:1.5 --ansi
//   vapro_run --list
//
// Noise spec: kind:node:t_begin:t_end:magnitude with kind one of
//   cpu | mem | dram | l2bug | pf | io | net     (node -1 = all nodes).
#include <chrono>
#include <fstream>
#include <iostream>

#include "src/apps/apps.hpp"
#include "src/core/report.hpp"
#include "src/core/report_json.hpp"
#include "src/core/scoreboard.hpp"
#include "src/core/vapro.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/net/session.hpp"
#include "src/obs/context.hpp"
#include "src/sim/runtime.hpp"
#include "src/trace/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/fs.hpp"
#include "src/util/table.hpp"
#include "tools/obs_cli.hpp"

namespace {

using namespace vapro;

int usage() {
  std::cout <<
      "usage: vapro_run --app=NAME [options]\n"
      "  --list                 list available applications\n"
      "  --ranks=N              number of ranks/threads (default 64)\n"
      "  --cores-per-node=N     topology (default 24)\n"
      "  --seed=N               simulation seed (default 1)\n"
      "  --scale=X              workload scale factor (default 1.0)\n"
      "  --noise=K:NODE:T0:T1:MAG   inject noise (repeatable); K in\n"
      "                         cpu|mem|dram|l2bug|pf|io|net\n"
      "  --window=SECONDS       analysis window (default 0.25)\n"
      "  --bins=SECONDS         heat-map bin width (default 0.1)\n"
      "  --context-aware        use context-aware STG\n"
      "  --sampling=none|backoff|skip-short\n"
      "  --no-diagnosis         detection only\n"
      "  --net-loopback         route window batches through the framed\n"
      "                         ingest plane (wire protocol over a\n"
      "                         loopback socket) instead of the in-process\n"
      "                         server; reports must be identical\n"
      << tools::PipelineCli::usage_lines() <<
      "  --ansi                 colored heat maps\n"
      "  --json                 print the report as one JSON document\n"
      "  --csv=DIR              also dump heat-map CSVs into DIR\n"
      "  --trace=FILE           record the interception stream for\n"
      "                         offline re-analysis with vapro_replay\n"
      "  --metrics-out=FILE     write self-telemetry JSON (pipeline\n"
      "                         metrics, per-window stage timings,\n"
      "                         tool-vs-app overhead)\n"
      "  --trace-out=FILE       write a Chrome trace-event JSON of the\n"
      "                         analysis pipeline (chrome://tracing,\n"
      "                         Perfetto)\n"
      "  --obs-table            print the end-of-run metrics table even\n"
      "                         without --metrics-out\n"
      "  --journal-out=FILE     write the schema-versioned JSONL event\n"
      "                         journal (variance regions, rare paths,\n"
      "                         diagnosis verdicts, PMU reprograms)\n"
      "  --journal-dir=DIR      write the journal as rotating JSONL\n"
      "                         segments into DIR, which must hold none\n"
      "                         yet (replayable with vapro_replay\n"
      "                         --from-journal DIR)\n"
      "  --journal-rotate-bytes=N    segment size cap (default 1 MiB)\n"
      "  --journal-rotate-seconds=S  segment age cap, virtual time\n"
      "  --listen=PORT          serve /metrics (Prometheus), /healthz,\n"
      "                         /v1/heatmap, /v1/variance on\n"
      "                         127.0.0.1:PORT (0 = ephemeral)\n"
      "  --listen-linger=S      keep serving S seconds after the run\n"
      "  --alert-rule=SPEC      alert rule (repeatable), e.g.\n"
      "                         'variance_ratio > 1.2 for 3' or\n"
      "                         'factor=io contribution > 0.25'\n"
      "  --alert-file=FILE      append fired alerts to FILE (webhook stub)\n";
  return 2;
}

bool parse_noise(const std::string& spec, sim::NoiseSpec* out) {
  auto fields = util::split(spec, ':');
  if (fields.size() != 5) return false;
  const std::string& kind = fields[0];
  if (kind == "cpu") out->kind = sim::NoiseKind::kCpuContention;
  else if (kind == "mem") out->kind = sim::NoiseKind::kMemoryBandwidth;
  else if (kind == "dram") out->kind = sim::NoiseKind::kSlowDram;
  else if (kind == "l2bug") out->kind = sim::NoiseKind::kL2CacheBug;
  else if (kind == "pf") out->kind = sim::NoiseKind::kPageFaultStorm;
  else if (kind == "io") out->kind = sim::NoiseKind::kIoInterference;
  else if (kind == "net") out->kind = sim::NoiseKind::kNetworkCongestion;
  else return false;
  out->node = std::atoi(fields[1].c_str());
  out->t_begin = std::strtod(fields[2].c_str(), nullptr);
  out->t_end = fields[3] == "inf" ? 1e300 : std::strtod(fields[3].c_str(), nullptr);
  out->magnitude = std::strtod(fields[4].c_str(), nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);

  const double scale = args.get_double("scale", 1.0);
  auto suite = apps::multiprocess_suite(scale);
  auto threaded = apps::multithreaded_suite(scale);
  suite.insert(suite.end(), threaded.begin(), threaded.end());
  // Standalone solvers join the registry under their own names.
  apps::HplParams hpl_p;
  suite.push_back({"HPL", apps::hpl(hpl_p), true, false});
  apps::NekboneParams nek_p;
  suite.push_back({"Nekbone", apps::nekbone(nek_p), true, false});
  apps::RaxmlParams rax_p;
  suite.push_back({"RAxML", apps::raxml(rax_p), true, false});
  apps::MasterWorkerParams mw_p;
  suite.push_back({"MasterWorker", apps::masterworker(mw_p), true, false});

  if (args.get_bool("list")) {
    std::cout << "available applications:\n";
    for (const auto& spec : suite)
      std::cout << "  " << spec.name
                << (spec.multithreaded ? "  (multithreaded)" : "") << '\n';
    return 0;
  }

  const std::string app_name = args.get("app", "");
  if (app_name.empty()) return usage();
  const apps::AppSpec* app = nullptr;
  for (const auto& spec : suite)
    if (spec.name == app_name) app = &spec;
  if (!app) {
    std::cerr << "unknown app '" << app_name << "' — try --list\n";
    return 2;
  }

  // Flag values are checked before any work: one no run can use exits 2.
  sim::SimConfig config;
  core::VaproOptions options;
  tools::PipelineCli pipeline_cli;
  // ObsCli before ObsContext: the journal borrows the alert engine.
  tools::ObsCli obs_cli;
  if (!tools::read_positive_flag(args, "ranks", 64, &config.ranks) ||
      !tools::read_positive_flag(args, "cores-per-node", 24,
                                 &config.cores_per_node) ||
      !tools::read_positive_flag(args, "window", 0.25,
                                 &options.window_seconds) ||
      !tools::read_positive_flag(args, "bins", 0.1, &options.bin_seconds) ||
      !tools::bins_fit_window(config.ranks, options.window_seconds,
                              options.bin_seconds) ||
      !pipeline_cli.parse(args) || !obs_cli.parse(args))
    return 2;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  for (const std::string& spec : args.get_all("noise")) {
    sim::NoiseSpec noise;
    if (!parse_noise(spec, &noise)) {
      std::cerr << "bad --noise spec '" << spec << "'\n";
      return 2;
    }
    config.noises.push_back(noise);
  }
  sim::Simulator simulator(config);

  // Make the CSV directory and open the trace file before the run, so a
  // bad one fails fast.
  const std::string csv_dir = args.get("csv", "");
  if (!csv_dir.empty() && !util::ensure_dir(csv_dir)) {
    std::cerr << "cannot create --csv directory " << csv_dir << "\n";
    return 2;
  }
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty() && !std::ofstream(trace_path, std::ios::binary)) {
    std::cerr << "cannot open --trace file " << trace_path << "\n";
    return 2;
  }

  options.run_diagnosis = !args.get_bool("no-diagnosis");
  if (args.get_bool("context-aware"))
    options.stg_mode = core::StgMode::kContextAware;
  const std::string sampling = args.get("sampling", "none");
  if (sampling == "backoff") options.sampling = core::SamplingPolicy::kBackoff;
  else if (sampling == "skip-short")
    options.sampling = core::SamplingPolicy::kSkipShort;
  options.pipeline_depth = pipeline_cli.pipeline_depth;
  options.analysis_threads = pipeline_cli.analysis_threads;

  // Self-telemetry: attach an ObsContext when any observability output is
  // requested; the default path keeps the library instrument-free.
  obs::ObsContext obs_ctx;
  const bool want_obs = obs_cli.want_obs();
  if (want_obs) {
    options.obs = &obs_ctx;
    std::string error;
    if (!obs_cli.activate(obs_ctx, &error)) {
      std::cerr << error << "\n";
      return 2;
    }
  }

  // --net-loopback: the same analysis, but every window batch travels the
  // production ingest path — encoded, framed, CRC-checked, admitted through
  // the tenant session — over a real loopback socket.  The report must be
  // byte-identical to the in-process run (tool_vapro_run_net_equivalence).
  std::unique_ptr<net::IngestPlane> plane;
  std::unique_ptr<net::IngestServer> ingest_server;
  std::unique_ptr<net::IngestClient> ingest_client;
  net::TenantSession* tenant = nullptr;
  if (args.get_bool("net-loopback")) {
    net::PlaneOptions popts;
    popts.obs = want_obs ? &obs_ctx : nullptr;
    plane = std::make_unique<net::IngestPlane>(popts);
    net::TenantOptions topts;
    topts.name = "default";
    topts.ranks = config.ranks;
    topts.server = core::server_options_from(options, config.machine);
    tenant = plane->add_tenant(std::move(topts));
    ingest_server = std::make_unique<net::IngestServer>(plane.get());
    std::string error;
    if (!ingest_server->start(0, &error)) {
      std::cerr << "ingest server: " << error << "\n";
      return 1;
    }
    net::ClientOptions ncopts;
    ncopts.port = ingest_server->port();
    ncopts.tenant = "default";
    ncopts.ranks = static_cast<std::uint32_t>(config.ranks);
    ingest_client = std::make_unique<net::IngestClient>(ncopts);
    if (!ingest_client->connect(&error)) {
      std::cerr << "ingest client: " << error << "\n";
      return 1;
    }
    options.external_server = tenant->server();
    options.batch_transport = [&ingest_client](core::FragmentBatch&& batch,
                                               double drain_seconds) {
      std::string send_error;
      if (!ingest_client->send_batch(batch, drain_seconds, &send_error))
        std::cerr << "ingest send: " << send_error << "\n";
    };
    options.transport_sync = [tenant, &ingest_client] {
      std::string flush_error;
      ingest_client->flush(&flush_error);
      tenant->sync();
    };
  }

  core::VaproSession session(simulator, options);

  // Optional trace recording, teeing into the live session.
  std::unique_ptr<trace::TraceWriter> writer;
  if (!trace_path.empty()) {
    writer = std::make_unique<trace::TraceWriter>(&session.client());
    simulator.set_interceptor(writer.get());
  }

  const auto wall0 = std::chrono::steady_clock::now();
  auto result = simulator.run(app->program);
  const double run_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (ingest_client) {
    // Deliver any held frame, drain the admission queue, and settle the
    // backend before the report reads it.
    std::string flush_error;
    if (!ingest_client->flush(&flush_error))
      std::cerr << "ingest flush: " << flush_error << "\n";
    tenant->sync();
  }
  const bool trace_write_ok = !writer || writer->trace().save(trace_path);
  if (!trace_write_ok)
    std::cerr << "cannot write trace to " << trace_path << "\n";
  else if (writer)
    std::cout << "trace: " << writer->trace().size() << " events ("
              << writer->trace().byte_size() / 1024 << " KiB) → "
              << trace_path << "\n";
  std::cout << app_name << ": " << config.ranks << " ranks, makespan "
            << result.makespan << " virtual seconds, " << result.events
            << " events\n\n";

  if (args.get_bool("json")) {
    double total = 0;
    for (double t : result.finish_times) total += t;
    std::cout << core::report_json(session, total) << '\n';
  } else {
    core::ReportOptions ropts;
    ropts.ansi_color = args.get_bool("ansi");
    std::cout << core::render_report(session, ropts);
  }

  bool csv_write_ok = true;
  if (!csv_dir.empty()) {
    csv_write_ok = core::write_csv_bundle(session, csv_dir) == 3;
    if (csv_write_ok)
      std::cout << "\nheat-map CSVs written to " << csv_dir << "/\n";
    else
      std::cerr << "cannot write heat-map CSVs to " << csv_dir << "/\n";
  }

  if (want_obs) {
    obs_ctx.overhead().set_run_wall_seconds(run_wall_seconds);
    obs_ctx.overhead().set_app_virtual_seconds(result.makespan);
    // Injection ground truth (journal schema v2): what the noise schedule
    // actually perturbed, so the journal alone suffices to score this
    // run's conclusions (src/core/scoreboard.hpp).
    if (obs::Journal* journal = obs_ctx.journal())
      core::journal_ground_truth(
          *journal, simulator.ground_truth(result.makespan), result.makespan);
    // Final full-precision region snapshot so a journal replay reproduces
    // the end-of-run detection report exactly.
    session.server().journal_detection_snapshot();

    const bool obs_write_ok = obs_cli.finish(obs_ctx);
    const auto& oh = obs_ctx.overhead();
    std::cout << "tool time " << util::fmt(oh.tool_seconds() * 1e3, 1)
              << " ms over a " << util::fmt(oh.run_wall_seconds(), 2)
              << " s run (" << util::fmt(oh.tool_fraction_of_wall() * 100, 2)
              << "% of wall clock); app makespan "
              << util::fmt(oh.app_virtual_seconds(), 2) << " virtual s\n";
    obs_cli.linger(obs_ctx);
    if (!obs_write_ok) return 1;
  }
  return csv_write_ok && trace_write_ok ? 0 : 1;
}
