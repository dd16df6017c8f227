// Shared observability flag wiring for the vapro_run / vapro_replay CLIs:
//
//   --metrics-out=FILE   self-telemetry JSON (parent dirs created)
//   --trace-out=FILE     Chrome trace-event JSON of the pipeline
//   --journal-out=FILE   schema-versioned JSONL event journal
//   --journal-dir=DIR    rotating JSONL journal segments in a fresh
//                        directory (see src/obs/journal_segment.hpp)
//   --journal-rotate-bytes=N    segment size cap (default 1 MiB)
//   --journal-rotate-seconds=S  segment age cap in virtual time (default off)
//   --listen=PORT        embedded HTTP endpoint (0 = ephemeral port):
//                        / (endpoint index) /metrics /healthz /v1/heatmap
//                        /v1/variance /v1/latency /v1/critical_path
//   --listen-linger=S    keep serving S seconds after the run finishes
//   --alert-rule=SPEC    alert rule (repeatable; see src/obs/alerts.hpp)
//   --alert-file=FILE    also append fired alerts to FILE (webhook stub)
//   --obs-table          print the end-of-run metrics table regardless
//
// Declare the ObsCli BEFORE the ObsContext in main(): the journal borrows
// the alert engine as a sink, so the context (which flushes the journal on
// destruction) must die first.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/alerts.hpp"
#include "src/obs/context.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace vapro::tools {

// Shared analysis-pipeline flags for vapro_run / vapro_replay / vapro_stress:
//
//   --pipeline-depth=N     windows admitted past the hand-off before the
//                          drain blocks (1 = synchronous, default)
//   --analysis-threads=N   clustering worker threads per server
//
// All combinations produce byte-identical reports and journal tables; see
// docs/ARCHITECTURE.md "Threading & pipeline model".
struct PipelineCli {
  int pipeline_depth = 1;
  int analysis_threads = 1;

  // False (with a message on stderr) when a value is out of range.
  bool parse(const util::CliArgs& args) {
    pipeline_depth = args.get_int("pipeline-depth", 1);
    analysis_threads = args.get_int("analysis-threads", 1);
    if (pipeline_depth < 1) {
      std::cerr << "--pipeline-depth must be >= 1\n";
      return false;
    }
    if (analysis_threads < 1) {
      std::cerr << "--analysis-threads must be >= 1\n";
      return false;
    }
    return true;
  }

  static const char* usage_lines() {
    return "  --pipeline-depth=N     overlap analysis with the next window\n"
           "                         drain; N windows may be in flight\n"
           "                         (default 1 = synchronous; results are\n"
           "                         byte-identical at any depth)\n"
           "  --analysis-threads=N   clustering worker threads (default 1)\n";
  }
};

struct ObsCli {
  std::string metrics_path;
  std::string trace_out_path;
  std::string journal_path;
  std::string journal_dir;
  std::uint64_t journal_rotate_bytes = 1u << 20;
  double journal_rotate_seconds = 0.0;
  std::string listen;
  double listen_linger = 0.0;
  std::string alert_file;
  std::vector<std::string> alert_specs;
  bool obs_table = false;

  obs::AlertEngine alert_engine;
  obs::StderrAlertSink stderr_sink;
  std::unique_ptr<obs::JournalAlertSink> journal_alert_sink;
  std::unique_ptr<obs::WebhookFileSink> webhook_sink;

  // False (with a message on stderr) when a value is out of range.
  bool parse(const util::CliArgs& args) {
    metrics_path = args.get("metrics-out", "");
    trace_out_path = args.get("trace-out", "");
    journal_path = args.get("journal-out", "");
    journal_dir = args.get("journal-dir", "");
    // Range-checked before the cast: a double outside [0, 2^64) has no
    // uint64 value (the conversion is undefined behavior), and NaN fails
    // every comparison.
    const double rotate_bytes =
        args.get_double("journal-rotate-bytes", 1 << 20);
    if (!(rotate_bytes >= 0.0 && rotate_bytes < 0x1p64)) {
      std::cerr << "--journal-rotate-bytes must be in [0, 2^64)\n";
      return false;
    }
    journal_rotate_bytes = static_cast<std::uint64_t>(rotate_bytes);
    journal_rotate_seconds = args.get_double("journal-rotate-seconds", 0.0);
    if (!(journal_rotate_seconds >= 0.0) ||
        !std::isfinite(journal_rotate_seconds)) {
      std::cerr << "--journal-rotate-seconds must be finite and >= 0\n";
      return false;
    }
    listen = args.get("listen", "");
    listen_linger = args.get_double("listen-linger", 0.0);
    alert_file = args.get("alert-file", "");
    alert_specs = args.get_all("alert-rule");
    obs_table = args.get_bool("obs-table");
    return true;
  }

  // Any flag that needs an ObsContext attached?
  bool want_obs() const {
    return !metrics_path.empty() || !trace_out_path.empty() ||
           !journal_path.empty() || !journal_dir.empty() || !listen.empty() ||
           !alert_file.empty() || !alert_specs.empty() || obs_table;
  }

  // Enables journal/alerts/exposition on `ctx` per the parsed flags.  Call
  // BEFORE constructing the session, so core components find the
  // exposition server and journal when they attach.  On failure returns
  // false with a printable message in `error`.
  bool activate(obs::ObsContext& ctx, std::string* error) {
    if (!trace_out_path.empty()) ctx.enable_trace();
    if (!journal_path.empty() || !journal_dir.empty() || !alert_specs.empty())
      ctx.enable_journal();
    if (!journal_path.empty() && !ctx.attach_journal_file(journal_path)) {
      *error = "cannot open --journal-out file " + journal_path;
      return false;
    }
    if (!journal_dir.empty()) {
      obs::SegmentOptions seg;
      seg.directory = journal_dir;
      seg.max_segment_bytes = journal_rotate_bytes;
      seg.max_segment_seconds = journal_rotate_seconds;
      if (!ctx.attach_journal_file(std::move(seg))) {
        *error = "cannot create --journal-dir segments in " + journal_dir;
        return false;
      }
    }
    if (!alert_specs.empty()) {
      for (const std::string& spec : alert_specs) {
        obs::AlertRule rule;
        if (!obs::parse_alert_rule(spec, &rule, error)) return false;
        alert_engine.add_rule(std::move(rule));
      }
      alert_engine.add_alert_sink(&stderr_sink);
      journal_alert_sink =
          std::make_unique<obs::JournalAlertSink>(ctx.journal());
      alert_engine.add_alert_sink(journal_alert_sink.get());
      if (!alert_file.empty()) {
        webhook_sink = std::make_unique<obs::WebhookFileSink>(alert_file);
        if (!webhook_sink->ok()) {
          *error = "cannot open --alert-file " + alert_file;
          return false;
        }
        alert_engine.add_alert_sink(webhook_sink.get());
      }
      ctx.journal()->add_sink(&alert_engine);
    }
    if (!listen.empty()) {
      std::string bind_error;
      if (!ctx.start_exposition(std::atoi(listen.c_str()), &bind_error)) {
        *error = "--listen: " + bind_error;
        return false;
      }
      // Printed (and flushed) before the run so scrapers can attach early.
      // "/" serves the live endpoint index, so only the discovery root is
      // spelled out here.
      std::cout << "listening on http://127.0.0.1:"
                << ctx.exposition()->port()
                << "  (/ lists endpoints: /metrics /healthz /v1/heatmap "
                   "/v1/variance /v1/latency /v1/critical_path)\n"
                << std::flush;
    }
    return true;
  }

  // End-of-run outputs: metrics table, JSON/trace writes, journal and
  // alert summary lines.  Returns false when any file write failed.
  bool finish(obs::ObsContext& ctx) {
    util::TextTable table({"metric", "kind", "value"});
    for (const auto& row : ctx.metrics().rows())
      table.add_row({row.name, row.kind, row.value});
    std::cout << "\n--- self-telemetry ---\n";
    table.print(std::cout);

    bool failed = false;
    if (!metrics_path.empty()) {
      if (ctx.write_metrics_json(metrics_path)) {
        std::cout << "metrics JSON -> " << metrics_path << "\n";
      } else {
        std::cerr << "failed to write " << metrics_path << "\n";
        failed = true;
      }
    }
    if (!trace_out_path.empty()) {
      if (ctx.write_trace_json(trace_out_path)) {
        std::cout << "pipeline trace (" << ctx.trace()->size()
                  << " events) -> " << trace_out_path
                  << "  (open in chrome://tracing or ui.perfetto.dev)\n";
      } else {
        std::cerr << "failed to write " << trace_out_path << "\n";
        failed = true;
      }
    }
    if (obs::Journal* journal = ctx.journal()) {
      journal->flush();
      std::cout << "journal: " << journal->events_emitted() << " events";
      if (!journal_path.empty()) std::cout << " -> " << journal_path;
      if (!journal_dir.empty()) std::cout << " -> " << journal_dir;
      std::cout << "\n";
    }
    if (alert_engine.rules() > 0)
      std::cout << "alerts fired: " << alert_engine.alerts_fired() << " ("
                << alert_engine.rules() << " rules)\n";
    return !failed;
  }

  // Keeps the exposition endpoint alive after the run (--listen-linger).
  // The wait goes through the context's clock, so tests driving a
  // util::VirtualClock skip the linger instantly.
  void linger(const obs::ObsContext& ctx) const {
    if (!ctx.exposition() || listen_linger <= 0.0) return;
    std::cout << "serving for " << listen_linger
              << "s more (--listen-linger)\n"
              << std::flush;
    ctx.clock()->sleep_for(listen_linger);
  }
};

}  // namespace vapro::tools
