// vapro_replay — offline analysis of a recorded trace, or re-ingestion of
// an event journal.
//
//   vapro_record: use `vapro_run --trace=FILE ...` to record (or any code
//   attaching trace::TraceWriter), then:
//
//   vapro_replay trace.vprt --window=0.25 --threshold=0.85
//   vapro_replay trace.vprt --context-aware --no-diagnosis
//
// Re-analyzes the same run under different knobs without re-running it.
// With the flags the run was recorded under it prints the run's own
// report and journals the run's own analysis (trace::replay).
//
//   vapro_replay --from-journal run.jsonl
//   vapro_replay --from-journal segments_dir/
//
// reconstructs the original run's detection/diagnosis summaries from its
// `--journal-out` event journal alone (no raw trace needed): the journal
// carries every conclusion at full precision.  A `--journal-dir`
// directory of rotated JSONL segments replays as one stream.
//
//   vapro_replay --compact-journal SRC --compact-out DST
//
// offline compaction: drops superseded variance-region revisions and
// quality-scoreboard snapshots, writes a single JSONL journal at DST.  The
// compacted journal replays byte-identically.
#include <chrono>
#include <iostream>
#include <optional>
#include <string>

#include "src/core/journal_replay.hpp"
#include "src/obs/journal_segment.hpp"
#include "src/core/report.hpp"
#include "src/obs/context.hpp"
#include "src/trace/offline.hpp"
#include "src/util/cli.hpp"
#include "tools/obs_cli.hpp"

int main(int argc, char** argv) {
  using namespace vapro;
  util::CliArgs args(argc, argv);
  // Both `--from-journal FILE` (FILE parses as the flag value) and
  // `FILE --from-journal` (FILE parses as a positional) are accepted.
  std::string journal_in = args.get("from-journal", "");
  if (args.has("from-journal") && journal_in.empty() &&
      !args.positionals().empty())
    journal_in = args.positionals()[0];

  const std::string compact_src = args.get("compact-journal", "");
  if (!compact_src.empty()) {
    const std::string compact_dst = args.get("compact-out", "");
    if (compact_dst.empty()) {
      std::cerr << "--compact-journal requires --compact-out=DEST\n";
      return 2;
    }
    obs::CompactionStats stats;
    std::string error;
    if (!obs::compact_journal(compact_src, compact_dst, &stats, &error)) {
      std::cerr << "journal compaction failed: " << error << "\n";
      return 1;
    }
    std::cout << "compacted " << compact_src << " -> " << compact_dst << ": "
              << stats.kept << " events kept, " << stats.dropped
              << " superseded events dropped\n";
    return 0;
  }

  if (args.positionals().empty() && journal_in.empty()) {
    std::cout << "usage: vapro_replay TRACE_FILE [--window=S] "
                 "[--threshold=X] [--bins=S] [--context-aware] "
                 "[--no-diagnosis] [--cluster-threshold=X] "
                 "[--metrics-out=FILE] [--trace-out=FILE] [--obs-table]\n"
                 "       vapro_replay --from-journal JOURNAL_FILE_OR_DIR\n"
                 "       vapro_replay --compact-journal SRC --compact-out=DEST\n"
                 "analysis pipeline flags (as in vapro_run):\n"
              << tools::PipelineCli::usage_lines()
              << "extra observability flags (as in vapro_run): "
                 "[--journal-out=FILE] [--journal-dir=DIR] [--listen=PORT] "
                 "[--listen-linger=S] [--alert-rule=SPEC]... "
                 "[--alert-file=FILE]\n";
    return 2;
  }

  if (!journal_in.empty()) {
    // Journal re-ingestion: no clustering, no heat maps — just the
    // producer's own conclusions, replayed.
    core::JournalSummary summary = core::summarize_journal_file(journal_in);
    if (!summary.ok) {
      std::cerr << "journal replay failed: " << summary.error << "\n";
      return 1;
    }
    std::cout << core::render_journal_summary(summary);
    return 0;
  }

  // Flag values are checked before the trace loads: one no replay can use
  // exits 2.  The defaults are vapro_run's, so the flags a run was
  // recorded under replay it exactly (tool_vapro_replay_reproduces_run
  // pins both).
  core::VaproOptions opts;
  tools::PipelineCli pipeline_cli;
  // ObsCli before ObsContext: the journal borrows the alert engine.
  tools::ObsCli obs_cli;
  if (!tools::read_positive_flag(args, "window", 0.25, &opts.window_seconds) ||
      !tools::read_positive_flag(args, "bins", 0.1, &opts.bin_seconds) ||
      !pipeline_cli.parse(args) || !obs_cli.parse(args))
    return 2;
  opts.variance_threshold = args.get_double("threshold", 0.85);
  opts.cluster.threshold = args.get_double("cluster-threshold", 0.05);
  opts.run_diagnosis = !args.get_bool("no-diagnosis");
  if (args.get_bool("context-aware"))
    opts.stg_mode = core::StgMode::kContextAware;
  opts.pipeline_depth = pipeline_cli.pipeline_depth;
  opts.analysis_threads = pipeline_cli.analysis_threads;

  const std::string trace_path = args.positionals()[0];
  std::string load_error;
  const std::optional<trace::Trace> loaded =
      trace::Trace::load(trace_path, &load_error);
  if (!loaded) {
    std::cerr << "cannot load trace " << trace_path << ": " << load_error
              << "\n";
    return 2;
  }
  const trace::Trace& trace = *loaded;
  std::cout << "loaded " << trace.size() << " events ("
            << trace.byte_size() / 1024 << " KiB)\n";

  obs::ObsContext obs_ctx;
  if (obs_cli.want_obs()) {
    opts.obs = &obs_ctx;
    std::string error;
    if (!obs_cli.activate(obs_ctx, &error)) {
      std::cerr << error << "\n";
      return 2;
    }
  }

  const auto wall0 = std::chrono::steady_clock::now();
  core::VaproSession session(trace.ranks(), opts);
  trace::replay(trace, session);
  const double replay_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  core::ReportOptions ropts;
  ropts.include_diagnosis = opts.run_diagnosis;
  std::cout << '\n' << core::render_report(session, ropts);

  if (opts.obs) {
    obs_ctx.overhead().set_run_wall_seconds(replay_wall_seconds);
    session.server().journal_detection_snapshot();
    const bool obs_write_ok = obs_cli.finish(obs_ctx);
    obs_cli.linger(obs_ctx);
    if (!obs_write_ok) return 1;
  }
  return 0;
}
