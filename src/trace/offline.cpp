#include "src/trace/offline.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace vapro::trace {

OfflineSession::OfflineSession(const Trace& trace, OfflineOptions opts) {
  // The rank count is whatever the trace contains.
  int max_rank = 0;
  for (const TraceEvent& ev : trace.events())
    max_rank = std::max(max_rank, ev.info.rank);
  const int ranks = max_rank + 1;

  core::ClientOptions copts;
  copts.stg_mode = opts.stg_mode;
  copts.pmu_budget = opts.pmu_budget;
  copts.pmu_jitter = opts.pmu_jitter;
  copts.seed = opts.seed;
  copts.obs = opts.obs;
  client_ = std::make_unique<core::VaproClient>(ranks, copts);

  core::ServerOptions sopts;
  sopts.stg_mode = opts.stg_mode;
  sopts.cluster = opts.cluster;
  sopts.diagnosis = opts.diagnosis;
  sopts.machine = opts.machine;
  sopts.variance_threshold = opts.variance_threshold;
  sopts.bin_seconds = opts.bin_seconds;
  sopts.analysis_threads = opts.analysis_threads;
  sopts.pipeline_depth = opts.pipeline_depth;
  sopts.run_diagnosis = opts.run_diagnosis;
  sopts.record_eval_pairs = opts.record_eval_pairs;
  sopts.obs = opts.obs;
  server_ = std::make_unique<core::AnalysisServer>(ranks, sopts);

  client_->configure_counters(server_->counters_needed());
  TraceReplayer replayer(trace);
  const bool sync_for_pmu = opts.run_diagnosis;
  replayer.replay_windowed(
      *client_, opts.window_seconds, [this, sync_for_pmu](double) {
        server_->process_window(client_->drain());
        // Same PMU feedback rule as the live session: reprogramming must
        // observe the analyzed window when diagnosis drives the counters.
        if (sync_for_pmu) server_->sync();
        client_->configure_counters(server_->counters_needed());
      });
  // Results are promised ready after construction.
  server_->sync();
}

}  // namespace vapro::trace
