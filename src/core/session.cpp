#include <algorithm>
#include <sstream>

#include "src/core/vapro.hpp"
#include "src/util/clock.hpp"
#include "src/util/log.hpp"
#include "src/util/table.hpp"

namespace vapro::core {

ServerOptions server_options_from(const VaproOptions& opts,
                                  const pmu::MachineParams& machine,
                                  ClusterBaseline* shared_baseline) {
  ServerOptions sopts;
  sopts.stg_mode = opts.stg_mode;
  sopts.cluster = opts.cluster;
  sopts.diagnosis = opts.diagnosis;
  sopts.machine = machine;
  sopts.variance_threshold = opts.variance_threshold;
  sopts.bin_seconds = opts.bin_seconds;
  sopts.window_overlap_seconds = opts.window_overlap_seconds;
  sopts.analysis_threads = opts.analysis_threads;
  sopts.pipeline_depth = opts.pipeline_depth;
  sopts.run_diagnosis = opts.run_diagnosis;
  sopts.record_eval_pairs = opts.record_eval_pairs;
  sopts.window_observer = opts.window_observer;
  sopts.shared_baseline = shared_baseline;
  sopts.obs = opts.obs;
  sopts.clock = opts.clock;
  return sopts;
}

VaproSession::VaproSession(sim::Simulator& simulator, VaproOptions opts,
                           ClusterBaseline* shared_baseline)
    : VaproSession(simulator.config().ranks, std::move(opts),
                   simulator.config().machine, shared_baseline) {
  simulator_ = &simulator;
  simulator_->set_interceptor(client_.get());
  periodic_id_ = simulator_->add_periodic(opts_.window_seconds,
                                          [this](double) { end_window(); });
}

VaproSession::VaproSession(int ranks, VaproOptions opts)
    : VaproSession(ranks, std::move(opts), pmu::MachineParams{}, nullptr) {}

VaproSession::VaproSession(int ranks, VaproOptions opts,
                           const pmu::MachineParams& machine,
                           ClusterBaseline* shared_baseline)
    : opts_(std::move(opts)) {
  ClientOptions copts;
  copts.stg_mode = opts_.stg_mode;
  copts.pmu_budget = opts_.pmu_budget;
  copts.pmu_jitter = opts_.pmu_jitter;
  copts.sampling = opts_.sampling;
  copts.sampling_warmup = opts_.sampling_warmup;
  copts.seed = opts_.seed;
  copts.obs = opts_.obs;
  client_ = std::make_unique<VaproClient>(ranks, copts);

  if (opts_.batch_transport) {
    // Transport-attached: batches travel through the hook (typically the
    // src/net ingest plane) and land on the caller-owned backend.
    analysis_ = opts_.external_server;
  } else {
    server_ = std::make_unique<AnalysisServer>(
        ranks, server_options_from(opts_, machine, shared_baseline));
    analysis_ = server_.get();
  }
  // Stage-1 counters must be live from the start.
  reprogram_counters();
}

VaproSession::~VaproSession() {
  if (simulator_ == nullptr) return;
  simulator_->set_interceptor(nullptr);
  simulator_->remove_periodic(periodic_id_);
}

void VaproSession::reprogram_counters() {
  // User-specified proxy metrics (§3.4: "users are able to specify other
  // PMU metrics") ride along with whatever the diagnosis stage needs —
  // they must fit the programmable budget together.
  std::vector<pmu::Counter> wanted = analysis_->counters_needed();
  for (pmu::Counter proxy : opts_.cluster.proxies) {
    if (pmu::is_free_counter(proxy)) continue;
    if (std::find(wanted.begin(), wanted.end(), proxy) == wanted.end())
      wanted.push_back(proxy);
  }
  if (client_->configure_counters(wanted)) return;
  if (opts_.allow_multiplexing) {
    client_->configure_counters_multiplexed(wanted);
    return;
  }
  // Once per window the over-budget set is retried; rate-limit the
  // complaint so long runs don't get one line per window.
  VAPRO_LOG_TAG_EVERY_N(::vapro::util::LogLevel::kWarn, "session", 32)
      << "proxy metrics + stage counters exceed the PMU budget; "
         "raise pmu_budget or set allow_multiplexing";
  client_->configure_counters(analysis_->counters_needed());
}

void VaproSession::end_window() {
  // The drain is timed separately: it becomes the Stage::kDrain slot of
  // this window's PipelineStats snapshot.
  util::Clock* clock = opts_.clock ? opts_.clock : util::real_clock();
  const double t0 = clock->now_seconds();
  FragmentBatch batch = client_->drain();
  const double drain_seconds = opts_.obs ? clock->now_seconds() - t0 : 0.0;
  if (opts_.batch_transport) {
    opts_.batch_transport(std::move(batch), drain_seconds);
  } else {
    server_->process_window(std::move(batch), drain_seconds);
  }
  // Progressive diagnosis may have moved to a finer stage; reprogram the
  // clients' PMU sets for the next window.  With a pipelined server the
  // window may still be in flight — sync first so the PMU feedback loop
  // sees exactly the serial run's state.  Without diagnosis the counter
  // demand is constant, so the pipeline keeps its overlap.
  if (opts_.run_diagnosis) {
    if (opts_.transport_sync) {
      opts_.transport_sync();
    } else if (server_) {
      server_->sync();
    }
  }
  reprogram_counters();
}

std::string VaproSession::detection_summary() const {
  std::ostringstream oss;
  static constexpr FragmentKind kKinds[] = {FragmentKind::kComputation,
                                            FragmentKind::kCommunication,
                                            FragmentKind::kIo};
  bool any = false;
  for (FragmentKind kind : kKinds) {
    auto regions = locate(kind);
    if (regions.empty()) continue;
    any = true;
    oss << fragment_kind_name(kind) << " variance regions (impact-ordered):\n";
    const double bin = opts_.bin_seconds;
    std::size_t shown = 0;
    for (const VarianceRegion& r : regions) {
      if (++shown > 8) {
        oss << "  ... " << regions.size() - 8 << " more\n";
        break;
      }
      oss << "  ranks " << r.rank_lo << "-" << r.rank_hi << ", t=["
          << util::fmt(r.time_lo(bin), 2) << "s, " << util::fmt(r.time_hi(bin), 2)
          << "s): mean normalized performance " << util::fmt(r.mean_perf, 3)
          << " (" << util::fmt((1.0 - r.mean_perf) * 100.0, 1)
          << "% loss), impact " << util::fmt(r.impact_seconds, 3)
          << " fragment-seconds\n";
    }
  }
  if (!any) oss << "no variance regions detected\n";
  return oss.str();
}

}  // namespace vapro::core
