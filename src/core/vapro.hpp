// Public entry point of the Vapro library.
//
// Attach a VaproSession to a Simulator before running an application and
// read the detection/diagnosis results afterwards:
//
//   sim::Simulator simulator(config);
//   vapro::core::VaproSession vapro(simulator, {});
//   simulator.run(apps::cg({...}));
//   std::cout << vapro.detection_summary();
//   std::cout << vapro.diagnosis().summary();
//
// The session owns the client (interceptor) and the analysis server, and
// end_window() is the one window step (paper Fig 8): drain the client
// buffers, analyze the batch, and let the progressive diagnoser
// reconfigure the clients' PMU sets for the next window.  An attached
// session calls it every `window_seconds` of virtual time; a detached one
// (trace::replay) is fed and stepped by its caller.
#pragma once

#include <memory>
#include <string>

#include "src/core/client.hpp"
#include "src/core/server.hpp"
#include "src/obs/context.hpp"
#include "src/sim/runtime.hpp"

namespace vapro::core {

struct VaproOptions {
  StgMode stg_mode = StgMode::kContextFree;
  ClusterOptions cluster;
  DiagnosisOptions diagnosis;
  double variance_threshold = 0.85;
  double bin_seconds = 0.25;
  // Reporting period (the paper deploys 15 s; our simulated runs are
  // shorter, so the default window is denser).
  double window_seconds = 1.0;
  // Overlap between consecutive analysis windows (paper Fig 8) so
  // boundary-straddling clusters still find their twins.
  double window_overlap_seconds = 0.0;
  int analysis_threads = 1;
  // Analysis pipeline depth (ServerOptions::pipeline_depth): windows
  // admitted past process_window before the drain blocks.  1 = synchronous.
  int pipeline_depth = 1;
  bool run_diagnosis = true;
  SamplingPolicy sampling = SamplingPolicy::kNone;
  int sampling_warmup = 64;
  bool record_eval_pairs = false;
  int pmu_budget = 4;
  double pmu_jitter = 0.003;
  // When proxy metrics + stage counters exceed the budget, time-multiplex
  // the PMU (PAPI style) instead of dropping the proxies.  "Collecting
  // more performance metrics improves the precision of workload
  // representation but introduces extra overhead" (§3.4) — here the
  // overhead is inflated read error at reduced duty cycle.
  bool allow_multiplexing = false;
  std::uint64_t seed = 42;
  // Optional per-window hook (see ServerOptions::window_observer).
  std::function<void(const Stg&, const ClusteringResult&)> window_observer;
  // Self-telemetry (src/obs): pipeline metrics, per-window PipelineStats
  // snapshots (one stage-time array each), Chrome-trace spans, and
  // tool-vs-app overhead accounting across the whole client → server →
  // diagnoser path.  Null (the default) disables
  // every instrument; borrowed, must outlive the session.
  obs::ObsContext* obs = nullptr;
  // Wall-clock source for drain/stage timings (null = the process-wide
  // real clock); tests install a util::VirtualClock.  Borrowed.
  util::Clock* clock = nullptr;
  // --- external ingest transport (src/net service plane) ---
  // When `batch_transport` is set end_window() hands each drained batch
  // to the hook instead of an in-process server; the hook owns delivery
  // (e.g. a net::IngestClient over loopback).  The session then reads
  // detection/diagnosis results from `external_server`, the backend the
  // remote plane feeds — borrowed, must outlive the session.
  // `transport_sync` is called after each hand-off (when run_diagnosis)
  // so the PMU feedback loop observes the window's results before
  // reprogramming counters; it must block until the batch is applied.
  // core stays independent of src/net: the hooks are plain callables.
  std::function<void(FragmentBatch&&, double)> batch_transport;
  AnalysisServer* external_server = nullptr;
  std::function<void()> transport_sync;
};

// The ServerOptions a VaproSession would construct for its in-process
// server.  Transports that terminate on a remote AnalysisServer (the
// src/net ingest plane) build the backend from the same options so a
// networked run is configured identically to an in-process one.
ServerOptions server_options_from(const VaproOptions& opts,
                                  const pmu::MachineParams& machine,
                                  ClusterBaseline* shared_baseline = nullptr);

class VaproSession {
 public:
  // Attaches to `simulator`; detaches on destruction.  When
  // `shared_baseline` is given (MultiRunStudy), normalization minima are
  // read/updated there so runs compare against the best twin of any run.
  VaproSession(sim::Simulator& simulator, VaproOptions opts,
               ClusterBaseline* shared_baseline = nullptr);
  // Detached: nothing drives the session; the caller feeds client() and
  // calls end_window() (trace::replay).  Uses the default MachineParams.
  VaproSession(int ranks, VaproOptions opts);
  ~VaproSession();
  VaproSession(const VaproSession&) = delete;
  VaproSession& operator=(const VaproSession&) = delete;

  // Ends the current analysis window: drains the client into the server
  // (or `batch_transport`), syncs when diagnosis drives the PMU, and
  // reprograms the clients' counters for the next window.
  void end_window();
  const VaproOptions& options() const { return opts_; }

  // --- detection ---
  const Heatmap& computation_map() const {
    return analysis_->computation_map();
  }
  const Heatmap& communication_map() const {
    return analysis_->communication_map();
  }
  const Heatmap& io_map() const { return analysis_->io_map(); }
  std::vector<VarianceRegion> locate(FragmentKind kind) const {
    return analysis_->locate(kind);
  }
  // Human-readable report: per-category variance regions with quantified
  // loss, ordered by impact (paper Fig 2 step 7).
  std::string detection_summary() const;

  // --- diagnosis ---
  const DiagnosisReport& diagnosis() const { return analysis_->diagnosis(); }
  // Restart diagnosis focused on a user-selected heat-map region (§3.5);
  // subsequent windows attribute only that region's abnormal fragments.
  void refocus_diagnosis(std::optional<FocusRegion> focus) {
    analysis_->refocus_diagnosis(std::move(focus));
  }
  // Rare-but-expensive execution paths (Algorithm 1 line 8).
  const std::vector<RareFinding>& rare_findings() const {
    return analysis_->rare_findings();
  }

  // --- coverage / overhead bookkeeping (Table 1) ---
  // `total_execution_seconds` = Σ per-rank wall time of the run.
  double coverage(double total_execution_seconds) const {
    return analysis_->coverage().coverage(total_execution_seconds);
  }
  const CoverageAccumulator& coverage_accumulator() const {
    return analysis_->coverage();
  }
  std::uint64_t bytes_recorded() const { return client_->bytes_recorded(); }
  std::uint64_t fragments_recorded() const {
    return client_->fragments_recorded();
  }
  std::uint64_t invocations_sampled_out() const {
    return client_->invocations_sampled_out();
  }

  // --- evaluation (Table 2) ---
  stats::VMeasure clustering_quality() const {
    return analysis_->clustering_quality();
  }

  const AnalysisServer& server() const { return *analysis_; }
  const VaproClient& client() const { return *client_; }
  VaproClient& client() { return *client_; }

 private:
  VaproSession(int ranks, VaproOptions opts,
               const pmu::MachineParams& machine,
               ClusterBaseline* shared_baseline);
  // Programs the counters the diagnosis stage needs plus the proxy
  // metrics, multiplexing (or dropping the proxies) when over budget.
  void reprogram_counters();

  sim::Simulator* simulator_ = nullptr;  // null when detached
  VaproOptions opts_;
  std::unique_ptr<VaproClient> client_;
  std::unique_ptr<AnalysisServer> server_;  // null when transport-attached
  AnalysisServer* analysis_ = nullptr;      // server_ or external_server
  std::uint64_t periodic_id_ = 0;
};

}  // namespace vapro::core
