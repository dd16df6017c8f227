// Offline analysis of a recorded trace: the same client + server pipeline
// as the live VaproSession, but fed from a Trace.  Lets users sweep
// analysis knobs (thresholds, STG mode, proxies) over one recorded run.
#pragma once

#include <memory>

#include "src/core/client.hpp"
#include "src/core/server.hpp"
#include "src/trace/trace.hpp"

namespace vapro::trace {

struct OfflineOptions {
  core::StgMode stg_mode = core::StgMode::kContextFree;
  core::ClusterOptions cluster;
  core::DiagnosisOptions diagnosis;
  pmu::MachineParams machine;
  double variance_threshold = 0.85;
  double bin_seconds = 0.25;
  double window_seconds = 1.0;
  int analysis_threads = 1;
  // Analysis pipeline depth (ServerOptions::pipeline_depth); replay drains
  // window N+1 while window N is analyzed.  1 = synchronous.
  int pipeline_depth = 1;
  bool run_diagnosis = true;
  bool record_eval_pairs = false;
  int pmu_budget = 4;
  // Offline reads are replays of recorded values: no extra jitter.
  double pmu_jitter = 0.0;
  std::uint64_t seed = 42;
  // Self-telemetry (src/obs) for the replayed pipeline; null disables.
  obs::ObsContext* obs = nullptr;
};

class OfflineSession {
 public:
  // Analyzes `trace` immediately; results are ready after construction.
  OfflineSession(const Trace& trace, OfflineOptions opts);

  const core::AnalysisServer& server() const { return *server_; }
  const core::Heatmap& computation_map() const {
    return server_->computation_map();
  }
  std::vector<core::VarianceRegion> locate(core::FragmentKind kind) const {
    return server_->locate(kind);
  }
  const core::DiagnosisReport& diagnosis() const {
    return server_->diagnosis();
  }
  const core::CoverageAccumulator& coverage() const {
    return server_->coverage();
  }
  std::uint64_t fragments_recorded() const {
    return client_->fragments_recorded();
  }

 private:
  std::unique_ptr<core::VaproClient> client_;
  std::unique_ptr<core::AnalysisServer> server_;
};

}  // namespace vapro::trace
