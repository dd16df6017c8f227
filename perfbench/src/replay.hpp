// Layer-by-layer replay of the analysis server's window body through the
// library's public free functions, timed from outside:
//
//   Stg::touch_vertex / adopt_fragments   -> stg
//   cluster_stg_parallel                  -> clustering
//   normalize_fragments                   -> detection (normalize)
//   CoverageAccumulator::add              -> detection (coverage)
//   deposit_fragments                     -> heatmap (deposit)
//   ProgressiveDiagnoser::feed            -> diagnosis   (when enabled)
//   find_variance_regions x3              -> heatmap (regions; per window
//                                            only when the server publishes
//                                            live detection)
//   Stg::clear_fragments                  -> stg
//
// Fed the same batches as an AnalysisServer with the same options, its
// final region table must equal AnalysisServer::locate() — matches() is
// that check, and it is what makes the per-layer split describe the same
// work as the end-to-end run.
//
// Server steps with no public free-function equivalent are not replayed:
// the rare-path finding list (Algorithm 1 line 8 reporting), the
// detection-health gauges and journal emission of publish_detection, and
// the pipeline hand-off itself (read from pipeline_breakdown() instead).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "src/core/server.hpp"
#include "src/util/pipeline.hpp"

namespace perfbench {

struct LayerSeconds {
  double stg = 0.0;
  double clustering = 0.0;
  double normalize = 0.0;
  double coverage = 0.0;
  double deposit = 0.0;
  double diagnosis = 0.0;
  double regions = 0.0;
  int region_passes = 0;  // each pass = all three maps
};

class Replayer {
 public:
  // `regions_every_window` mirrors a server with obs + live detection on.
  Replayer(int ranks, const vapro::core::ServerOptions& opts,
           bool regions_every_window, Tracer* tracer);
  ~Replayer();

  // Replays one window; the batch is consumed like process_window's.
  void window(vapro::core::FragmentBatch batch);

  // Counters the replayed diagnoser wants next (drives the client in the
  // app replay exactly as the server's diagnoser drives the session).
  std::vector<vapro::pmu::Counter> counters_needed() const {
    return diagnoser_.counters_needed();
  }

  // Final region pass (timed as one region pass) and comparison with the
  // server's locate() for every fragment kind.  False with `why` set on the
  // first difference.
  bool matches(const std::vector<vapro::core::VarianceRegion> server[3],
               std::string* why);

  const LayerSeconds& seconds() const { return seconds_; }
  long windows() const { return windows_; }
  const vapro::core::Stg& stg() const { return stg_; }
  const vapro::core::ClusterBaseline& baseline() const { return baseline_; }
  const vapro::core::CoverageAccumulator& coverage() const { return coverage_; }
  const vapro::core::Heatmap& computation_map() const { return maps_[0]; }
  double clusters_per_window() const;
  double rare_per_window() const;
  // Replayed window index after which the diagnoser first finished (0 when
  // it never did or diagnosis is off).
  long windows_to_verdict() const { return verdict_window_; }
  std::size_t final_regions() const { return final_regions_; }

 private:
  std::vector<vapro::core::VarianceRegion> regions(int kind);

  vapro::core::ServerOptions opts_;
  bool regions_every_window_;
  Tracer* tracer_;
  std::unique_ptr<vapro::util::WorkerPool> pool_;
  vapro::core::Stg stg_;
  vapro::core::ClusterBaseline baseline_;
  std::vector<vapro::core::Heatmap> maps_;  // computation, communication, io
  vapro::core::CoverageAccumulator coverage_;
  vapro::core::ProgressiveDiagnoser diagnoser_;
  LayerSeconds seconds_;
  long windows_ = 0;
  std::size_t clusters_ = 0;
  std::size_t rare_ = 0;
  long verdict_window_ = 0;
  std::size_t final_regions_ = 0;
};

}  // namespace perfbench
