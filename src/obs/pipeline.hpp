// Per-window pipeline snapshot emitted by the analysis server.
//
// One PipelineStats per processed window carries what the window ingested
// (fragments, carry-ins, new states), what the analysis produced (clusters,
// rare paths, diagnosis stage) and where its wall time went, one slot per
// canonical stage: queue wait → drain → STG growth → clustering →
// normalization → heat-map deposit → diagnosis → publish.  That array is
// the only record of a window's stage times: the stage histograms, the
// critical-path tracker (src/obs/latency), the journal's window_latency
// events and metrics.json all read it.  ObsContext keeps every snapshot in
// a CollectingSink for the metrics.json export.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace vapro::obs {

// The canonical stages, in pipeline order; the earlier stage wins ties in
// PipelineStats::bound_stage().
enum class Stage : std::size_t {
  kQueueWait,  // hand-off queue wait (submit → worker start); 0 when serial
  kDrain,      // client buffer hand-off
  kStg,        // vertex/edge growth + carry management
  kCluster,    // Algorithm 1 + rare-path scan
  kNormalize,  // detection pass (normalization, coverage, heat-map
               // deposit) + eval pairs
  kDeposit,    // about 0: the detection pass deposits; the slot keeps the
               // record's field names
  kDiagnose,   // progressive diagnoser + observer
  kPublish,    // metrics/gauges + journal/export
};
inline constexpr std::size_t kStageCount = 8;
static_assert(static_cast<std::size_t>(Stage::kPublish) + 1 == kStageCount);
inline constexpr const char* kStageNames[kStageCount] = {
    "queue_wait", "drain",   "stg",      "cluster",
    "normalize",  "deposit", "diagnose", "publish"};

struct PipelineStats {
  std::size_t window = 0;            // 0-based window ordinal
  double virtual_time = 0.0;         // simulator time at the flush

  // --- volume ---
  std::size_t fragments_drained = 0;
  std::size_t carry_ins = 0;         // overlap fragments re-entered (Fig 8)
  std::size_t new_states = 0;        // STG vertices announced this window
  std::size_t clusters_formed = 0;
  std::size_t rare_clusters = 0;     // Algorithm 1 line 8 candidates
  // Lanes of the intra-window shard pool this window fanned out over (1 =
  // serial, including a window degraded by a "pipeline.shard" fault).
  std::size_t cluster_shards = 1;
  int diagnosis_stage = 0;           // stage after this window's feed

  // Wall seconds per stage, indexed by Stage.
  std::array<double, kStageCount> stage_seconds{};

  double& seconds(Stage s) {
    return stage_seconds[static_cast<std::size_t>(s)];
  }
  double seconds(Stage s) const {
    return stage_seconds[static_cast<std::size_t>(s)];
  }
  // Window total: all eight stages, the window's latency from hand-off to
  // published (/v1/latency, the critical-path table).
  double total_seconds() const;
  // Tool time: the total minus queue wait, which is overlap rather than
  // tool work (vapro.server.window_seconds, metrics.json).
  double tool_seconds() const;
  // Index of the dominant stage (first maximum in canonical order).
  std::size_t bound_stage() const;
  const char* bound_by() const { return kStageNames[bound_stage()]; }
  double bound_seconds() const { return stage_seconds[bound_stage()]; }
};

// Keeps every window's snapshot for the metrics.json export.
class CollectingSink {
 public:
  void on_window(const PipelineStats& stats);
  const std::vector<PipelineStats>& windows() const { return windows_; }
  // JSON array of window objects.
  std::string to_json() const;

 private:
  std::vector<PipelineStats> windows_;
};

}  // namespace vapro::obs
