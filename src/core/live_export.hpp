// Live detection surfaces shared by AnalysisServer and ServerGroup:
//
//  - DetectionHealth: the per-window health summary (worst normalized
//    cell, region count, fixed-workload coverage, worst-region slowdown
//    ratio) behind the vapro.detect.* gauges, the "window" journal event,
//    and the alert engine's window metrics;
//  - RegionJournal: revision-deduped variance_region/variance_clear
//    journal emission, so a region set is re-journaled only when its
//    bounding boxes change between windows;
//  - JSON renderers for the /v1/heatmap and /v1/variance HTTP routes, and
//    the region-list writer they share with report_json.
//
// A single server publishes from its own maps; a ServerGroup publishes the
// merged root view (its leaves are constructed with live_detection=false).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/detection.hpp"
#include "src/core/heatmap.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"

namespace vapro::core {

// All 3-arrays below are indexed by FragmentKind.

struct DetectionHealth {
  double worst_cell = 1.0;      // lowest normalized perf of any data cell
  std::size_t region_count = 0; // variance regions across all categories
  double coverage = 0.0;        // covered / observed fragment time
  double variance_ratio = 1.0;  // 1 / worst region mean_perf
  // Cost gauges only, never journaled: how many cells the caches'
  // last updates re-labeled, and how many cells the maps hold.
  std::size_t relabeled_cells = 0;
  std::size_t heatmap_cells = 0;
};

// Health of the maps as of their caches' last update.
DetectionHealth detection_health(const Heatmap* const maps[3],
                                 const RegionCache* const caches[3],
                                 const CoverageAccumulator& coverage);

// Sets the vapro.detect.* gauges from a health summary.
void publish_health_gauges(obs::MetricsRegistry& metrics,
                           const DetectionHealth& health);

// Emits the per-window "window" journal event: the health fields (whose
// keys double as alert-rule metric names — alerts.hpp) plus any
// caller-specific extras (fragment counts, diagnosis stage, ...).
void journal_window_event(obs::Journal& journal, std::int64_t window,
                          double virtual_time, const DetectionHealth& health,
                          std::vector<obs::JournalField> extra);

// Revision-deduped variance-region journal emission state; one instance
// per publishing server (single server or group root).
class RegionJournal {
 public:
  // Journals `kind`'s region list if its bounding-box set changed since
  // the last call (always for a final snapshot), bumping the category's
  // revision: one `variance_region` event per region, or one
  // `variance_clear` when a previously journaled set became empty.
  void emit(obs::Journal& journal, FragmentKind kind,
            const std::vector<VarianceRegion>& regions, std::int64_t window,
            double virtual_time, double bin_seconds, bool final_snapshot);

 private:
  struct Box {
    int rank_lo, rank_hi, bin_lo, bin_hi;
    bool operator==(const Box&) const = default;
  };
  std::uint64_t revision_[3] = {0, 0, 0};
  std::vector<Box> boxes_[3];
};

// The one JSON writer of region lists: {"computation":[...],
// "communication":[...],"io":[...]}, each region as "rank_lo"/"rank_hi"/
// "t_lo"/"t_hi"/"mean_perf"/"impact_seconds"/"cells".  /v1/variance and
// report_json (vapro_run --json) both embed it, so consumers parse one
// shape with the same digits.
std::string regions_json(const std::vector<VarianceRegion> regions[3],
                         double bin_seconds);

// JSON bodies for the /v1 routes.  Numbers go through obs::json_number,
// like the journal.
std::string render_heatmap_json(const Heatmap* const maps[3], int ranks,
                                double bin_seconds);
std::string render_variance_json(const std::vector<VarianceRegion> regions[3],
                                 std::size_t windows, double virtual_time,
                                 double bin_seconds, double threshold);

}  // namespace vapro::core
