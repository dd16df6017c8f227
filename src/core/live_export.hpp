// Live detection: the one publish path of a detecting server.
//
// A LiveDetection owns the three per-category heat maps (indexed by
// FragmentKind) and one RegionCache per map, and publishes what they
// show:
//
//  - per window, the vapro.detect.* gauges (worst normalized cell,
//    region count, fixed-workload coverage, worst-region slowdown ratio,
//    and the relabeled/allocated cell cost gauges), the revision-deduped
//    variance_region/variance_clear journal events (a category is
//    re-journaled only when its bounding boxes change), and the "window"
//    event whose health fields double as alert-rule metric names
//    (alerts.hpp);
//  - a final full-precision region snapshot for vapro_replay;
//  - the JSON bodies of /v1/heatmap and /v1/variance.
//
// An AnalysisServer deposits each window into its own LiveDetection's
// maps.  A ServerGroup root keeps a persistent one whose maps it re-merges
// from the leaves' maps, only from the lowest column any leaf wrote since
// the last refresh, so its caches re-label only that suffix too.  Both
// owners serve the same four /v1 routes through add_live_routes.
//
// Not thread-safe: owners serialize window processing and /v1 scrapes.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/detection.hpp"
#include "src/core/heatmap.hpp"
#include "src/obs/context.hpp"

namespace vapro::core {

class LiveDetection {
 public:
  LiveDetection(int ranks, double bin_seconds, double threshold);

  Heatmap& map(FragmentKind kind) { return maps_[static_cast<int>(kind)]; }
  const Heatmap& map(FragmentKind kind) const {
    return maps_[static_cast<int>(kind)];
  }

  // Deposits the three maps refused (Heatmap::refused_deposits).
  std::uint64_t refused_deposits() const;

  // Brings `kind`'s region cache up to date with its map and returns the
  // regions, in find_variance_regions order.
  const std::vector<VarianceRegion>& locate(FragmentKind kind);

  // One window's publish: gauges from the updated caches and `coverage`,
  // then, with a journal, the changed region sets and the "window" event
  // (`extra` first, then the health fields).
  void publish(obs::ObsContext& obs, const CoverageAccumulator& coverage,
               std::int64_t window, double virtual_time,
               std::vector<obs::JournalField> extra);

  // Final full-precision snapshot (final=true) of every category that
  // ever held a region, so replay needs no event history.
  void journal_snapshot(obs::Journal& journal, std::int64_t window,
                        double virtual_time);

  // JSON bodies for the /v1 routes.  Numbers go through obs::json_number,
  // like the journal.
  std::string heatmap_json() const;
  std::string variance_json(std::size_t windows, double virtual_time);

 private:
  // Journals `kind`'s regions if their bounding-box set changed since the
  // last call (always for a final snapshot), bumping its revision.
  void journal_regions(obs::Journal& journal, FragmentKind kind,
                       std::int64_t window, double virtual_time,
                       bool final_snapshot);

  struct Box {
    int rank_lo, rank_hi, bin_lo, bin_hi;
    bool operator==(const Box&) const = default;
  };
  double threshold_;
  Heatmap maps_[3];
  RegionCache caches_[3];
  std::uint64_t revision_[3] = {0, 0, 0};
  std::vector<Box> boxes_[3];
};

// The /v1 routes a live-detection owner serves, in the order of the
// render methods add_live_routes binds to them.
inline constexpr const char* kLiveRoutes[] = {
    "/v1/heatmap", "/v1/variance", "/v1/latency", "/v1/critical_path"};

// Registers kLiveRoutes on `obs`'s exposition server, each answered by the
// owner's render_*_json, and returns whether it did (false without a
// server).  The owner calls remove_live_routes before it is destroyed.
template <class Owner>
bool add_live_routes(obs::ObsContext& obs, const Owner& owner) {
  obs::ExpositionServer* http = obs.exposition();
  if (!http) return false;
  using Render = std::string (Owner::*)() const;
  const Render renders[] = {
      &Owner::render_heatmap_json, &Owner::render_variance_json,
      &Owner::render_latency_json, &Owner::render_critical_path_json};
  for (std::size_t i = 0; i < std::size(renders); ++i)
    http->add_route(kLiveRoutes[i], [&owner, render = renders[i]] {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = (owner.*render)();
      return r;
    });
  return true;
}
void remove_live_routes(obs::ObsContext& obs);

// The one JSON writer of region lists: {"computation":[...],
// "communication":[...],"io":[...]}, each region as "rank_lo"/"rank_hi"/
// "t_lo"/"t_hi"/"mean_perf"/"impact_seconds"/"cells".  /v1/variance and
// report_json (vapro_run --json) both embed it, so consumers parse one
// shape with the same digits.
std::string regions_json(const std::vector<VarianceRegion> regions[3],
                         double bin_seconds);

}  // namespace vapro::core
