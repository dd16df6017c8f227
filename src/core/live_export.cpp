#include "src/core/live_export.hpp"

#include <algorithm>
#include <sstream>

namespace vapro::core {

namespace {
constexpr FragmentKind kAllKinds[] = {FragmentKind::kComputation,
                                      FragmentKind::kCommunication,
                                      FragmentKind::kIo};
}  // namespace

LiveDetection::LiveDetection(int ranks, double bin_seconds, double threshold)
    : threshold_(threshold),
      maps_{Heatmap(ranks, bin_seconds), Heatmap(ranks, bin_seconds),
            Heatmap(ranks, bin_seconds)},
      caches_{RegionCache(threshold), RegionCache(threshold),
              RegionCache(threshold)} {}

std::uint64_t LiveDetection::refused_deposits() const {
  std::uint64_t refused = 0;
  for (const Heatmap& map : maps_) refused += map.refused_deposits();
  return refused;
}

const std::vector<VarianceRegion>& LiveDetection::locate(FragmentKind kind) {
  const int k = static_cast<int>(kind);
  caches_[k].update(maps_[k]);
  return caches_[k].regions();
}

void LiveDetection::publish(obs::ObsContext& obs,
                            const CoverageAccumulator& coverage,
                            std::int64_t window, double virtual_time,
                            std::vector<obs::JournalField> extra) {
  double worst_cell = 1.0;
  double worst_region_perf = 1.0;
  std::size_t region_count = 0, relabeled_cells = 0, heatmap_cells = 0;
  for (FragmentKind kind : kAllKinds) {
    const int k = static_cast<int>(kind);
    for (const VarianceRegion& r : locate(kind))
      if (r.mean_perf > 0.0)
        worst_region_perf = std::min(worst_region_perf, r.mean_perf);
    worst_cell = std::min(worst_cell, caches_[k].worst_cell());
    region_count += caches_[k].regions().size();
    relabeled_cells += caches_[k].relabeled_cells();
    heatmap_cells += maps_[k].allocated_cells();
  }
  const double variance_ratio =
      worst_region_perf > 0.0 ? 1.0 / worst_region_perf : 1.0;
  const double observed = coverage.observed_total();
  const double covered =
      observed > 0.0 ? coverage.covered_total() / observed : 0.0;

  obs::MetricsRegistry& metrics = obs.metrics();
  metrics.gauge("vapro.detect.worst_cell")->set(worst_cell);
  metrics.gauge("vapro.detect.region_count")
      ->set(static_cast<double>(region_count));
  metrics.gauge("vapro.detect.coverage")->set(covered);
  metrics.gauge("vapro.detect.variance_ratio")->set(variance_ratio);
  // Cost gauges only, never journaled.
  metrics.gauge("vapro.detect.relabeled_cells")
      ->set(static_cast<double>(relabeled_cells));
  metrics.gauge("vapro.detect.heatmap_cells")
      ->set(static_cast<double>(heatmap_cells));

  obs::Journal* journal = obs.journal();
  if (!journal) return;
  for (FragmentKind kind : kAllKinds)
    journal_regions(*journal, kind, window, virtual_time,
                    /*final_snapshot=*/false);
  std::vector<obs::JournalField> fields = std::move(extra);
  fields.push_back(obs::JournalField::num("worst_cell", worst_cell));
  fields.push_back(obs::JournalField::num(
      "region_count", static_cast<std::uint64_t>(region_count)));
  fields.push_back(obs::JournalField::num("coverage", covered));
  fields.push_back(obs::JournalField::num("variance_ratio", variance_ratio));
  journal->emit("window", window, virtual_time, std::move(fields));
}

void LiveDetection::journal_snapshot(obs::Journal& journal,
                                     std::int64_t window,
                                     double virtual_time) {
  for (FragmentKind kind : kAllKinds) {
    locate(kind);
    journal_regions(journal, kind, window, virtual_time,
                    /*final_snapshot=*/true);
  }
}

void LiveDetection::journal_regions(obs::Journal& journal, FragmentKind kind,
                                    std::int64_t window, double virtual_time,
                                    bool final_snapshot) {
  const int k = static_cast<int>(kind);
  const std::vector<VarianceRegion>& regions = caches_[k].regions();
  const double bin_seconds = maps_[k].bin_seconds();
  std::vector<Box> boxes;
  boxes.reserve(regions.size());
  for (const VarianceRegion& r : regions)
    boxes.push_back({r.rank_lo, r.rank_hi, r.bin_lo, r.bin_hi});
  // Per-window calls dedup on the bounding-box set; a final snapshot
  // always re-emits at full precision so replay needs no event history.
  if (!final_snapshot && boxes == boxes_[k]) return;
  if (final_snapshot && regions.empty() && revision_[k] == 0)
    return;  // never saw a region in this category — nothing to record
  boxes_[k] = std::move(boxes);
  const std::uint64_t revision = ++revision_[k];
  if (regions.empty()) {
    journal.emit("variance_clear", window, virtual_time,
                 {obs::JournalField::str("kind", fragment_kind_name(kind)),
                  obs::JournalField::num("revision", revision),
                  obs::JournalField::boolean("final", final_snapshot)});
    return;
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const VarianceRegion& r = regions[i];
    journal.emit(
        "variance_region", window, virtual_time,
        {obs::JournalField::str("kind", fragment_kind_name(kind)),
         obs::JournalField::num("revision", revision),
         obs::JournalField::num("index", static_cast<std::uint64_t>(i)),
         obs::JournalField::num("count",
                                static_cast<std::uint64_t>(regions.size())),
         obs::JournalField::num("rank_lo", static_cast<std::int64_t>(r.rank_lo)),
         obs::JournalField::num("rank_hi", static_cast<std::int64_t>(r.rank_hi)),
         obs::JournalField::num("bin_lo", static_cast<std::int64_t>(r.bin_lo)),
         obs::JournalField::num("bin_hi", static_cast<std::int64_t>(r.bin_hi)),
         obs::JournalField::num("cells", static_cast<std::uint64_t>(r.cells)),
         obs::JournalField::num("mean_perf", r.mean_perf),
         obs::JournalField::num("impact_seconds", r.impact_seconds),
         obs::JournalField::num("bin_seconds", bin_seconds),
         obs::JournalField::boolean("final", final_snapshot)});
  }
}

std::string LiveDetection::heatmap_json() const {
  std::ostringstream oss;
  oss << "{\"ranks\":" << maps_[0].ranks()
      << ",\"bin_seconds\":" << obs::json_number(maps_[0].bin_seconds())
      << ",\"maps\":{";
  for (int k = 0; k < 3; ++k) {
    if (k) oss << ',';
    const Heatmap& map = maps_[k];
    oss << '"' << fragment_kind_name(static_cast<FragmentKind>(k))
        << "\":{\"bins\":" << map.bins() << ",\"cells\":[";
    bool first = true;
    for (int rank = 0; rank < map.ranks(); ++rank)
      for (int bin = 0; bin < map.bins(); ++bin) {
        if (!map.has_data(rank, bin)) continue;
        if (!first) oss << ',';
        first = false;
        // [rank, bin, mean normalized perf, fragment-seconds of weight]
        oss << '[' << rank << ',' << bin << ','
            << obs::json_number(map.cell(rank, bin)) << ','
            << obs::json_number(map.weight(rank, bin)) << ']';
      }
    oss << "]}";
  }
  oss << "}}";
  return oss.str();
}

std::string regions_json(const std::vector<VarianceRegion> regions[3],
                         double bin_seconds) {
  std::ostringstream oss;
  oss << '{';
  for (int k = 0; k < 3; ++k) {
    if (k) oss << ',';
    oss << '"' << fragment_kind_name(static_cast<FragmentKind>(k)) << "\":[";
    bool first = true;
    for (const VarianceRegion& r : regions[k]) {
      if (!first) oss << ',';
      first = false;
      oss << "{\"rank_lo\":" << r.rank_lo << ",\"rank_hi\":" << r.rank_hi
          << ",\"t_lo\":" << obs::json_number(r.time_lo(bin_seconds))
          << ",\"t_hi\":" << obs::json_number(r.time_hi(bin_seconds))
          << ",\"mean_perf\":" << obs::json_number(r.mean_perf)
          << ",\"impact_seconds\":" << obs::json_number(r.impact_seconds)
          << ",\"cells\":" << r.cells << '}';
    }
    oss << ']';
  }
  oss << '}';
  return oss.str();
}

std::string LiveDetection::variance_json(std::size_t windows,
                                         double virtual_time) {
  std::vector<VarianceRegion> regions[3];
  for (FragmentKind kind : kAllKinds)
    regions[static_cast<int>(kind)] = locate(kind);
  const double bin_seconds = maps_[0].bin_seconds();
  std::ostringstream oss;
  oss << "{\"windows\":" << windows
      << ",\"virtual_time\":" << obs::json_number(virtual_time)
      << ",\"bin_seconds\":" << obs::json_number(bin_seconds)
      << ",\"threshold\":" << obs::json_number(threshold_)
      << ",\"regions\":" << regions_json(regions, bin_seconds) << '}';
  return oss.str();
}

void remove_live_routes(obs::ObsContext& obs) {
  if (obs::ExpositionServer* http = obs.exposition())
    for (const char* path : kLiveRoutes) http->remove_route(path);
}

}  // namespace vapro::core
