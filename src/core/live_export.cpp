#include "src/core/live_export.hpp"

#include <algorithm>
#include <sstream>

namespace vapro::core {

DetectionHealth detection_health(const Heatmap* const maps[3],
                                 const RegionCache* const caches[3],
                                 const CoverageAccumulator& coverage) {
  DetectionHealth h;
  double worst_region_perf = 1.0;
  for (int k = 0; k < 3; ++k) {
    h.worst_cell = std::min(h.worst_cell, caches[k]->worst_cell());
    h.region_count += caches[k]->regions().size();
    for (const VarianceRegion& r : caches[k]->regions())
      if (r.mean_perf > 0.0)
        worst_region_perf = std::min(worst_region_perf, r.mean_perf);
    h.relabeled_cells += caches[k]->relabeled_cells();
    h.heatmap_cells += maps[k]->allocated_cells();
  }
  h.variance_ratio = worst_region_perf > 0.0 ? 1.0 / worst_region_perf : 1.0;
  const double observed = coverage.observed_total();
  h.coverage = observed > 0.0 ? coverage.covered_total() / observed : 0.0;
  return h;
}

void publish_health_gauges(obs::MetricsRegistry& metrics,
                           const DetectionHealth& health) {
  metrics.gauge("vapro.detect.worst_cell")->set(health.worst_cell);
  metrics.gauge("vapro.detect.region_count")
      ->set(static_cast<double>(health.region_count));
  metrics.gauge("vapro.detect.coverage")->set(health.coverage);
  metrics.gauge("vapro.detect.variance_ratio")->set(health.variance_ratio);
  metrics.gauge("vapro.detect.relabeled_cells")
      ->set(static_cast<double>(health.relabeled_cells));
  metrics.gauge("vapro.detect.heatmap_cells")
      ->set(static_cast<double>(health.heatmap_cells));
}

void journal_window_event(obs::Journal& journal, std::int64_t window,
                          double virtual_time, const DetectionHealth& health,
                          std::vector<obs::JournalField> extra) {
  std::vector<obs::JournalField> fields = std::move(extra);
  fields.push_back(obs::JournalField::num("worst_cell", health.worst_cell));
  fields.push_back(obs::JournalField::num(
      "region_count", static_cast<std::uint64_t>(health.region_count)));
  fields.push_back(obs::JournalField::num("coverage", health.coverage));
  fields.push_back(
      obs::JournalField::num("variance_ratio", health.variance_ratio));
  journal.emit("window", window, virtual_time, std::move(fields));
}

void RegionJournal::emit(obs::Journal& journal, FragmentKind kind,
                         const std::vector<VarianceRegion>& regions,
                         std::int64_t window, double virtual_time,
                         double bin_seconds, bool final_snapshot) {
  const int k = static_cast<int>(kind);
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

std::string render_heatmap_json(const Heatmap* const maps[3], int ranks,
                                double bin_seconds) {
  std::ostringstream oss;
  oss << "{\"ranks\":" << ranks
      << ",\"bin_seconds\":" << obs::json_number(bin_seconds)
      << ",\"maps\":{";
  for (int k = 0; k < 3; ++k) {
    if (k) oss << ',';
    const Heatmap& map = *maps[k];
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

std::string render_variance_json(const std::vector<VarianceRegion> regions[3],
                                 std::size_t windows, double virtual_time,
                                 double bin_seconds, double threshold) {
  std::ostringstream oss;
  oss << "{\"windows\":" << windows
      << ",\"virtual_time\":" << obs::json_number(virtual_time)
      << ",\"bin_seconds\":" << obs::json_number(bin_seconds)
      << ",\"threshold\":" << obs::json_number(threshold)
      << ",\"regions\":" << regions_json(regions, bin_seconds) << '}';
  return oss.str();
}

}  // namespace vapro::core
