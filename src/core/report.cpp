#include "src/core/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/fs.hpp"
#include "src/util/table.hpp"

namespace vapro::core {

namespace {

const char* color_for(double perf) {
  // 256-color ANSI ramp: red (slow) → yellow → green (fast).
  if (perf < 0.4) return "\x1b[48;5;160m";
  if (perf < 0.6) return "\x1b[48;5;202m";
  if (perf < 0.85) return "\x1b[48;5;220m";
  if (perf < 0.95) return "\x1b[48;5;112m";
  return "\x1b[48;5;28m";
}

void append_category(std::ostringstream& oss, const VaproSession& session,
                     FragmentKind kind, const Heatmap& map,
                     const ReportOptions& opts, double bin_seconds) {
  auto regions = session.locate(kind);
  oss << "\n## " << fragment_kind_name(kind) << "\n";
  if (opts.include_heatmaps && map.bins() > 0) {
    oss << (opts.ansi_color
                ? render_ansi(map, opts.heatmap_rows, opts.heatmap_cols)
                : map.render_ascii(opts.heatmap_rows, opts.heatmap_cols));
  }
  oss << render_region_table(regions, bin_seconds);
}

}  // namespace

std::string render_region_table(const std::vector<VarianceRegion>& regions,
                                double bin_seconds, std::size_t limit) {
  std::ostringstream oss;
  if (regions.empty()) {
    oss << "no variance regions\n";
    return oss.str();
  }
  util::TextTable table(
      {"ranks", "t_lo(s)", "t_hi(s)", "mean perf", "loss%", "impact(frag·s)"});
  std::size_t shown = 0;
  for (const auto& r : regions) {
    if (++shown > limit) break;
    table.add_row({std::to_string(r.rank_lo) + "-" + std::to_string(r.rank_hi),
                   util::fmt(r.time_lo(bin_seconds), 2),
                   util::fmt(r.time_hi(bin_seconds), 2),
                   util::fmt(r.mean_perf, 3),
                   util::fmt(100 * (1 - r.mean_perf), 1),
                   util::fmt(r.impact_seconds, 3)});
  }
  table.print(oss);
  if (regions.size() > limit)
    oss << "(" << regions.size() - limit << " smaller regions omitted)\n";
  return oss.str();
}

std::string render_rare_table(const std::vector<RareFinding>& findings,
                              std::size_t limit) {
  std::ostringstream oss;
  util::TextTable table({"state", "kind", "execs", "total(s)", "longest(s)"});
  std::size_t shown = 0;
  for (const auto& f : findings) {
    if (++shown > limit) break;
    table.add_row({f.state, fragment_kind_name(f.kind),
                   std::to_string(f.executions), util::fmt(f.total_seconds, 3),
                   util::fmt(f.longest_seconds, 3)});
  }
  table.print(oss);
  return oss.str();
}

std::string render_ansi(const Heatmap& map, int max_rows, int max_cols) {
  std::ostringstream oss;
  const int row_step = std::max(1, (map.ranks() + max_rows - 1) / max_rows);
  const int col_step = std::max(1, (map.bins() + max_cols - 1) / max_cols);
  oss << "ranks 0-" << map.ranks() - 1 << ", " << map.bins() << " bins of "
      << map.bin_seconds() << "s (red=slow, green=fast, '.'=no data)\n";
  for (int r0 = 0; r0 < map.ranks(); r0 += row_step) {
    for (int b0 = 0; b0 < map.bins(); b0 += col_step) {
      double num = 0.0, den = 0.0;
      for (int r = r0; r < std::min(map.ranks(), r0 + row_step); ++r) {
        for (int b = b0; b < std::min(map.bins(), b0 + col_step); ++b) {
          if (!map.has_data(r, b)) continue;
          num += map.cell(r, b) * map.weight(r, b);
          den += map.weight(r, b);
        }
      }
      if (den <= 0.0) {
        oss << '.';
      } else {
        oss << color_for(num / den) << ' ' << "\x1b[0m";
      }
    }
    oss << '\n';
  }
  return oss.str();
}

std::string render_report(const VaproSession& session,
                          const ReportOptions& opts) {
  std::ostringstream oss;
  oss << "# Vapro report\n";
  oss << "fragments recorded: " << session.fragments_recorded()
      << "  (~" << session.bytes_recorded() / 1024 << " KiB)\n";
  oss << "analysis windows: " << session.server().windows_processed() << "\n";

  const double bin = session.computation_map().bin_seconds();
  append_category(oss, session, FragmentKind::kComputation,
                  session.computation_map(), opts, bin);
  append_category(oss, session, FragmentKind::kCommunication,
                  session.communication_map(), opts, bin);
  append_category(oss, session, FragmentKind::kIo, session.io_map(), opts,
                  bin);

  if (opts.include_rare_findings && !session.rare_findings().empty()) {
    oss << "\n## rare execution paths (check manually — Algorithm 1 line 8)\n";
    oss << render_rare_table(session.rare_findings());
  }

  if (opts.include_diagnosis) {
    oss << "\n## diagnosis\n" << session.diagnosis().summary() << '\n';
  }
  return oss.str();
}

int write_csv_bundle(const VaproSession& session,
                     const std::string& directory) {
  if (!util::ensure_dir(directory)) return 0;
  const std::string dir = directory + "/";
  int written = 0;
  written += session.computation_map().write_csv(dir + "computation.csv");
  written += session.communication_map().write_csv(dir + "communication.csv");
  written += session.io_map().write_csv(dir + "io.csv");
  return written;
}

}  // namespace vapro::core
