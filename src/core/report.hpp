// Report generation (paper Fig 2 step 7, "Visualization").
//
// Renders a complete session result as text: per-category heat maps,
// impact-ordered variance regions with quantified loss, rare-path findings
// (Algorithm 1 line 8), the progressive diagnosis, and collection
// statistics.  `write_csv_bundle` dumps the machine-readable artifacts for
// external plotting.
#pragma once

#include <string>

#include "src/core/vapro.hpp"

namespace vapro::core {

struct ReportOptions {
  bool include_heatmaps = true;
  bool include_rare_findings = true;
  bool include_diagnosis = true;
  int heatmap_rows = 24;
  int heatmap_cols = 80;
  // ANSI color output for terminals (red = slow).
  bool ansi_color = false;
};

// The full human-readable report for a finished session.
std::string render_report(const VaproSession& session,
                          const ReportOptions& opts = {});

// Writes heat maps as CSV files under `directory`, creating it and its
// parents when missing: computation.csv, communication.csv, io.csv.
// Returns the file count.
int write_csv_bundle(const VaproSession& session,
                     const std::string& directory);

// ANSI rendering of one heat map ('█' blocks colored by performance).
std::string render_ansi(const Heatmap& map, int max_rows = 24,
                        int max_cols = 80);

// The impact-ordered variance-region table of one category (top `limit`
// regions) — shared by render_report and the journal replay path so both
// print byte-identical tables from the same region values.
std::string render_region_table(const std::vector<VarianceRegion>& regions,
                                double bin_seconds, std::size_t limit = 10);

// The rare-execution-path table (Algorithm 1 line 8), top `limit` rows.
std::string render_rare_table(const std::vector<RareFinding>& findings,
                              std::size_t limit = 10);

}  // namespace vapro::core
