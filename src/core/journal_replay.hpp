// Journal re-ingestion: rebuild a run's detection/diagnosis conclusions
// from its event journal (src/obs/journal) instead of from raw traces.
//
// The journal records conclusions at full precision (%.17g), so a
// reconstructed summary prints character-identically to the original run:
// variance regions come from each category's highest-revision
// variance_region/variance_clear events (the final end-of-run snapshot, if
// the producer called journal_detection_snapshot), rare findings and
// diagnosis findings are replayed verbatim, and the culprit list comes
// from the diagnosis_finished event.  `vapro_replay --from-journal FILE`
// is the CLI entry point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/diagnosis.hpp"
#include "src/core/server.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/latency.hpp"

namespace vapro::core {

struct JournalSummary {
  bool ok = false;
  std::string error;

  std::uint64_t events = 0;          // journal events consumed
  std::size_t windows = 0;           // "window" events seen
  double virtual_time = 0.0;         // latest event virtual time
  double bin_seconds = 0.0;          // from the region events (0 if none)

  // Highest-revision region set per FragmentKind index.
  std::vector<VarianceRegion> regions[3];
  std::vector<RareFinding> rare_findings;
  DiagnosisReport diagnosis;
  bool diagnosis_finished = false;
  std::size_t pmu_reprograms = 0;
  std::size_t alerts = 0;

  // Self-diagnosis timing: window_latency events in journal order (each a
  // PipelineStats holding the window, its virtual time and its stage
  // times), plus whether a terminal critical_path event was seen.
  // render_journal_summary re-folds these through a CriticalPathTracker
  // with the live defaults, so the replayed table is byte-identical to the
  // producer's live view.
  std::vector<obs::PipelineStats> window_latency;
  std::size_t critical_path_events = 0;
};

// Folds a parsed event stream into a summary; `ok` is false only on
// structurally inconsistent input (e.g. a region event without a kind).
JournalSummary summarize_journal(const std::vector<obs::JournalEvent>& events);

// read_journal + summarize_journal; `ok` is false on read errors too.
JournalSummary summarize_journal_file(const std::string& path);

// Human-readable rendering mirroring render_report's region/rare tables
// and DiagnosisReport::summary().
std::string render_journal_summary(const JournalSummary& summary);

// Reverse of factor_name(); FactorId::kRoot when unknown.
FactorId factor_from_name(const std::string& name);

}  // namespace vapro::core
