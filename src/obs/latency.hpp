// Per-window critical-path attribution — the self-diagnosis reducer.
//
// Every analyzed window's PipelineStats says where its wall time went
// across the canonical stages (src/obs/pipeline.hpp).  Its verdict is
// bound_by(): "window N was bound by stage X for Y ms", with ties broken
// toward the earlier stage in canonical order so attribution is
// deterministic.
//
// CriticalPathTracker folds snapshots into (a) a bounded ring of recent
// windows (served raw at /v1/latency) and (b) cumulative per-stage totals
// plus bound-window counts (served at /v1/critical_path).  Snapshots are
// journaled as `window_latency` events and the final totals as one
// `critical_path` event — both new (reader-skippable) v2 event types — so
// `vapro_replay --from-journal` re-renders the same tables byte-for-byte:
// the shared renderers below are the single source of the output text, and
// json_number (journal.hpp), which both the journal and these renderers
// write with, round-trips every double bit-exactly.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/obs/pipeline.hpp"

namespace vapro::obs {

class CriticalPathTracker {
 public:
  static constexpr std::size_t kDefaultKeep = 64;
  explicit CriticalPathTracker(std::size_t keep = kDefaultKeep)
      : keep_(keep == 0 ? 1 : keep) {}

  // Thread-safe; records arrive in window order (single analysis worker).
  void record(const PipelineStats& stats);

  struct Summary {
    std::uint64_t windows = 0;
    double total_seconds = 0.0;  // sum of the window totals
    std::array<double, kStageCount> stage_seconds{};
    // How many windows each stage dominated.
    std::array<std::uint64_t, kStageCount> bound_windows{};
    // Stage that dominated the most windows (ties → earlier stage);
    // kStageCount when no window was recorded yet.
    std::size_t dominant_stage() const;
  };

  // Last `keep` snapshots, oldest first.
  std::vector<PipelineStats> recent() const;
  Summary summary() const;

 private:
  const std::size_t keep_;
  mutable std::mutex mu_;
  std::deque<PipelineStats> recent_;
  Summary sum_;
};

// --- shared renderers (live endpoints AND journal replay) -----------------

// /v1/latency: {"windows":N,"recent":[{...one object per window...}]}.
std::string render_latency_json(const std::vector<PipelineStats>& recent,
                                const CriticalPathTracker::Summary& sum);
// /v1/critical_path: per-stage totals, bound-window counts, the dominant
// stage, and one {"window":n,"bound_by":...} verdict per recent window.
std::string render_critical_path_json(
    const std::vector<PipelineStats>& recent,
    const CriticalPathTracker::Summary& sum);
// Human table for reports: one "window N was bound by X for Y ms" line per
// recent window plus the per-stage totals footer.
std::string render_critical_path_table(
    const std::vector<PipelineStats>& recent,
    const CriticalPathTracker::Summary& sum);

// --- journal round-trip ---------------------------------------------------

// One `window_latency` event carrying the window's stage times.
void journal_window_latency(Journal& journal, const PipelineStats& stats);
// One terminal `critical_path` event carrying the summary totals.
void journal_critical_path(Journal& journal, std::int64_t last_window,
                           double virtual_time,
                           const CriticalPathTracker::Summary& sum);
// Folds a `window_latency` event back into a snapshot holding the window,
// its virtual time and its stage times (replay side).
PipelineStats window_latency_from_event(const JournalEvent& event);

}  // namespace vapro::obs
