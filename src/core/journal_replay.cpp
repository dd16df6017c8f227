#include "src/core/journal_replay.hpp"

#include <algorithm>
#include <sstream>

#include "src/core/breakdown.hpp"
#include "src/core/report.hpp"
#include "src/util/cli.hpp"

namespace vapro::core {

namespace {

constexpr FragmentKind kAllKinds[] = {FragmentKind::kComputation,
                                      FragmentKind::kCommunication,
                                      FragmentKind::kIo};

int kind_index(const std::string& name) {
  for (FragmentKind kind : kAllKinds)
    if (name == fragment_kind_name(kind)) return static_cast<int>(kind);
  return -1;
}

}  // namespace

FactorId factor_from_name(const std::string& name) {
  for (int i = 0; i < kFactorCount; ++i) {
    const FactorId id = static_cast<FactorId>(i);
    if (factor_name(id) == name) return id;
  }
  return FactorId::kRoot;
}

JournalSummary summarize_journal(
    const std::vector<obs::JournalEvent>& events) {
  JournalSummary s;
  std::uint64_t region_revision[3] = {0, 0, 0};
  for (const obs::JournalEvent& ev : events) {
    ++s.events;
    s.virtual_time = std::max(s.virtual_time, ev.virtual_time);
    if (ev.type == "window") {
      ++s.windows;
    } else if (ev.type == "variance_region" || ev.type == "variance_clear") {
      const int k = kind_index(ev.str("kind"));
      if (k < 0) {
        s.error = "event seq " + std::to_string(ev.seq) +
                  ": unknown region kind '" + ev.str("kind") + "'";
        return s;
      }
      // Only the highest revision per category survives — later events
      // supersede earlier snapshots of the same region set.
      const auto revision = static_cast<std::uint64_t>(ev.number("revision"));
      if (revision > region_revision[k]) {
        region_revision[k] = revision;
        s.regions[k].clear();
      }
      if (revision == region_revision[k] && ev.type == "variance_region") {
        VarianceRegion r;
        r.rank_lo = static_cast<int>(ev.number("rank_lo"));
        r.rank_hi = static_cast<int>(ev.number("rank_hi"));
        r.bin_lo = static_cast<int>(ev.number("bin_lo"));
        r.bin_hi = static_cast<int>(ev.number("bin_hi"));
        r.cells = static_cast<std::size_t>(ev.number("cells"));
        r.mean_perf = ev.number("mean_perf");
        r.impact_seconds = ev.number("impact_seconds");
        s.regions[k].push_back(r);
        s.bin_seconds = ev.number("bin_seconds", s.bin_seconds);
      }
    } else if (ev.type == "rare_finding") {
      RareFinding f;
      f.state = ev.str("state");
      const int k = kind_index(ev.str("kind"));
      f.kind = k >= 0 ? static_cast<FragmentKind>(k)
                      : FragmentKind::kComputation;
      f.executions = static_cast<std::size_t>(ev.number("executions"));
      f.total_seconds = ev.number("total_seconds");
      f.longest_seconds = ev.number("longest_seconds");
      f.window_start = ev.virtual_time;
      s.rare_findings.push_back(std::move(f));
    } else if (ev.type == "diagnosis_window") {
      s.diagnosis.total_variance_seconds += ev.number("variance_seconds");
    } else if (ev.type == "diagnosis_finding") {
      DiagnosisFinding f;
      f.id = factor_from_name(ev.str("factor"));
      f.stage = static_cast<int>(ev.number("stage"));
      f.contribution_seconds = ev.number("contribution_seconds");
      f.share = ev.number("share");
      f.duration_seconds = ev.number("duration_seconds");
      f.duration_share = ev.number("duration_share");
      f.major = ev.flag("major");
      s.diagnosis.findings.push_back(f);
    } else if (ev.type == "diagnosis_finished") {
      s.diagnosis_finished = true;
      s.diagnosis.culprits.clear();
      for (const std::string& name : util::split(ev.str("culprits"), ','))
        if (!name.empty())
          s.diagnosis.culprits.push_back(factor_from_name(name));
    } else if (ev.type == "pmu_reprogram") {
      ++s.pmu_reprograms;
    } else if (ev.type == "alert") {
      ++s.alerts;
    } else if (ev.type == "window_latency") {
      s.window_latency.push_back(obs::window_latency_from_event(ev));
    } else if (ev.type == "critical_path") {
      ++s.critical_path_events;
    }
    // Unknown event types are skipped: newer minor producers may add
    // types, and the schema version gates incompatible changes.
  }
  s.ok = true;
  return s;
}

JournalSummary summarize_journal_file(const std::string& path) {
  obs::JournalReadResult read = obs::read_journal(path);
  if (!read.ok) {
    JournalSummary s;
    s.error = read.error;
    return s;
  }
  JournalSummary s = summarize_journal(read.events);
  // Compaction removed superseded events but recorded how many; adding
  // them back keeps the replay's `events:` line — and therefore the whole
  // rendered summary — byte-identical to the uncompacted journal's.
  s.events += read.compacted_dropped;
  return s;
}

std::string render_journal_summary(const JournalSummary& s) {
  std::ostringstream oss;
  oss << "# Vapro journal replay\n";
  oss << "events: " << s.events << ", windows: " << s.windows
      << ", pmu reprograms: " << s.pmu_reprograms << ", alerts: " << s.alerts
      << "\n";

  for (FragmentKind kind : kAllKinds) {
    oss << "\n## " << fragment_kind_name(kind) << "\n";
    oss << render_region_table(s.regions[static_cast<int>(kind)],
                               s.bin_seconds);
  }

  if (!s.rare_findings.empty()) {
    oss << "\n## rare execution paths (check manually — Algorithm 1 line 8)\n";
    // The journal keeps every finding; show them largest-first like
    // ServerGroup::merged_rare_findings.
    std::vector<RareFinding> sorted = s.rare_findings;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const RareFinding& a, const RareFinding& b) {
                       return a.total_seconds > b.total_seconds;
                     });
    oss << render_rare_table(sorted);
  }

  if (!s.window_latency.empty()) {
    // Re-fold the journaled per-window timings through a tracker with the
    // live defaults (same keep), so this table matches the producer's
    // render_critical_path_table output character-for-character.
    obs::CriticalPathTracker tracker;
    for (const obs::PipelineStats& r : s.window_latency) tracker.record(r);
    oss << "\n## critical path\n"
        << obs::render_critical_path_table(tracker.recent(), tracker.summary());
  }

  oss << "\n## diagnosis\n" << s.diagnosis.summary() << '\n';
  return oss.str();
}

}  // namespace vapro::core
