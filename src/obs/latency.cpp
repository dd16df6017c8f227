#include "src/obs/latency.hpp"

#include <cstdio>
#include <sstream>

namespace vapro::obs {

namespace {

std::string fmt_ms(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

void append_window_json(std::ostringstream& oss, const PipelineStats& r) {
  oss << "{\"window\":" << r.window
      << ",\"virtual_time\":" << json_number(r.virtual_time);
  for (std::size_t s = 0; s < kStageCount; ++s)
    oss << ",\"" << kStageNames[s]
        << "_seconds\":" << json_number(r.stage_seconds[s]);
  oss << ",\"bound_by\":\"" << r.bound_by()
      << "\",\"bound_seconds\":" << json_number(r.bound_seconds())
      << ",\"total_seconds\":" << json_number(r.total_seconds()) << '}';
}

}  // namespace

void CriticalPathTracker::record(const PipelineStats& r) {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(r);
  while (recent_.size() > keep_) recent_.pop_front();
  ++sum_.windows;
  sum_.total_seconds += r.total_seconds();
  for (std::size_t s = 0; s < kStageCount; ++s)
    sum_.stage_seconds[s] += r.stage_seconds[s];
  ++sum_.bound_windows[r.bound_stage()];
}

std::size_t CriticalPathTracker::Summary::dominant_stage() const {
  if (windows == 0) return kStageCount;
  std::size_t best = 0;
  for (std::size_t s = 1; s < kStageCount; ++s)
    if (bound_windows[s] > bound_windows[best]) best = s;
  return best;
}

std::vector<PipelineStats> CriticalPathTracker::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_.begin(), recent_.end()};
}

CriticalPathTracker::Summary CriticalPathTracker::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::string render_latency_json(const std::vector<PipelineStats>& recent,
                                const CriticalPathTracker::Summary& sum) {
  std::ostringstream oss;
  oss << "{\"windows\":" << sum.windows
      << ",\"total_seconds\":" << json_number(sum.total_seconds) << ",\"recent\":[";
  bool first = true;
  for (const PipelineStats& r : recent) {
    if (!first) oss << ',';
    first = false;
    append_window_json(oss, r);
  }
  oss << "]}";
  return oss.str();
}

std::string render_critical_path_json(
    const std::vector<PipelineStats>& recent,
    const CriticalPathTracker::Summary& sum) {
  std::ostringstream oss;
  const std::size_t dom = sum.dominant_stage();
  oss << "{\"windows\":" << sum.windows << ",\"dominant\":";
  if (dom < kStageCount)
    oss << '"' << kStageNames[dom] << '"';
  else
    oss << "null";
  oss << ",\"stages\":[";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (s) oss << ',';
    oss << "{\"stage\":\"" << kStageNames[s]
        << "\",\"seconds\":" << json_number(sum.stage_seconds[s])
        << ",\"bound_windows\":" << sum.bound_windows[s] << '}';
  }
  oss << "],\"recent\":[";
  bool first = true;
  for (const PipelineStats& r : recent) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"window\":" << r.window << ",\"bound_by\":\"" << r.bound_by()
        << "\",\"bound_seconds\":" << json_number(r.bound_seconds()) << '}';
  }
  oss << "]}";
  return oss.str();
}

std::string render_critical_path_table(
    const std::vector<PipelineStats>& recent,
    const CriticalPathTracker::Summary& sum) {
  std::ostringstream oss;
  oss << "critical path (" << recent.size() << " recent of " << sum.windows
      << " windows)\n";
  if (sum.windows == 0) {
    oss << "  (no windows analyzed)\n";
    return oss.str();
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %8s  %-10s  %12s  %12s\n", "window",
                "bound_by", "bound_ms", "total_ms");
  oss << line;
  for (const PipelineStats& r : recent) {
    std::snprintf(line, sizeof(line), "  %8lld  %-10s  %12s  %12s\n",
                  static_cast<long long>(r.window), r.bound_by(),
                  fmt_ms(r.bound_seconds()).c_str(),
                  fmt_ms(r.total_seconds()).c_str());
    oss << line;
  }
  const std::size_t dom = sum.dominant_stage();
  oss << "  stage totals:";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    oss << (s ? " | " : " ") << kStageNames[s] << ' '
        << fmt_ms(sum.stage_seconds[s]) << "ms (" << sum.bound_windows[s]
        << " bound)";
  }
  oss << "\n  dominant stage: "
      << (dom < kStageCount ? kStageNames[dom] : "none") << '\n';
  return oss.str();
}

void journal_window_latency(Journal& journal, const PipelineStats& stats) {
  std::vector<JournalField> fields;
  fields.reserve(kStageCount + 2);
  for (std::size_t s = 0; s < kStageCount; ++s)
    fields.push_back(JournalField::num(
        std::string(kStageNames[s]) + "_seconds", stats.stage_seconds[s]));
  fields.push_back(JournalField::str("bound_by", stats.bound_by()));
  fields.push_back(JournalField::num("bound_seconds", stats.bound_seconds()));
  journal.emit("window_latency", static_cast<std::int64_t>(stats.window),
               stats.virtual_time, std::move(fields));
}

void journal_critical_path(Journal& journal, std::int64_t last_window,
                           double virtual_time,
                           const CriticalPathTracker::Summary& sum) {
  std::vector<JournalField> fields;
  fields.push_back(JournalField::num("windows", sum.windows));
  fields.push_back(JournalField::num("total_seconds", sum.total_seconds));
  for (std::size_t s = 0; s < kStageCount; ++s) {
    fields.push_back(JournalField::num(
        std::string(kStageNames[s]) + "_seconds", sum.stage_seconds[s]));
    fields.push_back(JournalField::num(
        std::string(kStageNames[s]) + "_bound_windows", sum.bound_windows[s]));
  }
  const std::size_t dom = sum.dominant_stage();
  fields.push_back(JournalField::str(
      "dominant", dom < kStageCount ? kStageNames[dom] : ""));
  journal.emit("critical_path", last_window, virtual_time, std::move(fields));
}

PipelineStats window_latency_from_event(const JournalEvent& event) {
  PipelineStats r;
  r.window = static_cast<std::size_t>(event.window);
  r.virtual_time = event.virtual_time;
  for (std::size_t s = 0; s < kStageCount; ++s)
    r.stage_seconds[s] =
        event.number(std::string(kStageNames[s]) + "_seconds");
  return r;
}

}  // namespace vapro::obs
