#include "src/obs/trace_export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/journal.hpp"

namespace vapro::obs {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

TraceArg TraceRecorder::arg(const std::string& key, double v) {
  return {key, number(v)};
}

TraceArg TraceRecorder::arg(const std::string& key, std::uint64_t v) {
  return {key, std::to_string(v)};
}

TraceArg TraceRecorder::arg(const std::string& key, const std::string& v) {
  return {key, '"' + journal_json_escape(v) + '"'};
}

std::uint64_t TraceRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

int TraceRecorder::tid_of_current_thread_locked() {
  const auto id = std::this_thread::get_id();
  auto [it, inserted] = tids_.emplace(id, static_cast<int>(tids_.size()) + 1);
  return it->second;
}

void TraceRecorder::push_locked(ChromeEvent ev) {
  ev.tid = tid_of_current_thread_locked();
  events_.push_back(std::move(ev));
}

void TraceRecorder::complete(const std::string& name,
                             const std::string& category, std::uint64_t t0_ns,
                             std::vector<TraceArg> args) {
  const std::uint64_t end_ns = now_ns();
  complete_span(name, category, t0_ns, end_ns > t0_ns ? end_ns - t0_ns : 0,
                std::move(args));
}

void TraceRecorder::complete_span(const std::string& name,
                                  const std::string& category,
                                  std::uint64_t t0_ns, std::uint64_t dur_ns,
                                  std::vector<TraceArg> args) {
  ChromeEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'X';
  ev.ts_us = static_cast<double>(t0_ns) * 1e-3;
  ev.dur_us = static_cast<double>(dur_ns) * 1e-3;
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(ev));
}

void TraceRecorder::instant(const std::string& name,
                            const std::string& category,
                            std::vector<TraceArg> args) {
  ChromeEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'i';
  ev.ts_us = static_cast<double>(now_ns()) * 1e-3;
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(ev));
}

void TraceRecorder::flow_start(const std::string& name,
                               const std::string& category,
                               std::uint64_t flow_id, std::uint64_t ts_ns) {
  ChromeEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 's';
  ev.ts_us = static_cast<double>(ts_ns) * 1e-3;
  ev.flow_id = flow_id;
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(ev));
}

void TraceRecorder::flow_end(const std::string& name,
                             const std::string& category,
                             std::uint64_t flow_id, std::uint64_t ts_ns) {
  ChromeEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'f';
  ev.ts_us = static_cast<double>(ts_ns) * 1e-3;
  ev.flow_id = flow_id;
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(std::move(ev));
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<ChromeEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  bool first = true;
  for (const ChromeEvent& ev : events_) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"name\":\"" << journal_json_escape(ev.name) << "\",\"cat\":\""
        << journal_json_escape(ev.category) << "\",\"ph\":\"" << ev.phase
        << "\",\"ts\":" << number(ev.ts_us) << ",\"pid\":1,\"tid\":" << ev.tid;
    if (ev.phase == 'X') oss << ",\"dur\":" << number(ev.dur_us);
    if (ev.phase == 'i') oss << ",\"s\":\"t\"";  // thread-scoped instant
    if (ev.phase == 's' || ev.phase == 'f') {
      oss << ",\"id\":" << ev.flow_id;
      // bp:e makes the arrow land at the enclosing slice's end, the
      // rendering Perfetto expects for stage-handoff flows.
      if (ev.phase == 'f') oss << ",\"bp\":\"e\"";
    }
    if (!ev.args.empty()) {
      oss << ",\"args\":{";
      bool afirst = true;
      for (const TraceArg& a : ev.args) {
        if (!afirst) oss << ',';
        afirst = false;
        oss << '"' << journal_json_escape(a.key) << "\":" << a.json_value;
      }
      oss << '}';
    }
    oss << '}';
  }
  oss << "],\"displayTimeUnit\":\"ms\"}";
  return oss.str();
}

bool TraceRecorder::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace vapro::obs
