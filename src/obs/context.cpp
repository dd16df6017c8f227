#include "src/obs/context.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/testing/fault.hpp"
#include "src/util/fs.hpp"

namespace vapro::obs {

ObsContext::~ObsContext() {
  // Stop serving before any member the route handlers might read dies.
  if (exposition_) exposition_->stop();
  // Flush only the file sinks the context owns: borrowed sinks (alert
  // engines, test collectors) are routinely declared after the context and
  // are already gone by now — fanning out through the journal here would
  // call through their dead vptrs.
  for (const auto& sink : journal_files_) sink->flush();
}

TraceRecorder* ObsContext::enable_trace() {
  if (!trace_) trace_ = std::make_unique<TraceRecorder>();
  return trace_.get();
}

Journal* ObsContext::enable_journal() {
  if (!journal_) journal_ = std::make_unique<Journal>();
  return journal_.get();
}

bool ObsContext::attach_journal_file(const std::string& path) {
  return attach_owned(std::make_unique<JournalFileSink>(path));
}

bool ObsContext::attach_journal_file(SegmentOptions options) {
  return attach_owned(std::make_unique<JournalFileSink>(std::move(options)));
}

bool ObsContext::attach_owned(std::unique_ptr<JournalFileSink> sink) {
  Journal* journal = enable_journal();
  if (!sink->ok()) return false;
  journal->add_sink(sink.get());
  journal_files_.push_back(std::move(sink));
  return true;
}

ExpositionServer* ObsContext::start_exposition(int port, std::string* error) {
  if (exposition_ && exposition_->running()) return exposition_.get();
  auto server = std::make_unique<ExpositionServer>();
  if (!server->start(port, error)) return nullptr;
  // Raw pointer for handler captures: they can fire between add_route and
  // the exposition_ assignment below, when exposition_ is still null.
  ExpositionServer* raw = server.get();

  // Endpoint index so a bare curl of the port discovers the surface
  // (including /v1 routes registered later by servers) instead of a 404.
  server->add_route("/", [raw] {
    HttpResponse resp;
    resp.content_type = "application/json";
    std::ostringstream body;
    body << "{\"service\":\"vapro\",\"endpoints\":[";
    bool first = true;
    for (const std::string& p : raw->route_paths()) {
      if (!first) body << ',';
      first = false;
      body << '"' << p << '"';
    }
    body << "]}";
    resp.body = body.str();
    return resp;
  });

  server->add_route("/metrics", [this] {
    HttpResponse resp;
    resp.content_type = kPrometheusContentType;
    resp.body = render_prometheus(metrics_);
    // A few context-level samples the registry does not own.
    std::ostringstream extra;
    extra << "# TYPE vapro_obs_tool_seconds gauge\nvapro_obs_tool_seconds "
          << prometheus_number(overhead_.tool_seconds()) << '\n';
    extra << "# TYPE vapro_obs_uptime_seconds gauge\nvapro_obs_uptime_seconds "
          << prometheus_number(uptime_seconds()) << '\n';
    extra << "# TYPE vapro_obs_journal_events_total counter\n"
          << "vapro_obs_journal_events_total "
          << (journal_ ? journal_->events_emitted() : 0) << '\n';
    resp.body += extra.str();
    return resp;
  });

  server->add_route("/healthz", [this, raw] {
    HttpResponse resp;
    resp.content_type = "application/json";
    std::ostringstream body;
    char buf[40];
    body << "{\"status\":\"ok\",\"uptime_seconds\":";
    std::snprintf(buf, sizeof(buf), "%.3f", uptime_seconds());
    body << buf << ",\"windows\":" << windows_emitted()
         << ",\"last_window_age_seconds\":";
    const double age = last_window_age_seconds();
    if (age < 0.0) {
      body << "null";
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f", age);
      body << buf;
    }
    body << ",\"journal_events\":"
         << (journal_ ? journal_->events_emitted() : 0);
    // Staged-pipeline queue depth, when an AnalysisServer is pipelining
    // through this context (find, don't create: a non-pipelined process
    // should not grow a zero gauge just because somebody probed /healthz).
    body << ",\"pipeline_depth\":";
    if (const Gauge* depth = metrics_.find_gauge("vapro.pipeline.queue_depth"))
      body << static_cast<std::int64_t>(depth->value());
    else
      body << "null";
    body << ",\"fault_injection\":"
         << (testing::fault_injection_compiled() ? "true" : "false");
    body << ",\"endpoints\":[";
    bool first = true;
    for (const std::string& p : raw->route_paths()) {
      if (!first) body << ',';
      first = false;
      body << '"' << p << '"';
    }
    body << "]}";
    resp.body = body.str();
    return resp;
  });

  // Readiness, distinct from liveness: /healthz answers "is the process
  // up", /readyz answers "should this instance take more traffic".  503
  // while the ingest plane is shedding (vapro.net.degraded), while the
  // admission queues are saturated, or after any owned journal sink has
  // gone unwritable — a load balancer drains the instance while detection
  // keeps running on what was already admitted.  Find, don't create: a
  // process without an ingest plane must not fail readiness over absent
  // gauges.
  server->add_route("/readyz", [this] {
    HttpResponse resp;
    resp.content_type = "application/json";
    bool degraded = false;
    if (const Gauge* g = metrics_.find_gauge("vapro.net.degraded"))
      degraded = g->value() > 0.0;
    bool saturated = false;
    const Gauge* depth = metrics_.find_gauge("vapro.net.queue_depth");
    const Gauge* capacity = metrics_.find_gauge("vapro.net.queue_capacity");
    if (depth && capacity && capacity->value() > 0.0)
      saturated = depth->value() >= capacity->value();
    const bool journal_ok =
        std::all_of(journal_files_.begin(), journal_files_.end(),
                    [](const auto& sink) { return sink->ok(); });
    const bool ready = !degraded && !saturated && journal_ok;
    resp.status = ready ? 200 : 503;
    std::ostringstream body;
    body << "{\"status\":\"" << (ready ? "ready" : "not_ready")
         << "\",\"degraded\":" << (degraded ? "true" : "false")
         << ",\"admission_saturated\":" << (saturated ? "true" : "false")
         << ",\"journal_writable\":" << (journal_ok ? "true" : "false")
         << '}';
    resp.body = body.str();
    return resp;
  });

  exposition_ = std::move(server);
  return exposition_.get();
}

void ObsContext::emit_window(const PipelineStats& stats) {
  {
    std::lock_guard<std::mutex> lock(emit_mu_);
    windows_.on_window(stats);
  }
  windows_emitted_.fetch_add(1, std::memory_order_relaxed);
  last_window_ns_.store(
      static_cast<std::int64_t>((clock_->now_seconds() - epoch_seconds_) * 1e9),
      std::memory_order_relaxed);
  // Flush-on-window: every journaled conclusion of a finished window is
  // durable before the next window starts.
  if (journal_) journal_->flush();
}

double ObsContext::last_window_age_seconds() const {
  const std::int64_t last = last_window_ns_.load(std::memory_order_relaxed);
  if (last < 0) return -1.0;
  const std::int64_t now_ns = static_cast<std::int64_t>(
      (clock_->now_seconds() - epoch_seconds_) * 1e9);
  return static_cast<double>(now_ns - last) * 1e-9;
}

double ObsContext::uptime_seconds() const {
  return clock_->now_seconds() - epoch_seconds_;
}

std::string ObsContext::metrics_json() const {
  std::ostringstream oss;
  oss << "{\"metrics\":" << metrics_.to_json()
      << ",\"windows\":" << windows_.to_json()
      << ",\"overhead\":" << overhead_.to_json() << '}';
  return oss.str();
}

bool ObsContext::write_metrics_json(const std::string& path) const {
  util::ensure_parent_dirs(path);
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << metrics_json();
  return static_cast<bool>(out);
}

bool ObsContext::write_trace_json(const std::string& path) const {
  if (!trace_) return false;
  util::ensure_parent_dirs(path);
  return trace_->write_json(path);
}

}  // namespace vapro::obs
