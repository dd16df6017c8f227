// ObsContext — the one handle the rest of the system carries.
//
// Owns the metrics registry, the self-overhead accountant, an always-on
// CollectingSink of per-window PipelineStats, an optional Chrome trace
// recorder (off until enable_trace()), an optional event journal (off
// until enable_journal()), and an optional embedded HTTP exposition
// server (off until start_exposition()).  Core code takes a borrowed
// `ObsContext*` through its options structs; a null pointer disables all
// telemetry at the cost of one branch per call site, so the library has
// zero observability overhead unless a caller opts in.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/exposition.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/overhead.hpp"
#include "src/obs/pipeline.hpp"
#include "src/obs/trace_export.hpp"
#include "src/util/clock.hpp"

namespace vapro::obs {

class ObsContext {
 public:
  ~ObsContext();
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  OverheadAccountant& overhead() { return overhead_; }
  const OverheadAccountant& overhead() const { return overhead_; }

  // Null until enable_trace(); call sites guard with `if (auto* t = ...)`.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }
  TraceRecorder* enable_trace();

  // Null until enable_journal(); call sites guard with `if (auto* j = ...)`.
  Journal* journal() { return journal_.get(); }
  const Journal* journal() const { return journal_.get(); }
  Journal* enable_journal();
  // enable_journal() + attach an owned JournalFileSink writing one JSONL
  // file at `path` or rotating segments into options.directory (parent
  // directories are created).  False when the sink cannot open: the file
  // or first segment cannot be created, or the directory already holds
  // journal segments.
  bool attach_journal_file(const std::string& path);
  bool attach_journal_file(SegmentOptions options);

  // Null until start_exposition().  Starting binds 127.0.0.1:`port`
  // (0 = ephemeral) and registers the built-in routes (/, /metrics,
  // /healthz); core components add their /v1 snapshots on top.  On bind
  // failure returns null and sets `error`.
  ExpositionServer* exposition() { return exposition_.get(); }
  const ExpositionServer* exposition() const { return exposition_.get(); }
  ExpositionServer* start_exposition(int port, std::string* error = nullptr);

  // Collects a window snapshot for metrics.json and marks the window for
  // /healthz.  Serialized — safe to call from concurrent leaf servers.
  void emit_window(const PipelineStats& stats);

  const CollectingSink& windows() const { return windows_; }

  // The full self-telemetry document:
  // {"metrics":{...},"windows":[...],"overhead":{...}}.
  std::string metrics_json() const;
  bool write_metrics_json(const std::string& path) const;
  // Chrome trace JSON; false when tracing was never enabled.
  bool write_trace_json(const std::string& path) const;

  // Liveness for /healthz: windows emitted so far and the wall-clock age
  // of the last one (negative = no window yet).
  std::uint64_t windows_emitted() const {
    return windows_emitted_.load(std::memory_order_relaxed);
  }
  double last_window_age_seconds() const;
  double uptime_seconds() const;

  // Time source for uptime/window-age (defaults to the real steady clock).
  // Install a util::VirtualClock BEFORE the first emit_window to test
  // age/linger logic without sleeping; borrowed, must outlive the context.
  void set_clock(util::Clock* clock) {
    clock_ = clock ? clock : util::real_clock();
    epoch_seconds_ = clock_->now_seconds();
  }
  util::Clock* clock() const { return clock_; }

 private:
  bool attach_owned(std::unique_ptr<JournalFileSink> sink);

  MetricsRegistry metrics_;
  OverheadAccountant overhead_;
  CollectingSink windows_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<Journal> journal_;
  // Owned sinks, in attach order; /readyz needs every one of them ok().
  std::vector<std::unique_ptr<JournalFileSink>> journal_files_;
  std::unique_ptr<ExpositionServer> exposition_;
  std::mutex emit_mu_;
  std::atomic<std::uint64_t> windows_emitted_{0};
  // Nanoseconds since the clock epoch of the last emit_window; -1 before
  // any.
  std::atomic<std::int64_t> last_window_ns_{-1};
  util::Clock* clock_ = util::real_clock();
  double epoch_seconds_ = clock_->now_seconds();
};

}  // namespace vapro::obs
