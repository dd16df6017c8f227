// Event tracing and offline replay.
//
// The paper's related work dismisses full tracing for production use
// because of its "prohibitive data volume" (§7) — this module exists to
// (a) make that comparison measurable (bench/trace_volume) and (b) support
// the workflow a deployed tool needs anyway: record one run's interception
// stream, then re-analyze it offline under different knobs (thresholds,
// STG mode, sampling) without re-running the application.
//
//   TraceWriter   — an Interceptor that records every event (optionally
//                   teeing into another Interceptor so Vapro can run live
//                   at the same time).
//   Trace         — the event container; binary save/load.
//   TraceReplayer — streams a Trace back into any Interceptor.
//   replay()      — (offline.hpp) drives a detached core::VaproSession
//                   from a Trace through the live session's window step.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/intercept.hpp"
#include "src/util/check.hpp"

namespace vapro::trace {

enum class EventKind : std::uint8_t { kCallBegin, kCallEnd, kProgramEnd };

struct TraceEvent {
  EventKind kind = EventKind::kCallBegin;
  double time = 0.0;
  sim::InvocationInfo info;          // empty for kProgramEnd
  pmu::CounterSample ground_truth;   // cumulative at the event instant
};

class Trace {
 public:
  void append(TraceEvent event) { events_.push_back(std::move(event)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  // Rank count: one past the largest recorded rank.
  int ranks() const;

  // Serialized size: what a tracing tool would have to move/store.
  std::size_t byte_size() const;

  // Binary round trip.  The format is versioned and self-contained.
  // save() returns false when the file cannot be opened or written.
  // load() returns nullopt, and says why in `*error`, for a file it cannot
  // open or a malformed one: truncation, an unknown event or op kind, a
  // rank outside [0, event count), or a time that is negative or not
  // finite.
  bool save(const std::string& path) const;
  static std::optional<Trace> load(const std::string& path,
                                   std::string* error);

 private:
  std::vector<TraceEvent> events_;
};

// Records everything it sees; optionally forwards to `tee` so another tool
// can consume the same stream live.
class TraceWriter final : public sim::Interceptor {
 public:
  explicit TraceWriter(sim::Interceptor* tee = nullptr) : tee_(tee) {}

  bool wants_call_path() const override {
    // Record paths so an offline context-aware analysis stays possible.
    return true;
  }
  void on_call_begin(const sim::InvocationInfo& info, double time,
                     const pmu::CounterSample& gt) override;
  void on_call_end(const sim::InvocationInfo& info, double time,
                   const pmu::CounterSample& gt) override;
  void on_program_end(sim::RankId rank, double time) override;

  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }

 private:
  Trace trace_;
  sim::Interceptor* tee_;
};

// Streams a trace (already time-ordered, as recorded) into a sink.
class TraceReplayer {
 public:
  explicit TraceReplayer(const Trace& trace) : trace_(trace) {}

  // Replays everything.
  void replay(sim::Interceptor& sink) const;

  // Replays with a window callback invoked every `window_seconds` of trace
  // time (and once at the end) — the offline equivalent of the simulator's
  // periodic analysis ticks.  The window must be positive and finite
  // (checked: any other value never moves the flush time past an event).
  template <typename WindowFn>
  void replay_windowed(sim::Interceptor& sink, double window_seconds,
                       WindowFn&& on_window) const {
    VAPRO_CHECK_MSG(window_seconds > 0.0 && std::isfinite(window_seconds),
                    "replay window " << window_seconds
                                     << " is not positive and finite");
    double next_flush = window_seconds;
    for (const TraceEvent& ev : trace_.events()) {
      while (ev.time >= next_flush) {
        on_window(next_flush);
        next_flush += window_seconds;
      }
      dispatch(ev, sink);
    }
    on_window(next_flush);
  }

 private:
  static void dispatch(const TraceEvent& ev, sim::Interceptor& sink);
  const Trace& trace_;
};

}  // namespace vapro::trace
