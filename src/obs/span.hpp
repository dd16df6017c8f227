// SpanScope — RAII pipeline-stage spans with causal links.
//
// One span covers one stage of one window (ingest → drain → cluster →
// region-grow → diagnose → journal/export).  On destruction it emits a
// complete ('X') event into the Chrome trace recorder; a null recorder
// makes the span free.  Stage times are not measured here: the analysis
// server laps them into PipelineStats whatever happens to span emission.
// Causality across threads is expressed with flow arrows: the producer
// starts a flow (TraceRecorder::flow_start, a 's' event at the handoff
// instant) and hands its id to the consumer, whose span emits the matching
// 'f' event at its own start — in Perfetto the queue hop between the drain
// thread and the analysis worker becomes a visible arrow whose length IS
// the handoff latency.
//
// Emission passes through the `obs.span` fault site: a dropped span (kFail/
// kDrop) loses its trace event (counted in Options::dropped), and a torn
// span (kShortWrite) is emitted with a "torn":1 arg and truncated duration
// — in every case the trace file stays valid JSON and no lock is held
// across the journal, so a failing span can neither corrupt the trace nor
// deadlock anything.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace_export.hpp"

namespace vapro::obs {

class SpanScope {
 public:
  struct Options {
    TraceRecorder* trace = nullptr;  // null: no trace emission
    Counter* dropped = nullptr;      // counts obs.span-dropped emissions
    std::uint64_t flow_in = 0;       // consume a producer's flow id
  };

  SpanScope(Options opts, std::string name, std::string category,
            std::vector<TraceArg> args = {});
  ~SpanScope() { finish(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void add_arg(TraceArg a) {
    if (opts_.trace) args_.push_back(std::move(a));
  }

  // Ends the span now; the destructor then does nothing.
  void finish();

 private:
  Options opts_;
  std::string name_;
  std::string category_;
  std::vector<TraceArg> args_;
  std::uint64_t t0_ns_ = 0;
  bool finished_ = false;
};

}  // namespace vapro::obs
