#include "src/obs/span.hpp"

#include "src/testing/fault.hpp"

namespace vapro::obs {

SpanScope::SpanScope(Options opts, std::string name, std::string category,
                     std::vector<TraceArg> args)
    : opts_(opts),
      name_(std::move(name)),
      category_(std::move(category)),
      args_(std::move(args)) {
  if (opts_.trace) {
    t0_ns_ = opts_.trace->now_ns();
    if (opts_.flow_in != 0)
      opts_.trace->flow_end(name_, category_, opts_.flow_in, t0_ns_);
  }
}

void SpanScope::finish() {
  if (finished_ || !opts_.trace) return;
  finished_ = true;
  std::uint64_t end_ns = opts_.trace->now_ns();
  std::uint64_t dur_ns = end_ns > t0_ns_ ? end_ns - t0_ns_ : 0;
  switch (VAPRO_FAULT("obs.span")) {
    case testing::FaultAction::kFail:
    case testing::FaultAction::kDrop:
      // Emission lost (e.g. the writer behind the recorder is gone).  The
      // trace simply misses one slice; count it so /metrics shows the gap.
      if (opts_.dropped) opts_.dropped->inc();
      return;
    case testing::FaultAction::kShortWrite: {
      // Torn span: only part of the duration was captured.  Mark it so a
      // timeline reader can discount the slice; the event itself is still
      // well-formed.
      dur_ns /= 2;
      std::vector<TraceArg> args = std::move(args_);
      args.push_back(TraceRecorder::arg("torn", std::uint64_t{1}));
      opts_.trace->complete_span(name_, category_, t0_ns_, dur_ns,
                                 std::move(args));
      if (opts_.dropped) opts_.dropped->inc();
      return;
    }
    default:
      break;
  }
  opts_.trace->complete_span(name_, category_, t0_ns_, dur_ns,
                             std::move(args_));
}

}  // namespace vapro::obs
