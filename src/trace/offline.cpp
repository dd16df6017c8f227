#include "src/trace/offline.hpp"

namespace vapro::trace {

void replay(const Trace& trace, core::VaproSession& session) {
  TraceReplayer(trace).replay_windowed(
      session.client(), session.options().window_seconds,
      [&session](double) { session.end_window(); });
  session.server().sync();
}

}  // namespace vapro::trace
