// Offline analysis of a recorded trace: the trace drives a detached
// core::VaproSession through the same window step as a live run.  A
// replay with the run's own options (pmu_jitter and seed included)
// reproduces the run's analysis exactly; other options sweep analysis
// knobs (thresholds, STG mode, proxies) over one recorded run.
#pragma once

#include "src/core/vapro.hpp"
#include "src/trace/trace.hpp"

namespace vapro::trace {

// Feeds `trace` into `session.client()`, ending a window every
// `session.options().window_seconds` of trace time and once at the end,
// then syncs: results are ready on return.  `session` is normally
// detached, built as core::VaproSession(trace.ranks(), options).
void replay(const Trace& trace, core::VaproSession& session);

}  // namespace vapro::trace
