// Scenario: a run misbehaved in production overnight.  The operators only
// kept the interception trace.  This example records a run once (standing
// in for the production job), then answers three different questions from
// the same trace — no re-execution:
//   1. where was the variance?  (default knobs)
//   2. is it still visible with a stricter variance threshold?
//   3. what does a context-aware STG see?
#include <iostream>
#include <optional>
#include <string>

#include "src/apps/solvers.hpp"
#include "src/sim/runtime.hpp"
#include "src/trace/offline.hpp"

int main() {
  using namespace vapro;

  // --- the "production run": record the interception stream ---
  sim::SimConfig config;
  config.ranks = 64;
  config.cores_per_node = 16;
  config.seed = 2026;
  sim::NoiseSpec dimm;
  dimm.kind = sim::NoiseKind::kSlowDram;
  dimm.node = 1;  // ranks 16-31
  dimm.magnitude = 2.0;
  config.noises.push_back(dimm);
  sim::Simulator simulator(config);
  trace::TraceWriter recorder;
  simulator.set_interceptor(&recorder);
  apps::NekboneParams params;
  params.iters = 200;
  simulator.run(apps::nekbone(params));

  const std::string path = "/tmp/vapro_offline_example.vprt";
  if (!recorder.trace().save(path)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "recorded " << recorder.trace().size() << " events ("
            << recorder.trace().byte_size() / 1024 << " KiB) to " << path
            << "\n\n";

  // Each question replays the trace into a fresh detached session; only
  // the options differ.
  std::string error;
  const std::optional<trace::Trace> loaded = trace::Trace::load(path, &error);
  if (!loaded) {
    std::cerr << "cannot load " << path << ": " << error << "\n";
    return 1;
  }
  const trace::Trace& trace = *loaded;

  // --- question 1: default analysis ---
  {
    core::VaproOptions opts;
    opts.window_seconds = 0.25;
    core::VaproSession session(trace.ranks(), opts);
    trace::replay(trace, session);
    auto regions = session.locate(core::FragmentKind::kComputation);
    std::cout << "[default knobs] regions: " << regions.size();
    if (!regions.empty()) {
      std::cout << "; top = ranks " << regions[0].rank_lo << "-"
                << regions[0].rank_hi << " at "
                << 100 * (1 - regions[0].mean_perf) << "% loss";
    }
    std::cout << "\n" << session.diagnosis().summary() << "\n\n";
  }

  // --- question 2: only severe variance ---
  {
    core::VaproOptions opts;
    opts.variance_threshold = 0.6;
    core::VaproSession session(trace.ranks(), opts);
    trace::replay(trace, session);
    std::cout << "[threshold 0.6] regions: "
              << session.locate(core::FragmentKind::kComputation).size()
              << " (a ~50% slowdown clears a 0.6 cut, a 20% one does not)\n";
  }

  // --- question 3: context-aware view ---
  {
    core::VaproOptions opts;
    opts.stg_mode = core::StgMode::kContextAware;
    core::VaproSession session(trace.ranks(), opts);
    trace::replay(trace, session);
    std::cout << "[context-aware STG] fragments: "
              << session.fragments_recorded() << ", regions: "
              << session.locate(core::FragmentKind::kComputation).size()
              << "\n";
  }
  std::cout << "\nall three analyses came from one recorded trace — the "
               "application never ran again.\n";
  return 0;
}
