// Synthetic client data for the server-only workloads (steady_windows,
// long_run): the pipeline_scaling input shape — per rank, `reps` loops over
// a ring of `sites` call sites, a computation fragment before each
// invocation and a communication/IO fragment for it — plus one injected
// slowdown (a contiguous rank block whose computation runs `slow_factor`×
// longer over a span of windows), which is the ground truth the final
// detection answer is checked against.
#pragma once

#include <cstdint>

#include "src/core/client.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

struct SyntheticShape {
  int ranks = 64;
  int sites = 40;
  int reps = 24;
  double window_seconds = 0.25;
  int windows = 40;
  // Injected slowdown: ranks [slow_rank_lo, slow_rank_hi], windows
  // [slow_window_lo, slow_window_hi).
  int slow_ranks = 8;
  int slow_windows = 8;
  double slow_factor = 1.5;
  int slow_rank_lo = 0;
  int slow_rank_hi = 7;
  int slow_window_lo = 8;
  int slow_window_hi = 16;

  // Places the slowdown from `seed`: block-aligned ranks, and a span that
  // starts after the first fifth of the run and ends before the last
  // tenth, so it never falls in the early or late tenth of windows that
  // window_cost_growth compares.
  void place_slowdown(std::uint64_t seed);
  int fragments_per_window() const { return ranks * sites * reps * 2; }
};

// One window of client data.  `rng` supplies the ±2% duration jitter, so a
// fixed seed reproduces every batch exactly.
vapro::core::FragmentBatch make_window(const SyntheticShape& shape, int window,
                                       vapro::util::Rng& rng);

}  // namespace perfbench
