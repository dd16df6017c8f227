#include "synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/stg.hpp"

namespace perfbench {

using namespace vapro;

void SyntheticShape::place_slowdown(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedb10cULL);
  const int blocks = std::max(1, ranks / slow_ranks);
  slow_rank_lo = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(blocks))) *
                 slow_ranks;
  slow_rank_hi = std::min(ranks, slow_rank_lo + slow_ranks) - 1;
  const int first = std::max(1, windows / 5);
  const int last = std::max(first + 1, windows - windows / 10 - slow_windows);
  slow_window_lo =
      first + static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(last - first)));
  slow_window_hi = std::min(windows, slow_window_lo + slow_windows);
}

core::FragmentBatch make_window(const SyntheticShape& shape, int window,
                                util::Rng& rng) {
  core::FragmentBatch batch;
  std::vector<core::StateKey> keys(static_cast<std::size_t>(shape.sites));
  for (int s = 0; s < shape.sites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(100 + s);
    info.kind = s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
    keys[static_cast<std::size_t>(s)] =
        core::make_state_key(core::StgMode::kContextFree, info);
    batch.new_states.push_back(info);
  }

  const bool slow_window =
      window >= shape.slow_window_lo && window < shape.slow_window_hi;
  const int steps = shape.sites * shape.reps;
  const double step_seconds = shape.window_seconds / (steps + 1);
  batch.fragments.reserve(static_cast<std::size_t>(shape.fragments_per_window()));
  for (int rank = 0; rank < shape.ranks; ++rank) {
    const double slow = slow_window && rank >= shape.slow_rank_lo &&
                                rank <= shape.slow_rank_hi
                            ? shape.slow_factor
                            : 1.0;
    // Per-rank workload vectors on a constant-norm circle: every rank's
    // (bytes, peer) pair has the same magnitude but a distinct angle.
    const double angle =
        0.08 + 1.45 * std::fmod(0.61803398875 * (rank + 1), 1.0);
    core::StateKey prev = core::kStartState;
    double t = window * shape.window_seconds;
    for (int step = 0; step < steps; ++step) {
      const int s = step % shape.sites;
      const core::StateKey key = keys[static_cast<std::size_t>(s)];
      const bool io = s % 3 == 2;

      core::Fragment comp;
      comp.kind = core::FragmentKind::kComputation;
      comp.rank = rank;
      comp.from = prev;
      comp.to = key;
      comp.start_time = t;
      comp.end_time = t + step_seconds * 0.7 * slow * rng.uniform(0.98, 1.02);
      comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
      batch.fragments.push_back(comp);
      t = comp.end_time;

      core::Fragment inv;
      inv.op = io ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
      inv.kind = io ? core::FragmentKind::kIo : core::FragmentKind::kCommunication;
      inv.rank = rank;
      inv.from = key;
      inv.to = key;
      inv.start_time = t;
      inv.end_time = t + step_seconds * 0.3 * rng.uniform(0.98, 1.02);
      const double radius = 4096.0 * (1 + s);
      inv.args.bytes = radius * std::cos(angle);
      inv.args.peer = static_cast<int>(radius * std::sin(angle));
      inv.args.fd = io ? 3 : -1;
      batch.fragments.push_back(inv);
      t = inv.end_time;
      prev = key;
    }
  }
  return batch;
}

}  // namespace perfbench
