// Variance detection (paper §3.5).
//
// Fragments in a fixed-workload cluster should take the fastest member's
// time; normalized performance = fastest / actual ∈ (0, 1].  Normalized
// values from all clusters are merged per category (computation,
// communication, IO) into heat maps; a region-growing pass then locates
// contiguous low-performance regions.
//
// Analysis runs in overlapping sliding windows (Fig 8): the ClusterBaseline
// carries each cluster's fastest-observed time across windows so that
// normalization in window N is consistent with window N−1 even when the
// fast fragments all happened earlier.
//
// detect_fragments is the one detection pass a server runs per window: it
// walks each cluster once, normalizing, counting coverage and depositing
// in the same walk, one task per FragmentKind.  A cluster's kind picks the
// heat map and coverage slot of all its members, so the three kinds share
// no mutable state and fan out across a WorkerPool without a lock.
// normalize_fragments, CoverageAccumulator::add and deposit_fragments do
// the same work as three separate walks, under the same kind rule; they
// stay as the reference the tests compare the pass against and as the
// layers perfbench's replay times one by one.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/clustering.hpp"
#include "src/core/heatmap.hpp"
#include "src/core/stg.hpp"

namespace vapro::core {

struct NormalizedFragment {
  int rank = 0;
  double start = 0.0;
  double end = 0.0;
  double perf = 1.0;
  FragmentKind kind = FragmentKind::kComputation;
};

// Cross-window memory of cluster minima.  Cluster identity across windows =
// (edge/vertex, kind, seed norm quantized into clustering-threshold-sized
// buckets) — stable because Algorithm 1 seeds are the per-class minima.
class ClusterBaseline {
 public:
  explicit ClusterBaseline(double norm_quantum = 0.05)
      : norm_quantum_(norm_quantum) {}

  // Merges `window_min` (fastest duration of the cluster in this window)
  // into history; returns the all-time minimum for normalization.
  double update(const Cluster& c, double window_min);

  std::size_t size() const {
    return mins_[0].size() + mins_[1].size() + mins_[2].size();
  }

  // Stable cross-window cluster identity; also used as the cluster label
  // when scoring identification quality against ground truth (Table 2).
  std::uint64_t key_of(const Cluster& c) const;

 private:
  double norm_quantum_;
  // One map per FragmentKind: update() touches only its cluster's kind,
  // so detect_fragments' per-kind tasks never share a map.
  std::unordered_map<std::uint64_t, double> mins_[3];
};

// Normalizes every member of every non-rare cluster, tagged with its
// cluster's kind.  `baseline` may be nullptr for single-shot (offline)
// analysis.  Fragments with index below `live_begin` are overlap carry-ins
// from the previous window (Fig 8): they participate in cluster formation
// and minima but are not re-emitted.
std::vector<NormalizedFragment> normalize_fragments(
    const Stg& stg, const ClusteringResult& clusters, ClusterBaseline* baseline,
    std::size_t live_begin = 0);

// Per-category coverage bookkeeping for Table 1: covered = fragment time in
// repeated (non-rare) fixed-workload clusters, filed under the cluster's
// kind.
struct CoverageAccumulator {
  double covered[3] = {0.0, 0.0, 0.0};   // indexed by FragmentKind
  double observed[3] = {0.0, 0.0, 0.0};

  // `live_begin` excludes overlap carry-ins from double counting.
  void add(const Stg& stg, const ClusteringResult& clusters,
           std::size_t live_begin = 0);
  double covered_total() const { return covered[0] + covered[1] + covered[2]; }
  double observed_total() const {
    return observed[0] + observed[1] + observed[2];
  }
  // Coverage as the paper defines it: covered time / total execution time.
  // `total_execution_seconds` = per-rank run time summed over ranks.
  double coverage(double total_execution_seconds) const;
};

// Deposits normalized fragments into the per-category heat maps.
void deposit_fragments(std::span<const NormalizedFragment> fragments,
                       Heatmap& computation, Heatmap& communication,
                       Heatmap& io);

// One window's detection pass: for each cluster of a kind, in cluster
// order, the window minimum over all members, the baseline update, the
// coverage adds and one deposit per live member into that kind's map.
// Every heat-map cell, coverage sum and baseline entry receives the same
// values in the same order as from normalize_fragments + coverage.add +
// deposit_fragments, so the result is byte-identical to those three.
// With a multi-lane `pool` the three kinds run as three tasks; otherwise
// they run one after another on the caller.  An exception from a kind's
// task is rethrown here after every task finished.
void detect_fragments(const Stg& stg, const ClusteringResult& clusters,
                      ClusterBaseline* baseline, std::size_t live_begin,
                      CoverageAccumulator& coverage, Heatmap& computation,
                      Heatmap& communication, Heatmap& io,
                      util::WorkerPool* pool = nullptr);

}  // namespace vapro::core
