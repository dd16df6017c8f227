// Fixed-workload identification by clustering (paper §3.4, Algorithm 1).
//
// Per STG edge/vertex, workload vectors are sorted by Euclidean norm; the
// unprocessed fragment with the smallest norm seeds a cluster that absorbs
// every fragment within a relative distance threshold (5% by default).
// Sorting by norm makes the sweep linear: members of a seed's cluster can
// only live in the norm window [‖seed‖, ‖seed‖·(1+threshold)], because
// |‖a‖−‖b‖| ≤ ‖a−b‖.
//
// The sort's order is unique when no two norms of an item are equal, and
// an LSD radix sort over the norms' bits finds it for items of at least
// 64 distinct, finite norms (tie-free computation edges whose counters
// carry PMU jitter).  Every item with a tie is sorted by std::sort from
// arrival order with a norms-only comparator, so the permutation among
// equal norms, and with it every cluster, is the one the sweep always
// produced.
//
// Clusters with fewer than `min_cluster_size` members are flagged "rare"
// (Algorithm 1 line 8): they are excluded from variance normalization but
// reported so users can inspect non-repeated long executions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/core/stg.hpp"
#include "src/obs/trace_export.hpp"
#include "src/pmu/counters.hpp"

namespace vapro::util {
class WorkerPool;
}

namespace vapro::core {

struct ClusterOptions {
  // Relative distance threshold for cluster membership (paper: 5%).
  double threshold = 0.05;
  // Minimum members for a cluster to count as repeated fixed workload
  // (paper: 5).
  int min_cluster_size = 5;
  // Proxy metrics forming the computation workload vector (paper default:
  // TOT_INS; users may add e.g. MEM_REFS for precision at extra cost).
  std::vector<pmu::Counter> proxies = {pmu::Counter::kTotIns};
};

struct Cluster {
  // The edge/vertex this cluster belongs to.
  StateKey from = kStartState;
  StateKey to = kStartState;
  FragmentKind kind = FragmentKind::kComputation;
  // Fragment indices into the Stg, in sweep order: a view of this
  // cluster's slice of its ClusteringResult's member_array.
  std::span<const std::size_t> members;
  double seed_norm = 0.0;  // least norm in the cluster
  bool rare = false;
};

// Every cluster of a window.  `member_array` holds all their members:
// each work item (edge or vertex) writes one slice as long as its
// fragment list, because an item's clusters partition its fragments, and
// each Cluster::members views its part of that slice.  A move keeps the
// buffer, so the views stay valid; a copy points its views at its own
// array.  A hand-built result must size member_array before it takes
// views into it.
struct ClusteringResult {
  std::vector<Cluster> clusters;
  std::vector<std::size_t> member_array;

  ClusteringResult() = default;
  ClusteringResult(const ClusteringResult& other);
  ClusteringResult& operator=(const ClusteringResult& other);
  ClusteringResult(ClusteringResult&&) noexcept = default;
  ClusteringResult& operator=(ClusteringResult&&) noexcept = default;

  std::size_t rare_count() const;
};

// Runs Algorithm 1 over every edge and vertex of the STG.
ClusteringResult cluster_stg(const Stg& stg, const ClusterOptions& opts);

// Same result, but edge/vertex work items are sharded across `pool`'s
// lanes — the multi-threaded analysis server of §5.  Output is
// deterministic: items are gathered in sorted (key, kind) order, each
// item writes only its own slice of the member array and each lane only
// its own cluster list and scratch, and the merge walks the items in
// order — so the result is byte-identical to cluster_stg for any lane
// count (a null pool or one lane IS the serial loop).  When
// `trace` is set, each lane that ran at least one item records a
// "cluster.shard" span with its lane index and item count.  A task that
// throws is contained by the pool and its items are re-clustered
// serially, keeping the output equivalent.
ClusteringResult cluster_stg_parallel(const Stg& stg,
                                      const ClusterOptions& opts,
                                      util::WorkerPool* pool,
                                      obs::TraceRecorder* trace = nullptr);

// Convenience overload owning a transient pool of `threads` lanes for the
// duration of the call (threads == 1 skips the pool entirely).  Prefer the
// pool overload on the hot path — the AnalysisServer keeps one persistent
// pool per server instead of spawning threads per window.
ClusteringResult cluster_stg_parallel(const Stg& stg,
                                      const ClusterOptions& opts,
                                      int threads,
                                      obs::TraceRecorder* trace = nullptr);

}  // namespace vapro::core
