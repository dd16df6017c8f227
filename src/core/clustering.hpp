// Fixed-workload identification by clustering (paper §3.4, Algorithm 1).
//
// Per STG edge/vertex, workload vectors are sorted by Euclidean norm; the
// unprocessed fragment with the smallest norm seeds a cluster that absorbs
// every fragment within a relative distance threshold (5% by default).
// Sorting by norm makes the sweep linear: members of a seed's cluster can
// only live in the norm window [‖seed‖, ‖seed‖·(1+threshold)], because
// |‖a‖−‖b‖| ≤ ‖a−b‖.
//
// Clusters with fewer than `min_cluster_size` members are flagged "rare"
// (Algorithm 1 line 8): they are excluded from variance normalization but
// reported so users can inspect non-repeated long executions.
#pragma once

#include <cstddef>
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
  std::vector<std::size_t> members;  // fragment indices into the Stg
  double seed_norm = 0.0;            // least norm in the cluster
  bool rare = false;
};

struct ClusteringResult {
  std::vector<Cluster> clusters;

  std::size_t rare_count() const;
};

// Clusters one fragment set (all fragments must share an edge or vertex).
// `indices` index into stg.fragments().
std::vector<Cluster> cluster_fragments(const Stg& stg,
                                       const std::vector<std::size_t>& indices,
                                       const ClusterOptions& opts);

// Runs Algorithm 1 over every edge and vertex of the STG.
ClusteringResult cluster_stg(const Stg& stg, const ClusterOptions& opts);

// Same result, but edge/vertex work items are sharded across `pool`'s
// lanes — the multi-threaded analysis server of §5.  Output is
// deterministic: items are gathered in sorted (key, kind) order, each
// lane writes only its own item-indexed slots, and the merge walks the
// slots in item order — so the result is byte-identical to cluster_stg
// for any lane count (a null pool or one lane IS the serial loop).  When
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
