// Multi-server data collection (paper §5: "Vapro supports concurrent data
// collection with multiple servers to improve throughput.  By equally
// assigning parallel processes to different servers, servers can achieve
// load balance.  Further optimizations are feasible with ... MRNet, which
// organizes servers into a tree-like structure.")
//
// A ServerGroup shards ranks across N leaf AnalysisServers (rank % N) and
// aggregates their outputs at the root: merged heat maps, summed coverage,
// concatenated rare findings, and the union of per-shard diagnosis
// culprits.  Each window fans the shards out over a persistent WorkerPool
// with one lane per leaf.
//
// The root's merged maps persist.  Before any read (publish, snapshot,
// /v1 scrape, locate, merged_map) the root re-merges only the columns at
// or above the lowest one any leaf wrote since the last refresh, so its
// region caches re-label only that suffix and its per-window cost stays
// flat however long the run.  Each refreshed cell receives exactly the
// adds a merge from empty gives it, so every output equals a full merge.
//
// Trade-off vs a single server (tested in test_server_group.cpp): leaf
// clustering only compares ranks within a shard, so cross-shard twins are
// not merged — harmless for SPMD programs where every shard holds many
// ranks, which is exactly the load-balanced assignment the paper uses.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/server.hpp"

namespace vapro::core {

class ServerGroup {
 public:
  // `servers` leaf servers for `ranks` ranks; options are shared.  Leaves
  // are constructed with live_detection=false — the group publishes the
  // merged detection gauges, journal events, and /v1 routes itself, so the
  // shards don't each overwrite them with partial views.
  ServerGroup(int ranks, int servers, ServerOptions opts);
  ~ServerGroup();

  // Splits the batch by rank shard and processes all shards concurrently.
  // With pipeline_depth > 1 the shards are handed to the leaves' analysis
  // workers and this returns before they finish; sync() (or any leaf
  // accessor, which syncs implicitly) waits for them.  Rethrows the first
  // exception a leaf threw (by leaf index) once every leaf has returned.
  void process_window(FragmentBatch batch);

  // Blocks until every leaf has analyzed all its admitted shards;
  // rethrows an exception a pipelined leaf's window threw.
  void sync() const;

  int servers() const { return static_cast<int>(leaves_.size()); }
  const AnalysisServer& leaf(int i) const { return *leaves_[static_cast<std::size_t>(i)]; }

  // --- aggregated (root) views ---
  // Merged heat map for one category: the sum of the leaves' cells.
  Heatmap merged_map(FragmentKind kind) const;
  std::vector<VarianceRegion> locate(FragmentKind kind) const;
  CoverageAccumulator merged_coverage() const;
  std::vector<RareFinding> merged_rare_findings() const;
  // Counter demand: the union over leaves (they advance independently).
  std::vector<pmu::Counter> counters_needed() const;
  // Culprits reported by any leaf's finished diagnosis.
  std::vector<FactorId> merged_culprits() const;

  std::size_t fragments_processed() const;
  std::size_t windows_processed() const { return windows_; }
  // Windows whose merged root publish was lost to an injected
  // "group.merge" fault (leaves and the final snapshot are unaffected).
  std::size_t merge_faults() const { return merge_faults_; }

  // Final full-precision merged variance_region snapshot into the journal
  // (see AnalysisServer::journal_detection_snapshot).
  void journal_detection_snapshot() const;

  // Merged-view JSON served at /v1/heatmap and /v1/variance.
  std::string render_heatmap_json() const;
  std::string render_variance_json() const;

  // Self-diagnosis JSON served at /v1/latency and /v1/critical_path: one
  // per-leaf section each (stage timing is per shard server; summing
  // overlapping shards would fabricate a serial critical path).
  std::string render_latency_json() const;
  std::string render_critical_path_json() const;

 private:
  // Syncs the leaves and re-merges each root map from the lowest column
  // any leaf wrote since the last refresh; callers hold live_mu_.
  void refresh_locked() const;

  obs::ObsContext* obs_ = nullptr;  // shared with the leaves (borrowed)
  bool live_detection_ = false;     // publish merged root views?
  std::vector<std::unique_ptr<AnalysisServer>> leaves_;
  util::WorkerPool fan_out_;  // one lane per leaf
  // Serializes process_window (including its leaf tasks) against /v1
  // scrapes, root reads and journal_detection_snapshot; also keeps
  // fan_out_ to one run() at a time.
  mutable std::mutex live_mu_;
  // The merged root maps and their publish, guarded by live_mu_.
  mutable LiveDetection live_;
  // Per leaf and FragmentKind, the leaf map's writes() at the last refresh.
  mutable std::vector<std::array<std::uint64_t, 3>> leaf_writes_;
  bool live_routes_ = false;  // /v1 routes registered (add_live_routes)
  std::size_t windows_ = 0;
  std::size_t merge_faults_ = 0;
  double last_virtual_time_ = 0.0;
};

}  // namespace vapro::core
