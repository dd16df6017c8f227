#include "src/core/clustering.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/check.hpp"
#include "src/util/pipeline.hpp"

namespace vapro::core {

std::size_t ClusteringResult::rare_count() const {
  std::size_t n = 0;
  for (const auto& c : clusters)
    if (c.rare) ++n;
  return n;
}

namespace {

// One row of the norm-sorted sweep.  The workload dims themselves live in
// EntryBlock::dims (one flat column for the whole work item) — sorting
// moves only these 24-byte records, and the sweep's norm comparisons walk
// a contiguous array instead of hopping between per-fragment vectors.
struct NormEntry {
  double norm;
  std::size_t frag_idx;
  std::size_t pos;  // row index into EntryBlock::dims (pre-sort order)
};

// Algorithm 1's input: a dense row-major dims block plus norm-sorted
// entries pointing into it.  All fragments of one work item share a kind
// (one STG edge → computation, one vertex → its op's kind), so every row
// has the same width.
struct EntryBlock {
  std::vector<double> dims;
  std::vector<NormEntry> entries;
  std::size_t dim_count = 0;

  const double* row(std::size_t pos) const {
    return dims.data() + pos * dim_count;
  }
};

// Identical floating-point op order to WorkloadVector::norm()/distance()
// (src/core/fragment.cpp) — the SoA sweep must reproduce the AoS sweep's
// results bit-for-bit, and FP summation order is part of that contract.
double row_norm(const double* d, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += d[i] * d[i];
  return std::sqrt(s);
}

double row_distance(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

// Builds the norm-sorted entry block Algorithm 1 sweeps over.  The sort
// comparator looks only at norms, exactly like the AoS version did, so
// std::sort — whose control flow is a pure function of the comparator
// outcome sequence — produces the same permutation it always did.
EntryBlock make_entries(const Stg& stg, const std::vector<std::size_t>& indices,
                        const ClusterOptions& opts) {
  EntryBlock blk;
  const FragmentColumns& cols = stg.fragments();
  blk.dim_count =
      workload_dim_count(cols.kind(indices.front()), opts.proxies.size());
  blk.dims.resize(indices.size() * blk.dim_count);
  blk.entries.reserve(indices.size());
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    const std::size_t idx = indices[pos];
    VAPRO_DCHECK(workload_dim_count(cols.kind(idx), opts.proxies.size()) ==
                 blk.dim_count);
    double* row = blk.dims.data() + pos * blk.dim_count;
    write_workload_dims(cols.kind(idx), cols, idx, opts.proxies, row);
    blk.entries.push_back(NormEntry{row_norm(row, blk.dim_count), idx, pos});
  }
  std::sort(
      blk.entries.begin(), blk.entries.end(),
      [](const NormEntry& a, const NormEntry& b) { return a.norm < b.norm; });
  return blk;
}

}  // namespace

std::vector<Cluster> cluster_fragments(const Stg& stg,
                                       const std::vector<std::size_t>& indices,
                                       const ClusterOptions& opts) {
  std::vector<Cluster> out;
  if (indices.empty()) return out;
  const EntryBlock blk = make_entries(stg, indices, opts);
  const std::vector<NormEntry>& entries = blk.entries;
  const FragmentColumns& cols = stg.fragments();
  const std::size_t first = indices.front();
  std::vector<bool> used(entries.size(), false);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (used[i]) continue;
    // Smallest-norm unprocessed fragment seeds a new cluster.
    Cluster cluster;
    cluster.from = cols.from(first);
    cluster.to = cols.to(first);
    cluster.kind = cols.kind(first);
    cluster.seed_norm = entries[i].norm;
    cluster.members.push_back(entries[i].frag_idx);
    used[i] = true;
    // Relative threshold of the seed norm, with a floor so zero-norm seeds
    // (e.g. empty transitions) still form a cluster.
    const double radius = std::max(entries[i].norm * opts.threshold, 1e-12);
    const double* seed_row = blk.row(entries[i].pos);
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[j].norm - entries[i].norm > radius) break;  // sorted sweep
      if (used[j]) continue;
      if (row_distance(seed_row, blk.row(entries[j].pos), blk.dim_count) <=
          radius) {
        cluster.members.push_back(entries[j].frag_idx);
        used[j] = true;
      }
    }
    cluster.rare =
        cluster.members.size() < static_cast<std::size_t>(opts.min_cluster_size);
    out.push_back(std::move(cluster));
  }
  return out;
}

namespace {

struct WorkItem {
  std::uint64_t key = 0;  // edge_key() for edges, StateKey for vertices
  bool vertex = false;
  const std::vector<std::size_t>* fragments = nullptr;
};

// Work items (edge/vertex fragment lists) in deterministic (key, kind)
// order — a total order even if an edge hash ever collides with a vertex
// key.
std::vector<WorkItem> gather_work(const Stg& stg) {
  std::vector<WorkItem> out;
  out.reserve(stg.edge_count() + stg.vertex_count());
  for (const auto& [key, edge] : stg.edges()) {
    if (!edge.fragments.empty())
      out.push_back(WorkItem{key, false, &edge.fragments});
  }
  for (const auto& [key, vertex] : stg.vertices()) {
    if (!vertex.fragments.empty())
      out.push_back(WorkItem{key, true, &vertex.fragments});
  }
  std::sort(out.begin(), out.end(), [](const WorkItem& a, const WorkItem& b) {
    return a.key != b.key ? a.key < b.key : a.vertex < b.vertex;
  });
  return out;
}

ClusteringResult merge_item_clusters(
    std::vector<std::vector<Cluster>>&& per_item) {
  ClusteringResult result;
  for (auto& item : per_item) {
    for (auto& c : item) result.clusters.push_back(std::move(c));
  }
  return result;
}

}  // namespace

ClusteringResult cluster_stg(const Stg& stg, const ClusterOptions& opts) {
  return cluster_stg_parallel(stg, opts, static_cast<util::WorkerPool*>(nullptr));
}

ClusteringResult cluster_stg_parallel(const Stg& stg,
                                      const ClusterOptions& opts,
                                      util::WorkerPool* pool,
                                      obs::TraceRecorder* trace) {
  auto work = gather_work(stg);
  std::vector<std::vector<Cluster>> per_item(work.size());
  if (!pool || pool->lanes() == 1 || work.size() < 2) {
    for (std::size_t i = 0; i < work.size(); ++i)
      per_item[i] = cluster_fragments(stg, *work[i].fragments, opts);
    return merge_item_clusters(std::move(per_item));
  }
  // Each lane writes only its own slots below (lane-indexed, and the hook
  // runs on the lane's own thread), so no locking is needed.
  std::vector<std::uint64_t> lane_t0(pool->lanes(), 0);
  std::vector<std::uint8_t> lane_started(pool->lanes(), 0);
  const std::size_t failed = pool->run(
      work.size(),
      [&](std::size_t i, std::size_t lane) {
        if (trace && !lane_started[lane]) {
          lane_started[lane] = 1;
          lane_t0[lane] = trace->now_ns();
        }
        per_item[i] = cluster_fragments(stg, *work[i].fragments, opts);
      },
      [&](const util::WorkerPool::LaneReport& report) {
        if (trace)
          trace->complete(
              "cluster.shard", "obs", lane_t0[report.lane],
              {obs::TraceRecorder::arg("lane",
                                       static_cast<std::uint64_t>(report.lane)),
               obs::TraceRecorder::arg("items", report.tasks)});
      });
  if (failed > 0) {
    // A task that threw left its slot empty (an item always yields at
    // least one cluster), so a serial retry of just those items is
    // byte-equivalent to a clean run.
    for (std::size_t i = 0; i < work.size(); ++i)
      if (per_item[i].empty())
        per_item[i] = cluster_fragments(stg, *work[i].fragments, opts);
  }
  return merge_item_clusters(std::move(per_item));
}

ClusteringResult cluster_stg_parallel(const Stg& stg,
                                      const ClusterOptions& opts,
                                      int threads,
                                      obs::TraceRecorder* trace) {
  VAPRO_CHECK(threads >= 1);
  if (threads == 1) return cluster_stg(stg, opts);
  util::WorkerPool pool(static_cast<std::size_t>(threads));
  return cluster_stg_parallel(stg, opts, &pool, trace);
}

}  // namespace vapro::core
