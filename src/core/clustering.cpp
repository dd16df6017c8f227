#include "src/core/clustering.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

#include "src/util/check.hpp"
#include "src/util/pipeline.hpp"

namespace vapro::core {

ClusteringResult::ClusteringResult(const ClusteringResult& other)
    : clusters(other.clusters), member_array(other.member_array) {
  const std::size_t* const from = other.member_array.data();
  for (Cluster& c : clusters) {
    if (c.members.empty()) {
      c.members = {};
      continue;
    }
    VAPRO_DCHECK(std::less_equal<>{}(from, c.members.data()) &&
                 std::less_equal<>{}(c.members.data() + c.members.size(),
                                     from + other.member_array.size()));
    const auto offset = static_cast<std::size_t>(c.members.data() - from);
    c.members = {member_array.data() + offset, c.members.size()};
  }
}

ClusteringResult& ClusteringResult::operator=(const ClusteringResult& other) {
  if (this != &other) *this = ClusteringResult(other);
  return *this;
}

std::size_t ClusteringResult::rare_count() const {
  std::size_t n = 0;
  for (const auto& c : clusters)
    if (c.rare) ++n;
  return n;
}

namespace {

// One row of the norm-sorted sweep: the norm and the row's arrival
// position in its work item (into the item's fragment list and the dims
// block).  Sorting moves these 16 bytes, and the sweep's norm comparisons
// walk a contiguous array.
struct SortKey {
  double norm;
  std::uint32_t pos;
};

// A lane's working memory, reused by every item the lane clusters: the
// item's workload rows (one dense row-major block; all fragments of an
// item share a kind, so every row has the same width), its sort keys and
// the radix sort's second buffer, and the sweep's used flags.
struct LaneScratch {
  std::vector<double> dims;
  std::vector<SortKey> keys;
  std::vector<SortKey> spare;
  std::vector<std::uint8_t> used;
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

std::uint64_t norm_bits(double norm) {
  return std::bit_cast<std::uint64_t>(norm);
}

// Bit patterns below +inf's are exactly the finite doubles with a clear
// sign bit, whose bits order as their values do.
constexpr std::uint64_t kInfBits = 0x7ff0000000000000ULL;

// Below this many keys std::sort is cheaper than the radix sort's fixed
// cost (eight 256-bucket histograms).
constexpr std::size_t kRadixMinKeys = 64;

// LSD radix sort of `keys` ascending by norm, one byte of the norm's bits
// a pass; a byte every key shares moves nothing and is skipped.  Every
// norm's bits must be below kInfBits.
void radix_sort(std::vector<SortKey>& keys, std::vector<SortKey>& spare) {
  const std::size_t n = keys.size();
  std::uint32_t counts[8][256] = {};
  for (const SortKey& k : keys) {
    const std::uint64_t bits = norm_bits(k.norm);
    for (int d = 0; d < 8; ++d) ++counts[d][(bits >> (8 * d)) & 0xff];
  }
  spare.resize(n);
  SortKey* src = keys.data();
  SortKey* dst = spare.data();
  for (int d = 0; d < 8; ++d) {
    std::uint32_t* count = counts[d];
    const int shift = 8 * d;
    if (count[(norm_bits(src[0].norm) >> shift) & 0xff] == n) continue;
    std::uint32_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const std::uint32_t here = count[b];
      count[b] = offset;
      offset += here;
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[count[(norm_bits(src[i].norm) >> shift) & 0xff]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys.data()) keys.swap(spare);
}

// Sorts the item's keys ascending by norm.  std::sort's control flow is a
// pure function of the comparator outcome sequence, so over the keys in
// arrival order it yields the permutation every earlier version of this
// sweep produced, ties included.  Without ties that order is unique, so
// the radix sort finds the same one; `radix` says the caller saw at least
// kRadixMinKeys finite, non-negative norms and no two equal neighbours in
// arrival order.  A tie the radix sort still turns up sends the item back
// to arrival order and std::sort.
void sort_keys(LaneScratch& s, bool radix) {
  std::vector<SortKey>& keys = s.keys;
  if (radix) {
    radix_sort(keys, s.spare);
    bool tied = false;
    for (std::size_t i = 1; i < keys.size() && !tied; ++i)
      tied = keys[i].norm == keys[i - 1].norm;
    if (!tied) return;
    for (const SortKey& k : keys) s.spare[k.pos] = k;
    keys.swap(s.spare);
  }
  std::sort(keys.begin(), keys.end(), [](const SortKey& a, const SortKey& b) {
    return a.norm < b.norm;
  });
}

// Algorithm 1 over one work item (all fragments share an edge or vertex;
// `indices` index into stg.fragments()).  The members go to `slice`,
// which has indices.size() slots, cluster by cluster in sweep order, and
// the clusters, viewing their parts of it, are appended to `out`.
void cluster_item(const Stg& stg, const std::vector<std::size_t>& indices,
                  const ClusterOptions& opts, LaneScratch& s,
                  std::size_t* slice, std::vector<Cluster>& out) {
  const FragmentColumns& cols = stg.fragments();
  const std::size_t n = indices.size();
  VAPRO_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t first = indices.front();
  const FragmentKind kind = cols.kind(first);
  const std::size_t dim_count = workload_dim_count(kind, opts.proxies.size());
  s.dims.resize(n * dim_count);
  s.keys.resize(n);
  bool radix = n >= kRadixMinKeys;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t idx = indices[pos];
    VAPRO_DCHECK(workload_dim_count(cols.kind(idx), opts.proxies.size()) ==
                 dim_count);
    double* row = s.dims.data() + pos * dim_count;
    write_workload_dims(cols.kind(idx), cols, idx, opts.proxies, row);
    const double norm = row_norm(row, dim_count);
    radix = radix && norm_bits(norm) < kInfBits &&
            (pos == 0 || norm != s.keys[pos - 1].norm);
    s.keys[pos] = SortKey{norm, static_cast<std::uint32_t>(pos)};
  }
  sort_keys(s, radix);

  const SortKey* keys = s.keys.data();
  const double* dims = s.dims.data();
  s.used.assign(n, 0);
  std::uint8_t* used = s.used.data();
  std::size_t written = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (used[i]) continue;
    // Smallest-norm unprocessed fragment seeds a new cluster.
    const std::size_t begin = written;
    slice[written++] = indices[keys[i].pos];
    used[i] = 1;
    // Relative threshold of the seed norm, with a floor so zero-norm seeds
    // (e.g. empty transitions) still form a cluster.
    const double radius = std::max(keys[i].norm * opts.threshold, 1e-12);
    const double* seed_row = dims + keys[i].pos * dim_count;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (keys[j].norm - keys[i].norm > radius) break;  // sorted sweep
      if (used[j]) continue;
      if (row_distance(seed_row, dims + keys[j].pos * dim_count, dim_count) <=
          radius) {
        slice[written++] = indices[keys[j].pos];
        used[j] = 1;
      }
    }
    Cluster cluster;
    cluster.from = cols.from(first);
    cluster.to = cols.to(first);
    cluster.kind = kind;
    cluster.members = {slice + begin, written - begin};
    cluster.seed_norm = keys[i].norm;
    cluster.rare = cluster.members.size() <
                   static_cast<std::size_t>(opts.min_cluster_size);
    out.push_back(cluster);
  }
}

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

// Where an item's clusters landed: [begin, end) of its lane's list.  An
// item always yields at least one cluster, so an empty range is an item
// whose task did not finish.
struct ItemClusters {
  std::size_t lane = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

}  // namespace

ClusteringResult cluster_stg(const Stg& stg, const ClusterOptions& opts) {
  return cluster_stg_parallel(stg, opts, static_cast<util::WorkerPool*>(nullptr));
}

ClusteringResult cluster_stg_parallel(const Stg& stg,
                                      const ClusterOptions& opts,
                                      util::WorkerPool* pool,
                                      obs::TraceRecorder* trace) {
  const std::vector<WorkItem> work = gather_work(stg);
  // An item's clusters partition its fragments, so its slice of the
  // member array is as long as its fragment list, and the slices are laid
  // out before any item is swept.
  std::vector<std::size_t> slice_begin(work.size() + 1, 0);
  for (std::size_t i = 0; i < work.size(); ++i)
    slice_begin[i + 1] = slice_begin[i] + work[i].fragments->size();
  ClusteringResult result;
  result.member_array.resize(slice_begin.back());
  std::size_t* const members = result.member_array.data();
  if (!pool || pool->lanes() == 1 || work.size() < 2) {
    LaneScratch scratch;
    for (std::size_t i = 0; i < work.size(); ++i)
      cluster_item(stg, *work[i].fragments, opts, scratch,
                   members + slice_begin[i], result.clusters);
    return result;
  }
  // Each lane writes only its own scratch, cluster list and trace slots
  // (lane-indexed, and the hook runs on the lane's own thread), and each
  // item only its own slice and record, so no locking is needed.
  const std::size_t lanes = pool->lanes();
  std::vector<LaneScratch> scratch(lanes);
  std::vector<std::vector<Cluster>> lane_clusters(lanes);
  std::vector<ItemClusters> placed(work.size());
  std::vector<std::uint64_t> lane_t0(lanes, 0);
  std::vector<std::uint8_t> lane_started(lanes, 0);
  const auto run_item = [&](std::size_t i, std::size_t lane) {
    std::vector<Cluster>& out = lane_clusters[lane];
    const std::size_t begin = out.size();
    cluster_item(stg, *work[i].fragments, opts, scratch[lane],
                 members + slice_begin[i], out);
    placed[i] = ItemClusters{lane, begin, out.size()};
  };
  const std::size_t failed = pool->run(
      work.size(),
      [&](std::size_t i, std::size_t lane) {
        if (trace && !lane_started[lane]) {
          lane_started[lane] = 1;
          lane_t0[lane] = trace->now_ns();
        }
        run_item(i, lane);
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
    // A task that threw left its item unplaced; a serial retry rewrites
    // the item's whole slice, and the clusters the failed attempt left in
    // its lane's list are never placed, so the result is byte-equivalent
    // to a clean run.
    for (std::size_t i = 0; i < work.size(); ++i)
      if (placed[i].begin == placed[i].end) run_item(i, 0);
  }
  std::size_t total = 0;
  for (const ItemClusters& p : placed) total += p.end - p.begin;
  result.clusters.reserve(total);
  for (const ItemClusters& p : placed) {
    const std::vector<Cluster>& from = lane_clusters[p.lane];
    result.clusters.insert(result.clusters.end(),
                           from.begin() + static_cast<std::ptrdiff_t>(p.begin),
                           from.begin() + static_cast<std::ptrdiff_t>(p.end));
  }
  return result;
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
