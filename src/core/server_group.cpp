#include "src/core/server_group.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "src/obs/span.hpp"
#include "src/testing/fault.hpp"
#include "src/util/check.hpp"

namespace vapro::core {

namespace {
constexpr FragmentKind kAllKinds[] = {FragmentKind::kComputation,
                                      FragmentKind::kCommunication,
                                      FragmentKind::kIo};

const Heatmap& leaf_map(const AnalysisServer& leaf, FragmentKind kind) {
  switch (kind) {
    case FragmentKind::kCommunication:
      return leaf.communication_map();
    case FragmentKind::kIo:
      return leaf.io_map();
    default:
      return leaf.computation_map();
  }
}
}  // namespace

ServerGroup::ServerGroup(int ranks, int servers, ServerOptions opts)
    : obs_(opts.obs),
      live_detection_(opts.live_detection),
      fan_out_(static_cast<std::size_t>(std::max(servers, 1)), opts.clock),
      live_(ranks, opts.bin_seconds, opts.variance_threshold),
      leaf_writes_(static_cast<std::size_t>(std::max(servers, 1))) {
  VAPRO_CHECK(servers >= 1 && ranks >= 1);
  // Each leaf runs its own analysis; intra-leaf threading stays at 1 since
  // the leaves themselves run concurrently.  pipeline_depth passes through:
  // a pipelined leaf's process_window only hands its shard to the leaf's
  // own analysis worker.
  opts.analysis_threads = 1;
  // The root owns the live detection surfaces (class comment).
  opts.live_detection = false;
  leaves_.reserve(static_cast<std::size_t>(servers));
  for (int s = 0; s < servers; ++s)
    leaves_.push_back(std::make_unique<AnalysisServer>(ranks, opts));
  if (obs_ && live_detection_) live_routes_ = add_live_routes(*obs_, *this);
}

ServerGroup::~ServerGroup() {
  if (live_routes_) remove_live_routes(*obs_);
}

void ServerGroup::process_window(FragmentBatch batch) {
  obs::TraceRecorder* trace = obs_ ? obs_->trace() : nullptr;
  obs::Counter* spans_dropped =
      trace ? obs_->metrics().counter("vapro.obs.spans_dropped_total")
            : nullptr;
  // The leaves charge their own analysis; the group charges only its
  // demux and publish, so no tool time is counted twice.
  obs::OverheadAccountant* overhead = obs_ ? &obs_->overhead() : nullptr;
  // Held across the leaf tasks so /v1 scrapes see whole windows.
  std::lock_guard<std::mutex> live_lock(live_mu_);
  const std::uint64_t t0 = trace ? trace->now_ns() : 0;
  const std::uint64_t total_fragments = batch.fragments.size();

  const int n = servers();
  std::vector<FragmentBatch> shards(static_cast<std::size_t>(n));
  double window_end = 0.0;
  {
    obs::ToolTimeScope demux_time(overhead);
    // State announcements go to every leaf (cheap, idempotent).
    for (auto& shard : shards) shard.new_states = batch.new_states;
    // Demux by rank with two contiguous column scans (window end, then
    // shard routing); each shard's columns receive a materialized copy of
    // the fragment — the shard batch then moves into its leaf's pipeline
    // by buffer swap.
    const double* ends = batch.fragments.end_data();
    for (std::size_t i = 0; i < total_fragments; ++i)
      window_end = std::max(window_end, ends[i]);
    const sim::RankId* ranks = batch.fragments.rank_data();
    for (std::size_t i = 0; i < total_fragments; ++i)
      shards[static_cast<std::size_t>(ranks[i] % n)].fragments.push_back(
          batch.fragments.materialize(i));
  }
  // One task per leaf: a serial leaf analyzes its shard on the lane, a
  // pipelined one only hands it to its own worker.  A leaf's exception is
  // kept in its slot and the first one rethrown once every leaf is done.
  std::vector<std::exception_ptr> errors(shards.size());
  fan_out_.run(shards.size(), [&](std::size_t s, std::size_t) {
    // Each leaf's own "analysis.window" span lands on this lane's trace
    // track; the extra span names the shard it belongs to.
    obs::SpanScope leaf_span({trace, spans_dropped}, "group.leaf",
                             "server_group",
                             {obs::TraceRecorder::arg(
                                 "shard", static_cast<std::uint64_t>(s))});
    try {
      leaves_[s]->process_window(std::move(shards[s]));
    } catch (...) {
      errors[s] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);

  obs::ToolTimeScope publish_time(overhead);
  last_virtual_time_ = std::max(last_virtual_time_, window_end);
  if (obs_) {
    obs_->metrics().counter("vapro.group.windows_total")->inc();
    obs_->metrics()
        .counter("vapro.group.fragments_total")
        ->inc(total_fragments);
    if (live_detection_) {
      if (VAPRO_FAULT("group.merge") == testing::FaultAction::kFail) {
        // Merged publish lost for this window; leaves are unaffected and
        // the final snapshot still recovers the merged regions.
        ++merge_faults_;
      } else {
        refresh_locked();
        live_.publish(
            *obs_, merged_coverage(), static_cast<std::int64_t>(windows_),
            last_virtual_time_,
            {obs::JournalField::num("fragments", total_fragments),
             obs::JournalField::num(
                 "leaves", static_cast<std::uint64_t>(leaves_.size()))});
      }
    }
    if (trace)
      trace->complete(
          "group.window", "server_group", t0,
          {obs::TraceRecorder::arg("leaves", static_cast<std::uint64_t>(n)),
           obs::TraceRecorder::arg("fragments", total_fragments)});
  }
  ++windows_;
}

void ServerGroup::sync() const {
  for (const auto& leaf : leaves_) leaf->sync();
}

void ServerGroup::refresh_locked() const {
  // Sync every leaf before touching root state, so a pipelined leaf's
  // rethrown exception leaves the root as it was.
  sync();
  for (FragmentKind kind : kAllKinds) {
    const int k = static_cast<int>(kind);
    int from = -1;
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
      const Heatmap& map = leaf_map(*leaves_[i], kind);
      std::uint64_t& seen = leaf_writes_[i][static_cast<std::size_t>(k)];
      if (map.writes() == seen) continue;
      const int lowest = map.first_column_written_after(seen);
      from = from < 0 ? lowest : std::min(from, lowest);
      seen = map.writes();
    }
    if (from < 0) continue;
    Heatmap& root = live_.map(kind);
    root.clear_from(from);
    for (const auto& leaf : leaves_) root.merge(leaf_map(*leaf, kind), from);
  }
}

void ServerGroup::journal_detection_snapshot() const {
  obs::Journal* journal = obs_ ? obs_->journal() : nullptr;
  if (!journal) return;
  std::lock_guard<std::mutex> lock(live_mu_);
  refresh_locked();
  const std::int64_t window =
      windows_ ? static_cast<std::int64_t>(windows_) - 1 : -1;
  live_.journal_snapshot(*journal, window, last_virtual_time_);
  journal->flush();
}

std::string ServerGroup::render_heatmap_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  refresh_locked();
  return live_.heatmap_json();
}

std::string ServerGroup::render_variance_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  refresh_locked();
  return live_.variance_json(windows_, last_virtual_time_);
}

std::string ServerGroup::render_latency_json() const {
  // Leaf trackers carry their own locks; no group lock needed, and a
  // mid-window scrape simply sees each shard's progress so far.
  std::ostringstream oss;
  oss << "{\"servers\":[";
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    if (i) oss << ',';
    oss << "{\"server\":" << i
        << ",\"latency\":" << leaves_[i]->render_latency_json() << '}';
  }
  oss << "]}";
  return oss.str();
}

std::string ServerGroup::render_critical_path_json() const {
  std::ostringstream oss;
  oss << "{\"servers\":[";
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    if (i) oss << ',';
    oss << "{\"server\":" << i << ",\"critical_path\":"
        << leaves_[i]->render_critical_path_json() << '}';
  }
  oss << "]}";
  return oss.str();
}

Heatmap ServerGroup::merged_map(FragmentKind kind) const {
  std::lock_guard<std::mutex> lock(live_mu_);
  refresh_locked();
  return live_.map(kind);
}

std::vector<VarianceRegion> ServerGroup::locate(FragmentKind kind) const {
  std::lock_guard<std::mutex> lock(live_mu_);
  refresh_locked();
  return live_.locate(kind);
}

CoverageAccumulator ServerGroup::merged_coverage() const {
  CoverageAccumulator out;
  for (const auto& leaf : leaves_) {
    const CoverageAccumulator& c = leaf->coverage();
    for (int k = 0; k < 3; ++k) {
      out.covered[k] += c.covered[k];
      out.observed[k] += c.observed[k];
    }
  }
  return out;
}

std::vector<RareFinding> ServerGroup::merged_rare_findings() const {
  std::vector<RareFinding> out;
  for (const auto& leaf : leaves_) {
    const auto& findings = leaf->rare_findings();
    out.insert(out.end(), findings.begin(), findings.end());
  }
  std::sort(out.begin(), out.end(),
            [](const RareFinding& a, const RareFinding& b) {
              return a.total_seconds > b.total_seconds;
            });
  return out;
}

std::vector<pmu::Counter> ServerGroup::counters_needed() const {
  std::vector<pmu::Counter> out;
  for (const auto& leaf : leaves_) {
    for (pmu::Counter c : leaf->counters_needed()) {
      if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    }
  }
  return out;
}

std::vector<FactorId> ServerGroup::merged_culprits() const {
  std::vector<FactorId> out;
  for (const auto& leaf : leaves_) {
    if (!leaf->diagnosis_finished()) continue;
    for (FactorId f : leaf->diagnosis().culprits) {
      if (std::find(out.begin(), out.end(), f) == out.end()) out.push_back(f);
    }
  }
  return out;
}

std::size_t ServerGroup::fragments_processed() const {
  std::size_t n = 0;
  for (const auto& leaf : leaves_) n += leaf->fragments_processed();
  return n;
}

}  // namespace vapro::core
