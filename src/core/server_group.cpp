#include "src/core/server_group.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "src/obs/exposition.hpp"
#include "src/testing/fault.hpp"
#include "src/util/check.hpp"

namespace vapro::core {

namespace {
constexpr FragmentKind kAllKinds[] = {FragmentKind::kComputation,
                                      FragmentKind::kCommunication,
                                      FragmentKind::kIo};
}  // namespace

ServerGroup::ServerGroup(int ranks, int servers, ServerOptions opts)
    : ranks_(ranks),
      variance_threshold_(opts.variance_threshold),
      bin_seconds_(opts.bin_seconds),
      obs_(opts.obs),
      live_detection_(opts.live_detection),
      fan_out_(static_cast<std::size_t>(std::max(servers, 1)), opts.clock) {
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
  if (obs_ && live_detection_) attach_live_routes();
}

ServerGroup::~ServerGroup() {
  if (!obs_ || live_routes_.empty()) return;
  if (obs::ExpositionServer* http = obs_->exposition())
    for (const std::string& path : live_routes_) http->remove_route(path);
}

void ServerGroup::attach_live_routes() {
  obs::ExpositionServer* http = obs_->exposition();
  if (!http) return;
  http->add_route("/v1/heatmap", [this] {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = render_heatmap_json();
    return r;
  });
  http->add_route("/v1/variance", [this] {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = render_variance_json();
    return r;
  });
  http->add_route("/v1/latency", [this] {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = render_latency_json();
    return r;
  });
  http->add_route("/v1/critical_path", [this] {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = render_critical_path_json();
    return r;
  });
  live_routes_ = {"/v1/heatmap", "/v1/variance", "/v1/latency",
                  "/v1/critical_path"};
}

void ServerGroup::process_window(FragmentBatch batch) {
  obs::TraceRecorder* trace = obs_ ? obs_->trace() : nullptr;
  obs::ToolTimeScope tool_time(obs_ ? &obs_->overhead() : nullptr);
  // Held across the leaf tasks so /v1 scrapes see whole windows.
  std::lock_guard<std::mutex> live_lock(live_mu_);
  const std::uint64_t t0 = trace ? trace->now_ns() : 0;
  const std::uint64_t total_fragments = batch.fragments.size();

  const int n = servers();
  std::vector<FragmentBatch> shards(static_cast<std::size_t>(n));
  // State announcements go to every leaf (cheap, idempotent).
  for (auto& shard : shards) shard.new_states = batch.new_states;
  // Demux by rank with two contiguous column scans (window end, then
  // shard routing); each shard's columns receive a materialized copy of
  // the fragment — the shard batch then moves into its leaf's pipeline by
  // arena swap.
  double window_end = 0.0;
  const double* ends = batch.fragments.end_data();
  for (std::size_t i = 0; i < total_fragments; ++i)
    window_end = std::max(window_end, ends[i]);
  const sim::RankId* ranks = batch.fragments.rank_data();
  for (std::size_t i = 0; i < total_fragments; ++i)
    shards[static_cast<std::size_t>(ranks[i] % n)].fragments.push_back(
        batch.fragments.materialize(i));
  // One task per leaf: a serial leaf analyzes its shard on the lane, a
  // pipelined one only hands it to its own worker.  A leaf's exception is
  // kept in its slot and the first one rethrown once every leaf is done.
  std::vector<std::exception_ptr> errors(shards.size());
  fan_out_.run(shards.size(), [&](std::size_t s, std::size_t) {
    // Each leaf's own "analysis.window" span lands on this lane's trace
    // track; the extra span names the shard it belongs to.
    obs::TraceSpan leaf_span(trace, "group.leaf", "server_group",
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

  last_virtual_time_ = std::max(last_virtual_time_, window_end);
  if (obs_) {
    obs_->metrics().counter("vapro.group.windows_total")->inc();
    obs_->metrics()
        .counter("vapro.group.fragments_total")
        ->inc(total_fragments);
    if (live_detection_) {
      if (VAPRO_FAULT("group.merge") == testing::FaultAction::kFail)
        // Merged publish lost for this window; leaves are unaffected and
        // the final snapshot still recovers the merged regions.
        ++merge_faults_;
      else
        publish_detection(static_cast<std::int64_t>(windows_),
                          last_virtual_time_, total_fragments);
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

void ServerGroup::publish_detection(std::int64_t window, double virtual_time,
                                    std::uint64_t fragments) {
  Heatmap comp = merged_map(FragmentKind::kComputation);
  Heatmap comm = merged_map(FragmentKind::kCommunication);
  Heatmap io = merged_map(FragmentKind::kIo);
  const Heatmap* maps[3] = {&comp, &comm, &io};
  // The merged maps are rebuilt every window, so their caches are too:
  // each update is a from-scratch pass.
  RegionCache caches[3] = {RegionCache(variance_threshold_),
                           RegionCache(variance_threshold_),
                           RegionCache(variance_threshold_)};
  const RegionCache* updated[3];
  for (int k = 0; k < 3; ++k) {
    caches[k].update(*maps[k]);
    updated[k] = &caches[k];
  }
  const CoverageAccumulator cov = merged_coverage();
  const DetectionHealth health = detection_health(maps, updated, cov);
  publish_health_gauges(obs_->metrics(), health);

  obs::Journal* journal = obs_->journal();
  if (!journal) return;
  for (FragmentKind kind : kAllKinds)
    region_journal_.emit(*journal, kind,
                         caches[static_cast<int>(kind)].regions(), window,
                         virtual_time, bin_seconds_,
                         /*final_snapshot=*/false);
  journal_window_event(
      *journal, window, virtual_time, health,
      {obs::JournalField::num("fragments", fragments),
       obs::JournalField::num("leaves",
                              static_cast<std::uint64_t>(leaves_.size()))});
}

void ServerGroup::journal_detection_snapshot() const {
  obs::Journal* journal = obs_ ? obs_->journal() : nullptr;
  if (!journal) return;
  std::lock_guard<std::mutex> lock(live_mu_);
  const std::int64_t window =
      windows_ ? static_cast<std::int64_t>(windows_) - 1 : -1;
  for (FragmentKind kind : kAllKinds)
    region_journal_.emit(*journal, kind, locate(kind), window,
                         last_virtual_time_, bin_seconds_,
                         /*final_snapshot=*/true);
  journal->flush();
}

std::string ServerGroup::render_heatmap_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  Heatmap comp = merged_map(FragmentKind::kComputation);
  Heatmap comm = merged_map(FragmentKind::kCommunication);
  Heatmap io = merged_map(FragmentKind::kIo);
  const Heatmap* maps[3] = {&comp, &comm, &io};
  return core::render_heatmap_json(maps, ranks_, bin_seconds_);
}

std::string ServerGroup::render_variance_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  std::vector<VarianceRegion> regions[3];
  for (FragmentKind kind : kAllKinds)
    regions[static_cast<int>(kind)] = locate(kind);
  return core::render_variance_json(regions, windows_, last_virtual_time_,
                                    bin_seconds_, variance_threshold_);
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
  Heatmap merged(ranks_, bin_seconds_);
  for (const auto& leaf : leaves_) {
    switch (kind) {
      case FragmentKind::kComputation:
        merged.merge(leaf->computation_map());
        break;
      case FragmentKind::kCommunication:
        merged.merge(leaf->communication_map());
        break;
      case FragmentKind::kIo:
        merged.merge(leaf->io_map());
        break;
    }
  }
  return merged;
}

std::vector<VarianceRegion> ServerGroup::locate(FragmentKind kind) const {
  return find_variance_regions(merged_map(kind), variance_threshold_);
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
