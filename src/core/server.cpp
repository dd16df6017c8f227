#include "src/core/server.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "src/obs/journal.hpp"
#include "src/obs/span.hpp"
#include "src/testing/fault.hpp"
#include "src/util/check.hpp"

namespace vapro::core {

namespace {

// Lap timer splitting analyze_window into the PipelineStats stages: each
// lap charges the time since the previous one to a stage slot, so every
// statement of the window body is charged to exactly one stage and the
// stages sum to the window's tool time.  Queue wait ends at the first
// clock read; a window that never entered the hand-off queue
// (`submit_seconds` empty) has none.
class StageClock {
 public:
  StageClock(util::Clock* clock, obs::PipelineStats& stats,
             std::optional<double> submit_seconds)
      : clock_(clock ? clock : util::real_clock()),
        stats_(stats),
        last_(clock_->now_seconds()) {
    if (submit_seconds)
      stats_.seconds(obs::Stage::kQueueWait) =
          std::max(0.0, last_ - *submit_seconds);
  }
  void lap(obs::Stage stage) {
    const double now = clock_->now_seconds();
    stats_.seconds(stage) = now - last_;
    last_ = now;
  }

 private:
  util::Clock* clock_;
  obs::PipelineStats& stats_;
  double last_;
};

// The per-stage latency histograms: vapro.server.queue_wait_seconds and
// vapro.server.stage.<name>_seconds, indexed by obs::Stage.
const std::string& stage_histogram_name(std::size_t stage) {
  static const std::array<std::string, obs::kStageCount> names = [] {
    std::array<std::string, obs::kStageCount> n;
    for (std::size_t s = 0; s < obs::kStageCount; ++s)
      n[s] = std::string(static_cast<obs::Stage>(s) == obs::Stage::kQueueWait
                             ? "vapro.server."
                             : "vapro.server.stage.") +
             obs::kStageNames[s] + "_seconds";
    return n;
  }();
  return names[stage];
}

DiagnosisOptions with_obs(DiagnosisOptions diag, obs::ObsContext* obs) {
  diag.obs = obs;
  return diag;
}
}  // namespace

AnalysisServer::AnalysisServer(int ranks, ServerOptions opts)
    : opts_(opts),
      stg_(opts.stg_mode),
      baseline_(opts.cluster.threshold),
      live_(ranks, opts.bin_seconds, opts.variance_threshold),
      diagnoser_(opts.machine, with_obs(opts.diagnosis, opts.obs)) {
  VAPRO_CHECK(ranks > 0);
  VAPRO_CHECK(opts_.pipeline_depth >= 1);
  VAPRO_CHECK(opts_.analysis_threads >= 1);
  if (opts_.analysis_threads > 1)
    // One persistent intra-window pool for the whole server: clustering
    // and the detection pass fan out across its lanes instead of spawning
    // threads per window.
    workers_ = std::make_unique<util::WorkerPool>(
        static_cast<std::size_t>(opts_.analysis_threads), opts_.clock);
  if (opts_.pipeline_depth > 1)
    // depth d admits one window in flight on the worker plus d-1 queued.
    pipeline_ = std::make_unique<util::StageExecutor<PendingWindow>>(
        static_cast<std::size_t>(opts_.pipeline_depth - 1),
        [this](PendingWindow w) {
          analyze_window(std::move(w.batch), w.drain_seconds,
                         w.submit_seconds, w.flow_id);
        },
        opts_.clock);
  // The exposition server must already be started (CLIs call
  // start_exposition before constructing the session); handlers run on
  // the serve thread and synchronize with process_window via live_mu_
  // inside the render methods.
  if (opts_.obs && opts_.live_detection)
    live_routes_ = add_live_routes(*opts_.obs, *this);
}

AnalysisServer::~AnalysisServer() {
  // Stop the stage worker before anything it writes is torn down; queued
  // windows are still analyzed (the worker finishes its backlog before it
  // exits).  The shard pool goes second: the stage worker fans out
  // through it.
  pipeline_.reset();
  workers_.reset();
  if (live_routes_) remove_live_routes(*opts_.obs);
}

void AnalysisServer::sync() const {
  if (!pipeline_) return;
  pipeline_->drain();
  publish_pipeline_gauges();
}

void AnalysisServer::refocus_diagnosis(std::optional<FocusRegion> focus) {
  // A restart must interleave with window analysis exactly as it would
  // serially: all admitted windows feed the old focus first.
  sync();
  diagnoser_.restart(std::move(focus));
}

void AnalysisServer::process_window(FragmentBatch batch, double drain_seconds) {
  obs::TraceRecorder* trace = opts_.obs ? opts_.obs->trace() : nullptr;
  std::uint64_t flow_id = 0;
  if (trace) {
    // Producer-side drain slice ending at the hand-off, plus the flow
    // arrow the window span on the worker will consume — in Perfetto the
    // arrow's length IS the queue wait.
    const std::uint64_t now_ns = trace->now_ns();
    const auto drain_ns = static_cast<std::uint64_t>(drain_seconds * 1e9);
    trace->complete_span("stage.drain", "pipeline",
                         now_ns > drain_ns ? now_ns - drain_ns : 0, drain_ns);
    flow_id = trace->next_flow_id();
    trace->flow_start("window.handoff", "pipeline", flow_id, now_ns);
  }
  if (!pipeline_) {
    analyze_window(std::move(batch), drain_seconds, std::nullopt, flow_id);
    publish_pipeline_gauges();
    return;
  }
  // Hand the window to the analysis worker.  submit() blocks when
  // pipeline_depth windows are already admitted — that blocking IS the
  // backpressure: a fast producer is throttled to analysis pace instead of
  // queueing unbounded windows.
  const bool degrade =
      VAPRO_FAULT("pipeline.handoff") == testing::FaultAction::kFail;
  const double submit_seconds =
      (opts_.clock ? opts_.clock : util::real_clock())->now_seconds();
  pipeline_->submit({std::move(batch), drain_seconds, submit_seconds, flow_id});
  if (degrade) {
    // Injected hand-off failure: fall back to synchronous operation for
    // this window.  The job still runs on the worker (keeping FIFO order),
    // we just wait for it — lossless and output-identical, only the
    // overlap is gone.
    ++handoff_faults_;
    pipeline_->drain();
  }
  publish_pipeline_gauges();
}

void AnalysisServer::publish_pipeline_gauges() const {
  obs::ObsContext* obs = opts_.obs;
  if (!obs || (!pipeline_ && !workers_)) return;
  obs::MetricsRegistry& m = obs->metrics();
  if (pipeline_) {
    m.gauge("vapro.pipeline.queue_depth")
        ->set(static_cast<double>(pipeline_->depth()));
    // Wait-time attribution: producer-block vs consumer-idle vs queued
    // time.
    m.gauge("vapro.pipeline.producer_block_seconds")
        ->set(pipeline_->stall_seconds());
    m.gauge("vapro.pipeline.consumer_idle_seconds")
        ->set(pipeline_->idle_seconds());
    m.gauge("vapro.pipeline.handoff_wait_seconds")
        ->set(pipeline_->handoff_seconds());
    // Stage occupancy: cumulative busy seconds of the analysis worker; the
    // scraper divides by wall time for utilization.
    m.gauge("vapro.pipeline.analysis_busy_seconds")
        ->set(pipeline_->busy_seconds());
  }
  if (workers_) {
    // Intra-window shard pool occupancy.  Imbalance is max/mean lane busy
    // time: ≈1 means the atomic-claim balancing kept lanes even, ≫1 means
    // one giant edge serialized the fan-out.
    const std::vector<double> busy = workers_->lane_busy_seconds();
    double total = 0.0, peak = 0.0;
    for (double b : busy) {
      total += b;
      peak = std::max(peak, b);
    }
    const double mean = busy.empty() ? 0.0 : total / busy.size();
    m.gauge("vapro.pipeline.shards")
        ->set(static_cast<double>(workers_->lanes()));
    m.gauge("vapro.pipeline.shard_busy_seconds")->set(total);
    m.gauge("vapro.pipeline.shard_busy_seconds_max")->set(peak);
    m.gauge("vapro.pipeline.shard_imbalance")
        ->set(mean > 0.0 ? peak / mean : 1.0);
    m.gauge("vapro.pipeline.shard_idle_seconds")
        ->set(workers_->idle_seconds());
    m.gauge("vapro.pipeline.shard_tasks_total")
        ->set(static_cast<double>(workers_->tasks_run()));
  }
}

PipelineBreakdown AnalysisServer::pipeline_breakdown() const {
  sync();
  PipelineBreakdown b;
  // Everything but the producer-side queue wait and drain is analysis-stage
  // occupancy.
  const obs::CriticalPathTracker::Summary sum = latency_.summary();
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    if (stage != obs::Stage::kQueueWait && stage != obs::Stage::kDrain)
      b.analysis_busy_seconds += sum.stage_seconds[s];
  }
  if (pipeline_) {
    b.queue_stall_seconds = pipeline_->stall_seconds();
    b.queue_stalls = pipeline_->stalls();
    b.consumer_idle_seconds = pipeline_->idle_seconds();
    b.consumer_idle_waits = pipeline_->idle_waits();
    b.handoff_wait_seconds = pipeline_->handoff_seconds();
  }
  if (workers_) {
    b.shard_lanes = workers_->lanes();
    b.shard_busy_seconds = workers_->lane_busy_seconds();
    b.shard_tasks = workers_->lane_task_counts();
    b.shard_idle_seconds = workers_->idle_seconds();
    b.shard_runs = workers_->runs();
  }
  return b;
}

void AnalysisServer::analyze_window(FragmentBatch batch, double drain_seconds,
                                    std::optional<double> submit_seconds,
                                    std::uint64_t flow_id) {
  obs::ObsContext* obs = opts_.obs;
  obs::TraceRecorder* trace = obs ? obs->trace() : nullptr;
  obs::Journal* journal = obs ? obs->journal() : nullptr;
  obs::Counter* spans_dropped =
      trace && obs ? obs->metrics().counter("vapro.obs.spans_dropped_total")
                   : nullptr;
  obs::ToolTimeScope tool_time(obs ? &obs->overhead() : nullptr);
  // Exposition handlers read the maps/regions from the serve thread; the
  // whole window body runs under the live mutex.
  std::lock_guard<std::mutex> live_lock(live_mu_);
  // The window span consumes the producer's handoff flow arrow, so the
  // queue hop is visible in the timeline; stage spans nest inside it.
  obs::SpanScope window_span({trace, spans_dropped, flow_id},
                             "analysis.window", "server");
  obs::PipelineStats stats;
  StageClock clock(opts_.clock, stats, submit_seconds);
  stats.window = windows_;
  stats.fragments_drained = batch.fragments.size();
  stats.new_states = batch.new_states.size();
  stats.seconds(obs::Stage::kDrain) = drain_seconds;

  // The window's fragments leave the STG on every exit from this body, so
  // a window whose diagnoser or observer throws is not clustered, counted
  // and deposited again with the next window's fragments.
  struct DropFragments {
    Stg& stg;
    ~DropFragments() {
      if (stg.fragments().size() > 0) stg.clear_fragments();
    }
  } drop_fragments{stg_};

  // --- stage: STG growth (vertex/edge ingestion + carry management) ---
  obs::SpanScope stg_span({trace, spans_dropped}, "stage.stg",
                          "server");
  for (const sim::InvocationInfo& info : batch.new_states)
    stg_.touch_vertex(info);
  // Carry-ins from the previous window's tail enter the STG first so
  // indices below `live_begin` are exactly the carried fragments.
  const std::size_t live_begin = overlap_carry_.size();
  for (const Fragment& f : overlap_carry_) stg_.add_fragment(f);
  overlap_carry_.clear();
  // One contiguous scan of the end-time column finds the window end, the
  // overlap cut selects next window's carry candidates, and then the whole
  // batch is adopted into the STG — a buffer swap when there is no carry
  // (the steady state), never a per-fragment copy.
  const std::size_t drained = batch.fragments.size();
  const double* ends = batch.fragments.end_data();
  double window_end = 0.0;
  for (std::size_t i = 0; i < drained; ++i)
    window_end = std::max(window_end, ends[i]);
  if (opts_.window_overlap_seconds > 0.0) {
    const double cut = window_end - opts_.window_overlap_seconds;
    for (std::size_t i = 0; i < drained; ++i)
      if (ends[i] >= cut)
        overlap_carry_.push_back(batch.fragments.materialize(i));
  }
  stg_.adopt_fragments(std::move(batch.fragments));
  // The window's column footprint (vapro.server.column_bytes_total).
  const std::size_t column_bytes = stg_.fragments().bytes_reserved();
  fragments_ += drained;
  stats.carry_ins = live_begin;
  stats.virtual_time = window_end;
  last_virtual_time_ = std::max(last_virtual_time_, window_end);
  clock.lap(obs::Stage::kStg);
  stg_span.finish();

  // --- stage: clustering (Algorithm 1 workers + rare-path scan) ---
  obs::SpanScope cluster_span({trace, spans_dropped}, "stage.cluster",
                              "server");
  util::WorkerPool* pool = workers_.get();
  if (pool && VAPRO_FAULT("pipeline.shard") == testing::FaultAction::kFail) {
    // Injected worker-task failure.  The decision is made HERE, once per
    // window on the analysis thread — never inside a parallel task, where
    // which-task-hits-it would depend on scheduling.  One poisoned task
    // exercises the pool's exception containment, then the whole window
    // degrades to serial fan-out: byte-identical output (sharding is
    // equivalence-preserving by design), only the intra-window overlap is
    // lost.
    ++shard_faults_;
    pool->run(1, [](std::size_t, std::size_t) {
      testing::FaultInjector::throw_if(testing::FaultAction::kThrow,
                                       "pipeline.shard");
    });
    pool = nullptr;
  }
  stats.cluster_shards = pool ? pool->lanes() : 1;
  ClusteringResult clusters =
      cluster_stg_parallel(stg_, opts_.cluster, pool, trace);
  cluster_span.add_arg(obs::TraceRecorder::arg(
      "clusters", static_cast<std::uint64_t>(clusters.clusters.size())));
  cluster_span.add_arg(obs::TraceRecorder::arg(
      "shards", static_cast<std::uint64_t>(stats.cluster_shards)));

  // Algorithm 1 line 8: surface rare-but-expensive execution paths
  // (carry-ins were reported by the previous window already).
  const std::size_t rare_before = rare_findings_.size();
  const FragmentColumns& frags = stg_.fragments();
  for (const Cluster& c : clusters.clusters) {
    if (!c.rare) continue;
    RareFinding finding;
    finding.kind = c.kind;
    double first_start = 1e300;
    for (std::size_t idx : c.members) {
      if (idx < live_begin) continue;
      ++finding.executions;
      finding.total_seconds += frags.duration(idx);
      finding.longest_seconds =
          std::max(finding.longest_seconds, frags.duration(idx));
      first_start = std::min(first_start, frags.start_time(idx));
    }
    if (finding.total_seconds < opts_.rare_report_min_seconds) continue;
    finding.state = c.kind == FragmentKind::kComputation
                        ? stg_.state_name(c.from) + " -> " + stg_.state_name(c.to)
                        : stg_.state_name(c.to);
    finding.window_start = first_start;
    rare_findings_.push_back(std::move(finding));
  }
  if (journal) {
    // Journal each new finding before the report list is sorted/truncated;
    // the journal is the complete record, the list the user-facing top-N.
    for (std::size_t i = rare_before; i < rare_findings_.size(); ++i) {
      const RareFinding& f = rare_findings_[i];
      journal->emit(
          "rare_finding", static_cast<std::int64_t>(stats.window),
          f.window_start,
          {obs::JournalField::str("state", f.state),
           obs::JournalField::str("kind", fragment_kind_name(f.kind)),
           obs::JournalField::num("executions",
                                  static_cast<std::uint64_t>(f.executions)),
           obs::JournalField::num("total_seconds", f.total_seconds),
           obs::JournalField::num("longest_seconds", f.longest_seconds)});
    }
  }
  if (rare_findings_.size() > opts_.rare_report_limit) {
    std::sort(rare_findings_.begin(), rare_findings_.end(),
              [](const RareFinding& a, const RareFinding& b) {
                return a.total_seconds > b.total_seconds;
              });
    rare_findings_.resize(opts_.rare_report_limit);
  }
  stats.clusters_formed = clusters.clusters.size();
  stats.rare_clusters = clusters.rare_count();
  clock.lap(obs::Stage::kCluster);
  cluster_span.finish();

  // --- stage: detection (normalization against the cross-window
  // baseline, coverage and heat-map deposit in one pass per kind) ---
  obs::SpanScope normalize_span({trace, spans_dropped},
                                "stage.normalize", "server");
  const std::uint64_t refused_before = live_.refused_deposits();
  detect_fragments(stg_, clusters,
                   opts_.shared_baseline ? opts_.shared_baseline : &baseline_,
                   live_begin, coverage_,
                   live_.map(FragmentKind::kComputation),
                   live_.map(FragmentKind::kCommunication),
                   live_.map(FragmentKind::kIo), pool);
  // Counted here, not in the window's other counters below, so a window
  // whose diagnosis throws still counts what its maps refused.
  if (obs)
    obs->metrics()
        .counter("vapro.detect.refused_deposits_total")
        ->inc(live_.refused_deposits() - refused_before);

  if (opts_.record_eval_pairs) {
    // Map each labelled computation fragment to its cluster's stable id.
    for (const Cluster& c : clusters.clusters) {
      if (c.kind != FragmentKind::kComputation) continue;
      const std::uint64_t label = baseline_.key_of(c);
      for (std::size_t idx : c.members) {
        if (idx < live_begin) continue;
        const std::int64_t truth = frags.truth_class(idx);
        if (truth < 0) continue;
        eval_truth_.push_back(static_cast<int>(truth % 1000000007));
        eval_predicted_.push_back(static_cast<int>(label % 1000000007));
      }
    }
  }
  clock.lap(obs::Stage::kNormalize);
  normalize_span.finish();
  // The detection pass deposits too; the deposit slot stays (about 0) so
  // the stage names of the window_latency record do not change.
  clock.lap(obs::Stage::kDeposit);

  // --- stage: progressive diagnosis + observer hooks ---
  {
    obs::SpanScope diagnose_span({trace, spans_dropped},
                                 "stage.diagnose", "server");
    if (opts_.run_diagnosis) diagnoser_.feed(stg_, clusters, live_begin);
    if (opts_.window_observer) opts_.window_observer(stg_, clusters);

    stg_.clear_fragments();
    ++windows_;
    stats.diagnosis_stage = diagnoser_.stage();
    clock.lap(obs::Stage::kDiagnose);
  }

  // --- stage: publish (region growing, health gauges, journal events) ---
  if (obs && opts_.live_detection) {
    obs::SpanScope publish_span({trace, spans_dropped},
                                "stage.publish", "server");
    if (VAPRO_FAULT("server.window") == testing::FaultAction::kFail)
      // Live publish lost for this window (journal/gauges skip a beat);
      // the final journal_detection_snapshot still recovers every region.
      ++publish_faults_;
    else
      live_.publish(
          *obs, coverage_, static_cast<std::int64_t>(stats.window),
          stats.virtual_time,
          {obs::JournalField::num("fragments", static_cast<std::uint64_t>(
                                                   stats.fragments_drained)),
           obs::JournalField::num("carry_ins",
                                  static_cast<std::uint64_t>(stats.carry_ins)),
           obs::JournalField::num("clusters", static_cast<std::uint64_t>(
                                                  stats.clusters_formed)),
           obs::JournalField::num("rare_clusters", static_cast<std::uint64_t>(
                                                       stats.rare_clusters)),
           obs::JournalField::num(
               "diagnosis_stage",
               static_cast<std::int64_t>(stats.diagnosis_stage))});
  }
  clock.lap(obs::Stage::kPublish);

  // Fold this window into the critical-path reducer: "window N was bound
  // by stage X for Y ms".  Tracked always; journaled (as a measurement
  // event, distinct from detection conclusions) when live detection is on.
  latency_.record(stats);
  if (journal && opts_.live_detection)
    obs::journal_window_latency(*journal, stats);

  if (obs) {
    obs::MetricsRegistry& m = obs->metrics();
    m.counter("vapro.server.windows_total")->inc();
    m.counter("vapro.server.fragments_total")->inc(stats.fragments_drained);
    m.counter("vapro.server.column_bytes_total")->inc(column_bytes);
    m.counter("vapro.server.carry_ins_total")->inc(stats.carry_ins);
    m.counter("vapro.server.clusters_total")->inc(stats.clusters_formed);
    m.counter("vapro.server.rare_clusters_total")->inc(stats.rare_clusters);
    m.gauge("vapro.server.diagnosis_stage")
        ->set(static_cast<double>(stats.diagnosis_stage));
    m.histogram("vapro.server.window_seconds")->record(stats.tool_seconds());
    for (std::size_t s = 0; s < obs::kStageCount; ++s)
      m.histogram(stage_histogram_name(s))->record(stats.stage_seconds[s]);
    obs->emit_window(stats);
    window_span.add_arg(obs::TraceRecorder::arg(
        "window", static_cast<std::uint64_t>(stats.window)));
    window_span.add_arg(obs::TraceRecorder::arg(
        "fragments", static_cast<std::uint64_t>(stats.fragments_drained)));
    window_span.add_arg(obs::TraceRecorder::arg(
        "clusters", static_cast<std::uint64_t>(stats.clusters_formed)));
    window_span.add_arg(
        obs::TraceRecorder::arg("bound_by", stats.bound_by()));
  }
}

void AnalysisServer::journal_detection_snapshot() const {
  obs::Journal* journal = opts_.obs ? opts_.obs->journal() : nullptr;
  if (!journal) return;
  sync();  // the snapshot must cover every admitted window
  std::lock_guard<std::mutex> lock(live_mu_);
  const std::int64_t window =
      windows_ ? static_cast<std::int64_t>(windows_) - 1 : -1;
  live_.journal_snapshot(*journal, window, last_virtual_time_);
  // Terminal critical-path verdict: one event carrying the per-stage
  // totals, so the replay can cross-check its fold of the per-window
  // window_latency events.  Measurement events follow the same
  // live_detection gate as the per-window ones.
  if (opts_.live_detection)
    obs::journal_critical_path(*journal, window, last_virtual_time_,
                               latency_.summary());
  journal->flush();
}

std::string AnalysisServer::render_latency_json() const {
  // The tracker has its own mutex; no sync() — a mid-run scrape just sees
  // the windows analyzed so far, like the other /v1 views.
  return obs::render_latency_json(latency_.recent(), latency_.summary());
}

std::string AnalysisServer::render_critical_path_json() const {
  return obs::render_critical_path_json(latency_.recent(), latency_.summary());
}

std::string AnalysisServer::render_heatmap_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  return live_.heatmap_json();
}

std::string AnalysisServer::render_variance_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  return live_.variance_json(windows_, last_virtual_time_);
}

std::vector<VarianceRegion> AnalysisServer::locate(FragmentKind kind) const {
  // Sync so the regions reflect every admitted window, then lock so a
  // concurrent scrape sees whole windows.
  sync();
  std::lock_guard<std::mutex> lock(live_mu_);
  return live_.locate(kind);
}

stats::VMeasure AnalysisServer::clustering_quality() const {
  sync();
  return stats::v_measure(eval_truth_, eval_predicted_);
}

}  // namespace vapro::core
