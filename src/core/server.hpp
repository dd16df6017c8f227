// The Vapro analysis server (paper Fig 2 steps 4–6, Fig 8).
//
// Consumes fragment batches drained from clients at the end of each
// analysis window, grows the STG, clusters fragments (multi-threaded across
// STG edges/vertices), normalizes performance against a cross-window
// baseline, deposits the result into per-category heat maps, accumulates
// coverage, drives the progressive diagnoser, and — when evaluation mode is
// on — records (truth class, stable cluster id) pairs for V-measure scoring
// (Table 2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/client.hpp"
#include "src/core/clustering.hpp"
#include "src/core/detection.hpp"
#include "src/core/diagnosis.hpp"
#include "src/core/heatmap.hpp"
#include "src/core/live_export.hpp"
#include "src/core/stg.hpp"
#include "src/obs/context.hpp"
#include "src/obs/latency.hpp"
#include "src/stats/vmeasure.hpp"
#include "src/util/clock.hpp"
#include "src/util/pipeline.hpp"

namespace vapro::core {

struct ServerOptions {
  StgMode stg_mode = StgMode::kContextFree;
  ClusterOptions cluster;
  DiagnosisOptions diagnosis;
  pmu::MachineParams machine;
  double variance_threshold = 0.85;  // heat-map region growing (§3.5)
  double bin_seconds = 0.25;
  // Overlapping analysis windows (Fig 8): fragments from the last
  // `window_overlap_seconds` of each window are carried into the next so
  // clusters spanning a boundary still find their twins (minima, the
  // min-cluster-size cut).  Carry-ins never double-count in the heat map,
  // coverage, diagnosis, or evaluation pairs.
  double window_overlap_seconds = 0.0;
  int analysis_threads = 1;          // the "multiple servers" of §5
  // Staged concurrent pipeline (§5 overlap): how many windows may be
  // admitted past process_window() before the caller blocks.  1 = fully
  // synchronous (the seed behavior); d > 1 hands each window to a single
  // analysis worker thread and lets the caller drain window N+1 while
  // window N clusters/detects/diagnoses.  One worker in strict FIFO order
  // keeps every output byte-identical to depth 1 — only the overlap
  // changes, never the results.  See docs/ARCHITECTURE.md.
  int pipeline_depth = 1;
  bool run_diagnosis = true;
  bool record_eval_pairs = false;    // Table 2 scoring
  // Rare-path reporting (Algorithm 1 line 8): clusters with too few
  // fragments whose total time exceeds this are surfaced to the user.
  double rare_report_min_seconds = 0.02;
  std::size_t rare_report_limit = 64;
  // Invoked after each window is clustered, before fragments are dropped —
  // visualization/experiment hooks read raw per-fragment data here.
  std::function<void(const Stg&, const ClusteringResult&)> window_observer;
  // When set, normalization minima live in this externally owned baseline
  // instead of a per-server one — sharing it across executions compares
  // each run against the best twin ever seen (between-executions variance,
  // §1).  Must outlive the server.
  ClusterBaseline* shared_baseline = nullptr;
  // Self-telemetry (src/obs): each window's PipelineStats snapshot (the
  // one record of its stage times, which the stage histograms read), trace
  // spans, and tool-time accounting; null disables.
  // Borrowed, must outlive the server.
  obs::ObsContext* obs = nullptr;
  // Time source for stage timings (null = the process-wide real clock).
  // Tests install a util::VirtualClock so window/stage timing logic runs
  // deterministically without sleeps; borrowed, must outlive the server.
  util::Clock* clock = nullptr;
  // Live detection surfaces: with obs attached, each window also computes
  // detection-health gauges, journals window/variance-region events, and —
  // if the ObsContext runs an exposition server — answers /v1/heatmap and
  // /v1/variance.  ServerGroup clears this on its leaves and serves the
  // merged views itself.
  bool live_detection = true;
};

// A non-repeated execution path that nonetheless consumed noticeable time —
// Algorithm 1 line 8 asks the user to check whether it is abnormal.
struct RareFinding {
  std::string state;          // human-readable edge/vertex description
  FragmentKind kind = FragmentKind::kComputation;
  std::size_t executions = 0;
  double total_seconds = 0.0;
  double longest_seconds = 0.0;
  double window_start = 0.0;  // virtual time of the window that saw it
};

// Cumulative stage occupancy of the staged pipeline, for throughput
// benches and capacity planning: where did the wall time go?  Analysis
// busy is the critical-path tracker's per-stage totals of the window body
// (STG growth through publish), whether it ran inline (depth 1) or on the
// worker.  Wait time is split by side so a
// flat throughput curve is attributable: producer-block (queue_stall_*)
// means the analysis worker is the bottleneck, consumer-idle means the
// producer/drain side is, and handoff_wait is how long admitted windows
// sat queued before the worker started them.
struct PipelineBreakdown {
  double analysis_busy_seconds = 0.0;
  double queue_stall_seconds = 0.0;   // producer blocked on a full queue
  std::uint64_t queue_stalls = 0;
  double consumer_idle_seconds = 0.0;  // worker waiting for work
  std::uint64_t consumer_idle_waits = 0;
  double handoff_wait_seconds = 0.0;   // submit→start latency, summed
  // Intra-window shard pool occupancy (empty/zero at analysis_threads 1):
  // cumulative per-lane busy seconds and task counts since construction,
  // pool idle time, and the number of fan-outs.  Imbalance for a balanced
  // fan-out is max(lane busy) / mean(lane busy) ≈ 1.
  std::size_t shard_lanes = 0;
  std::vector<double> shard_busy_seconds;
  std::vector<std::uint64_t> shard_tasks;
  double shard_idle_seconds = 0.0;
  std::uint64_t shard_runs = 0;
};

class AnalysisServer {
 public:
  AnalysisServer(int ranks, ServerOptions opts);
  ~AnalysisServer();

  // Ingests and analyzes one window of client data.  `drain_seconds` is
  // the wall time the caller spent draining the clients — it becomes the
  // Stage::kDrain slot of this window's PipelineStats snapshot.
  //
  // With pipeline_depth > 1 this only HANDS OFF the window to the analysis
  // worker: it returns as soon as the pipeline accepts the batch (blocking
  // for backpressure when `pipeline_depth` windows are already admitted)
  // and the caller may immediately start draining the next window.
  void process_window(FragmentBatch batch, double drain_seconds = 0.0);

  // Blocks until every admitted window has been fully analyzed.  The
  // producer-side synchronization point of the pipelined server: after
  // sync() every accessor below reflects all submitted windows, and the
  // worker's writes happen-before the caller's reads (TSan-clean).  An
  // exception a window threw on the worker is rethrown here, once, as
  // process_window itself throws it at depth 1.  No-op at pipeline_depth
  // 1.  All state accessors call it implicitly.
  void sync() const;

  // Restarts diagnosis, optionally focused on a heat-map region the user
  // selected (§3.5): subsequent windows attribute only that region's
  // abnormal fragments.
  void refocus_diagnosis(std::optional<FocusRegion> focus);

  // --- detection outputs ---
  const Heatmap& computation_map() const {
    sync();
    return live_.map(FragmentKind::kComputation);
  }
  const Heatmap& communication_map() const {
    sync();
    return live_.map(FragmentKind::kCommunication);
  }
  const Heatmap& io_map() const {
    sync();
    return live_.map(FragmentKind::kIo);
  }
  std::vector<VarianceRegion> locate(FragmentKind kind) const;

  // --- diagnosis outputs ---
  const DiagnosisReport& diagnosis() const { sync(); return diagnoser_.report(); }
  bool diagnosis_finished() const { sync(); return diagnoser_.finished(); }
  // Counters the clients should activate for the next window.  Deliberately
  // does NOT sync: when diagnosis is off the demand is constant, and when
  // it is on the session syncs explicitly before reprogramming so the
  // PMU feedback loop sees exactly the same state as a serial run.
  std::vector<pmu::Counter> counters_needed() const {
    return diagnoser_.counters_needed();
  }

  // --- bookkeeping ---
  const CoverageAccumulator& coverage() const { sync(); return coverage_; }
  std::size_t windows_processed() const { sync(); return windows_; }
  std::size_t fragments_processed() const { sync(); return fragments_; }
  // Windows whose live detection publish was lost to an injected
  // "server.window" fault; journal_detection_snapshot still recovers the
  // final regions.
  std::size_t publish_faults() const { sync(); return publish_faults_; }
  // Windows that fell back to synchronous hand-off because the injected
  // "pipeline.handoff" fault fired (pipelined mode only; outputs are
  // unaffected — the window is analyzed in-line instead of overlapped).
  std::size_t handoff_faults() const { sync(); return handoff_faults_; }
  // Windows whose intra-window fan-out degraded to serial because the
  // injected "pipeline.shard" fault fired (analysis_threads > 1 only;
  // outputs are unaffected — sharding is byte-equivalent by design).
  std::size_t shard_faults() const { sync(); return shard_faults_; }
  // Per-stage occupancy since construction (syncs first, so it reflects
  // every admitted window).
  PipelineBreakdown pipeline_breakdown() const;
  // Rare-but-expensive paths surfaced per Algorithm 1 line 8, sorted by
  // total time (descending), capped at rare_report_limit.
  const std::vector<RareFinding>& rare_findings() const {
    sync();
    return rare_findings_;
  }
  const Stg& stg() const { sync(); return stg_; }

  // V-measure of fixed-workload identification vs ground truth — valid
  // when record_eval_pairs was set and labelled fragments were seen.
  stats::VMeasure clustering_quality() const;

  // Emits a final, full-precision `variance_region` snapshot (final=true)
  // for every category into the journal so vapro_replay can reconstruct
  // the end-of-run detection report from the journal alone.  No-op without
  // a journal.
  void journal_detection_snapshot() const;

  // Live JSON views served at /v1/heatmap and /v1/variance — also usable
  // without an exposition server.  Region fields match report_json's.
  std::string render_heatmap_json() const;
  std::string render_variance_json() const;

  // Self-diagnosis views served at /v1/latency and /v1/critical_path:
  // per-window stage times and their "window N was bound by stage X"
  // critical-path attribution.  Tracked for every server (cheap),
  // journaled as window_latency/critical_path events when live_detection.
  const obs::CriticalPathTracker& latency_tracker() const {
    sync();
    return latency_;
  }
  std::string render_latency_json() const;
  std::string render_critical_path_json() const;

 private:
  // The full analysis body (STG growth → clustering → normalization →
  // deposit → diagnosis) for one window.  Runs on the caller at
  // pipeline_depth 1, on the single pipeline worker otherwise.
  // `submit_seconds` is the producer clock at hand-off to the worker
  // (queue-wait attribution; empty at depth 1, where there is no queue);
  // `flow_id` links the producer's handoff flow arrow to the window span
  // (0 = no trace).
  void analyze_window(FragmentBatch batch, double drain_seconds,
                      std::optional<double> submit_seconds,
                      std::uint64_t flow_id);
  // vapro.pipeline.* gauges (queue depth, stall time, occupancy).
  void publish_pipeline_gauges() const;
  ServerOptions opts_;
  Stg stg_;
  ClusterBaseline baseline_;
  // Heat maps, region caches and the live publish, guarded by live_mu_.
  mutable LiveDetection live_;
  CoverageAccumulator coverage_;
  ProgressiveDiagnoser diagnoser_;
  std::size_t windows_ = 0;
  std::size_t fragments_ = 0;
  std::size_t publish_faults_ = 0;
  std::size_t handoff_faults_ = 0;
  std::size_t shard_faults_ = 0;
  // Per-window critical-path records (own mutex; safe from worker + serve
  // threads).
  obs::CriticalPathTracker latency_;
  std::vector<RareFinding> rare_findings_;
  // Intra-window shard pool (null at analysis_threads 1): clustering and
  // the detection pass fan out across its lanes.  Only analyze_window
  // drives it, one window at a time, which satisfies the pool's
  // single-coordinator contract; region reads (locate(), the /v1 routes,
  // the final snapshot) run on their caller's thread and never touch it.
  // Declared before pipeline_ so it outlives the stage worker that uses it.
  std::unique_ptr<util::WorkerPool> workers_;
  // One window handed to the pipeline worker: analyze_window's arguments.
  struct PendingWindow {
    FragmentBatch batch;
    double drain_seconds = 0.0;
    double submit_seconds = 0.0;
    std::uint64_t flow_id = 0;
  };
  // The analysis pipeline (null at pipeline_depth 1).  Mutable so const
  // accessors can sync(); destroyed first in ~AnalysisServer so the worker
  // never outlives the state it writes.
  mutable std::unique_ptr<util::StageExecutor<PendingWindow>> pipeline_;
  std::vector<Fragment> overlap_carry_;
  // (truth label, predicted cluster label) for labelled comp fragments.
  std::vector<int> eval_truth_;
  std::vector<int> eval_predicted_;
  // Serializes process_window against concurrent /v1 scrapes; route
  // handlers and journal_detection_snapshot take it too.
  mutable std::mutex live_mu_;
  bool live_routes_ = false;  // /v1 routes registered (add_live_routes)
  double last_virtual_time_ = 0.0;
};

}  // namespace vapro::core
