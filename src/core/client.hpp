// The Vapro client — the per-process data-collection half of the tool
// (paper Fig 2, steps 1–3).
//
// It implements the simulator's Interceptor interface, i.e. it sits exactly
// where an LD_PRELOAD shim sits in the real system.  On every external
// invocation it:
//   * cuts a computation fragment covering the span since the previous
//     invocation ended, with counter deltas read through the rank's
//     CounterSet (budget-limited, jittered);
//   * records the invocation itself as a communication/IO fragment with
//     its arguments;
//   * announces newly seen running states so the server can grow the STG.
//
// Fragments accumulate in per-rank buffers until the analysis server drains
// them at the end of each window.  Optional sampling (paper §3.5/§5)
// applies binary exponential backoff per call-site: after a warm-up, only
// power-of-two occurrences are recorded.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/columns.hpp"
#include "src/core/fragment.hpp"
#include "src/core/stg.hpp"
#include "src/obs/context.hpp"
#include "src/pmu/counter_set.hpp"
#include "src/sim/intercept.hpp"

namespace vapro::core {

// §3.5/§5 sampling policies trading overhead against detection ability:
//   kNone     — record every invocation.
//   kBackoff  — binary exponential backoff per call-site: after a warm-up,
//               only power-of-two occurrences are recorded (the Dyninst
//               probe-frequency adaptation of §5).
//   kSkipShort — the heuristic §3.5 recommends: call sites whose fragments
//               are short are decimated, long fragments always recorded —
//               keeps coverage (time-weighted) high at low data volume.
enum class SamplingPolicy { kNone, kBackoff, kSkipShort };

struct ClientOptions {
  StgMode stg_mode = StgMode::kContextFree;
  // Simultaneously programmable PMU counters per rank.
  int pmu_budget = 4;
  // Multiplicative stddev of counter read error.
  double pmu_jitter = 0.003;
  SamplingPolicy sampling = SamplingPolicy::kNone;
  int sampling_warmup = 64;
  // kSkipShort: sites whose mean fragment span is below this are decimated
  // to one record in `short_keep_one_in`.
  double short_threshold_seconds = 500e-6;
  int short_keep_one_in = 8;
  std::uint64_t seed = 42;
  // Self-telemetry (src/obs): interception tool-time accounting, fragment
  // cut/sample/drop counters, PMU reprogram events; null disables.
  obs::ObsContext* obs = nullptr;
};

// One window's worth of data shipped from clients to the server.
// Fragments travel as SoA columns end-to-end: the client appends into
// them, drain() moves them out (buffer swap), and the server adopts them
// into the window STG without a copy.
struct FragmentBatch {
  std::vector<sim::InvocationInfo> new_states;
  FragmentColumns fragments;
};

class VaproClient final : public sim::Interceptor {
 public:
  VaproClient(int ranks, ClientOptions opts);

  // sim::Interceptor:
  bool wants_call_path() const override {
    return opts_.stg_mode == StgMode::kContextAware;
  }
  void on_call_begin(const sim::InvocationInfo& info, double time,
                     const pmu::CounterSample& ground_truth) override;
  void on_call_end(const sim::InvocationInfo& info, double time,
                   const pmu::CounterSample& ground_truth) override;
  void on_program_end(sim::RankId rank, double time) override;

  // Reconfigures the programmable counters of every rank (progressive
  // diagnosis stage changes).  Returns false if over budget.
  bool configure_counters(const std::vector<pmu::Counter>& programmable);

  // Over-budget sets are accepted by time-multiplexing the PMU (PAPI
  // style): reads stay unbiased but their error grows by 1/duty.
  void configure_counters_multiplexed(
      const std::vector<pmu::Counter>& programmable);

  // Moves all buffered data out (called by the server each window).
  FragmentBatch drain();

  // Currently active programmable counters of a rank's PMU set (test and
  // tooling visibility into progressive staging).
  const std::vector<pmu::Counter>& active_counters(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].counters.active_programmable();
  }

  // Storage-overhead accounting (Table 1's KB/s discussion).
  std::uint64_t bytes_recorded() const { return bytes_recorded_; }
  std::uint64_t fragments_recorded() const { return fragments_recorded_; }
  std::uint64_t invocations_seen() const { return invocations_seen_; }
  std::uint64_t invocations_sampled_out() const { return sampled_out_; }
  // Fragments lost to injected "client.ingest" drops (a crashed or
  // corrupted per-rank record); the analysis server never sees these.
  std::uint64_t ingest_faults() const { return ingest_faults_; }

 private:
  struct RankState {
    pmu::CounterSet counters;
    bool has_last = false;
    StateKey last_state = kStartState;
    double last_end_time = 0.0;
    pmu::CounterSample last_gt;
    double begin_time = 0.0;
    bool record_current = true;
    struct SiteStats {
      std::uint64_t count = 0;
      double mean_span = 0.0;  // running mean of full fragment spans
    };
    std::unordered_map<sim::CallSiteId, SiteStats> sites;
    explicit RankState(std::uint64_t seed, int budget, double jitter)
        : counters(seed, budget, jitter) {}
  };

  bool should_record(RankState& rs, sim::CallSiteId site);
  void account(const Fragment& f);
  // Publishes the delta of the client's tallies since the previous drain
  // into the metrics registry (no-op without obs).
  void publish_metrics_locked();
  // Journals a pmu_reprogram event when the programmed set changed
  // (no-op without a journal).
  void journal_reprogram(const std::string& counters, bool multiplexed,
                         std::size_t slots);

  ClientOptions opts_;
  std::vector<RankState> ranks_;
  std::unordered_set<StateKey> announced_;
  FragmentBatch buffer_;
  std::uint64_t bytes_recorded_ = 0;
  std::uint64_t fragments_recorded_ = 0;
  std::uint64_t invocations_seen_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t ingest_faults_ = 0;
  // Registry tallies published so far (drain-time deltas keep the hot
  // interception path free of registry traffic).
  std::uint64_t published_bytes_ = 0;
  std::uint64_t published_fragments_ = 0;
  std::uint64_t published_invocations_ = 0;
  std::uint64_t published_sampled_out_ = 0;
  // Last journaled counter programming ("mux:"-prefixed when multiplexed).
  std::string journaled_counters_;
};

}  // namespace vapro::core
