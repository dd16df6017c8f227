// Fragments — the unit of Vapro's analysis.
//
// A fragment is one execution of a code snippet (paper §2): either the
// computation between two external invocations (attached to an STG edge) or
// one invocation itself (attached to an STG vertex).  Each carries the
// runtime information §3.3 collects: elapsed time, invocation arguments,
// and the counter deltas visible through the currently configured PMU set.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pmu/counters.hpp"
#include "src/sim/intercept.hpp"

namespace vapro::core {

// Hashed running-state identity (call-site for context-free STG, call-path
// hash for context-aware).  0 is reserved for "program start".
using StateKey = std::uint64_t;
inline constexpr StateKey kStartState = 0;

enum class FragmentKind : std::uint8_t {
  kComputation,   // STG edge
  kCommunication, // STG vertex, comm invocation
  kIo,            // STG vertex, IO invocation
};

const char* fragment_kind_name(FragmentKind k);

struct Fragment {
  FragmentKind kind = FragmentKind::kComputation;
  sim::RankId rank = 0;
  // Edge fragments: state transition from `from` to `to`.
  // Vertex fragments: `to` is the vertex, `from` unused (= to).
  StateKey from = kStartState;
  StateKey to = kStartState;
  double start_time = 0.0;
  double end_time = 0.0;
  // Counter deltas as seen through the tool's CounterSet (jittered;
  // inactive counters are zero).  Meaningful for computation fragments.
  pmu::CounterSample counters;
  // Invocation arguments (vertex fragments).
  sim::CommArgs args;
  sim::OpKind op = sim::OpKind::kProbe;
  // Ground-truth workload class for evaluation (Table 2).  Not consulted
  // by any detection/diagnosis code path.
  std::int64_t truth_class = -1;

  double duration() const { return end_time - start_time; }
};

// The workload vector of §3.4: normalized metrics and/or invocation
// arguments, clustered per STG edge/vertex to find fixed workload.
struct WorkloadVector {
  std::vector<double> dims;

  double norm() const;
  double distance(const WorkloadVector& other) const;
};

// Builds the workload vector for a fragment:
//  - computation: the configured proxy metrics (default: TOT_INS, §3.3);
//  - communication: message size, peer, op kind;
//  - IO: data size, file descriptor, op kind (read/write mode).
WorkloadVector make_workload_vector(const Fragment& f,
                                    const std::vector<pmu::Counter>& proxies);

std::size_t workload_dim_count(FragmentKind kind, std::size_t proxy_count);

// The one definition of the dims: writes exactly
// workload_dim_count(kind, proxies.size()) doubles of row `i` of `source`
// to `out`.  `source` offers counter(i, c), bytes(i), peer(i), fd(i) and
// op(i): clustering's hot path (cluster_item) passes the window's
// FragmentColumns (src/core/columns.hpp) and reads a dense column per
// field, make_workload_vector one Fragment.  Sharing it is what keeps the
// norm-sort keys bit-identical between the two.
template <typename Source>
void write_workload_dims(FragmentKind kind, const Source& source,
                         std::size_t i,
                         const std::vector<pmu::Counter>& proxies,
                         double* out) {
  switch (kind) {
    case FragmentKind::kComputation:
      for (pmu::Counter c : proxies) *out++ = source.counter(i, c);
      break;
    case FragmentKind::kCommunication:
      // Arguments approximate communication workload (§3.3): size, peer,
      // and the operation.  Peer/op are scaled so that distinct values
      // land in distinct clusters regardless of the byte dimension.
      out[0] = source.bytes(i);
      out[1] = static_cast<double>(source.peer(i)) * 1e3;
      out[2] = static_cast<double>(source.op(i)) * 1e3;
      break;
    case FragmentKind::kIo:
      out[0] = source.bytes(i);
      out[1] = static_cast<double>(source.fd(i)) * 1e3;
      out[2] = static_cast<double>(source.op(i)) * 1e3;
      break;
  }
}

}  // namespace vapro::core
