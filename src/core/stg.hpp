// State Transition Graph (paper §3.2, Definition 1).
//
// Vertices record running states (external invocations identified by
// call-site or call-path); edges record transitions between states (the
// computation snippets in between).  The STG is built online as intercept
// events stream in, and fragments are attached to the vertex/edge they
// belong to.
//
// Two context modes:
//   kContextFree  — state = call-site only (cheap; the paper's default
//                   after Table 1 shows it wins on coverage and overhead).
//   kContextAware — state = hash of (call-site, full region path), costing
//                   a backtrace per call but splitting states that share a
//                   call-site across different call paths.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/columns.hpp"
#include "src/core/fragment.hpp"
#include "src/sim/intercept.hpp"

namespace vapro::core {

enum class StgMode { kContextFree, kContextAware };

// Computes the state key of an invocation under the given mode.
StateKey make_state_key(StgMode mode, const sim::InvocationInfo& info);

// One vertex: an invocation state.  Fragments attached are the executions
// of that invocation (communication or IO).
struct StgVertex {
  StateKey key = kStartState;
  sim::CallSiteId site = 0;
  sim::OpKind kind = sim::OpKind::kProbe;
  std::vector<std::uint32_t> path;  // representative call path
  std::vector<std::size_t> fragments;  // indices into Stg::fragments()
};

// One edge: a state transition.  Fragments attached are the computation
// snippets executed between the two invocations.
struct StgEdge {
  StateKey from = kStartState;
  StateKey to = kStartState;
  std::vector<std::size_t> fragments;
};

class Stg {
 public:
  explicit Stg(StgMode mode = StgMode::kContextFree) : mode_(mode) {}

  StgMode mode() const { return mode_; }

  // Registers (or finds) the vertex for an invocation.
  StateKey touch_vertex(const sim::InvocationInfo& info);

  // Attaches a fragment; vertex fragments go to `f.to`, edge fragments to
  // (f.from, f.to).  Returns the fragment's index.
  std::size_t add_fragment(const Fragment& f);

  // Bulk attach of a whole window's columns.  When the STG holds no
  // fragments yet (the steady state: clear_fragments() ran at the end of
  // the previous window) this is a buffer swap — the batch's columns
  // become the STG's storage without copying a single fragment — followed
  // by one pass to build the per-edge/per-vertex index lists.
  void adopt_fragments(FragmentColumns&& cols);

  const FragmentColumns& fragments() const { return fragments_; }

  std::size_t vertex_count() const { return vertices_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  // Iteration helpers for the clustering pass.
  const std::unordered_map<StateKey, StgVertex>& vertices() const {
    return vertices_;
  }
  const std::unordered_map<std::uint64_t, StgEdge>& edges() const {
    return edges_;
  }

  // Human-readable name of a state (site id, plus path in context-aware
  // mode) for reports.
  std::string state_name(StateKey key) const;

  // Drops all attached fragments but keeps the graph structure — called
  // after each analysis window so memory stays bounded (§3.5's windows).
  void clear_fragments();

  static std::uint64_t edge_key(StateKey from, StateKey to) {
    // 64→64 mix of the pair; collisions are astronomically unlikely for
    // the few thousand distinct transitions real programs exhibit.
    std::uint64_t h = from * 0x9e3779b97f4a7c15ULL;
    h ^= to + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }

 private:
  // Files fragment `idx` under its edge (computation) or vertex (comm/IO).
  void index_fragment(std::size_t idx, FragmentKind kind, StateKey from,
                      StateKey to);

  StgMode mode_;
  std::unordered_map<StateKey, StgVertex> vertices_;
  std::unordered_map<std::uint64_t, StgEdge> edges_;
  FragmentColumns fragments_;
};

}  // namespace vapro::core
