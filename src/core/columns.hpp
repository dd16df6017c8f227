// Structure-of-arrays fragment storage (the hot-path window layout).
//
// A window's fragments used to live in std::vector<Fragment> — one 200+
// byte struct per fragment, so clustering's norm sort and region growing's
// sweeps dragged counters/args cache lines they never read.  Here every
// field is its own contiguous column, sized together and carved from one
// per-window bump arena (src/util/arena.hpp):
//
//   kind | rank | from | to | start | end | counters | args | op | truth
//
// The counters column is pmu::CounterSample[] — CounterSample is a plain
// std::array<double, kCounterCount>, so the column IS a dense n×18 double
// block without any reinterpret_cast (keeps ubsan honest).
//
// Ownership rules that make the pipeline fast and the tests possible:
//   * move      = arena pointer swap (stage hand-off: drain → analysis →
//                 publish, ServerGroup leaf merge) — no per-fragment copy;
//   * copy      = deep copy into a fresh arena (stress/test harnesses
//                 replay the same batch across runs);
//   * clear()   = arena reset — chunks stay reserved, the next window
//                 refills warm memory.
//
// Readers index the columns directly (`cols.duration(i)`, `cols.rank(i)`);
// materialize(i) is the one value copy, rebuilding a Fragment where code
// must own one (overlap carry, ServerGroup's rank demux, chaos reordering,
// test fixtures).
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/core/fragment.hpp"
#include "src/util/arena.hpp"

namespace vapro::core {

class FragmentColumns {
 public:
  FragmentColumns() = default;
  ~FragmentColumns() = default;

  // Move = arena swap: O(1), no fragment is touched.  The moved-from
  // object is left empty and reusable.
  FragmentColumns(FragmentColumns&& other) noexcept;
  FragmentColumns& operator=(FragmentColumns&& other) noexcept;

  // Copy = deep copy into a fresh arena.
  FragmentColumns(const FragmentColumns& other);
  FragmentColumns& operator=(const FragmentColumns& other);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Drops all fragments and rewinds the arena; reserved chunks are kept so
  // the next window's columns land in warm memory.
  void clear();

  void reserve(std::size_t n);
  void push_back(const Fragment& f);
  void append(const FragmentColumns& other);

  // Whole-fragment overwrite (test fixtures patch fields through this:
  // materialize → mutate → set).
  void set(std::size_t i, const Fragment& f);

  // Value copy of fragment i.
  Fragment materialize(std::size_t i) const;

  // Per-field element access (bounds unchecked; hot paths).
  FragmentKind kind(std::size_t i) const { return kind_[i]; }
  sim::RankId rank(std::size_t i) const { return rank_[i]; }
  StateKey from(std::size_t i) const { return from_[i]; }
  StateKey to(std::size_t i) const { return to_[i]; }
  double start_time(std::size_t i) const { return start_[i]; }
  double end_time(std::size_t i) const { return end_[i]; }
  const pmu::CounterSample& counters(std::size_t i) const {
    return counters_[i];
  }
  const sim::CommArgs& args(std::size_t i) const { return args_[i]; }
  sim::OpKind op(std::size_t i) const { return op_[i]; }
  std::int64_t truth_class(std::size_t i) const { return truth_[i]; }
  double duration(std::size_t i) const { return end_[i] - start_[i]; }

  // Raw columns for contiguous sweeps (region growing, stats folds) and
  // for the tests that prove moves really are pointer swaps.
  const FragmentKind* kind_data() const { return kind_; }
  const sim::RankId* rank_data() const { return rank_; }
  const StateKey* from_data() const { return from_; }
  const StateKey* to_data() const { return to_; }
  const double* start_data() const { return start_; }
  const double* end_data() const { return end_; }
  const pmu::CounterSample* counters_data() const { return counters_; }

  // Arena telemetry (obs gauges, layout tests).
  std::size_t arena_bytes_reserved() const { return arena_.bytes_reserved(); }
  std::size_t arena_bytes_used() const { return arena_.bytes_used(); }

 private:
  void grow(std::size_t min_capacity);
  void steal(FragmentColumns& other) noexcept;
  void copy_from(const FragmentColumns& other);

  util::Arena arena_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  FragmentKind* kind_ = nullptr;
  sim::RankId* rank_ = nullptr;
  StateKey* from_ = nullptr;
  StateKey* to_ = nullptr;
  double* start_ = nullptr;
  double* end_ = nullptr;
  pmu::CounterSample* counters_ = nullptr;
  sim::CommArgs* args_ = nullptr;
  sim::OpKind* op_ = nullptr;
  std::int64_t* truth_ = nullptr;
};

}  // namespace vapro::core
