// Structure-of-arrays fragment storage (the hot-path window layout).
//
// Every Fragment field is its own contiguous column, sized together and
// carved from one per-window bump arena (src/util/arena.hpp):
//
//   kind | rank | from | to | start | end | op | truth      (always)
//   bytes | peer | fd | tag | transfer       (one per sim::CommArgs field)
//   one double column per pmu::Counter       (only once written)
//
// A fragment carries the deltas of the few counters the tool programmed
// (paper §3.3: TOT_INS plus whatever progressive diagnosis enabled), so a
// counter's column is allocated only when some row writes a value whose
// BIT PATTERN is non-zero — the wire codec's sparse-counter rule
// (src/net/wire.cpp), so -0.0 and denormals allocate a column and
// round-trip bit for bit.  An absent column reads +0.0; when a column
// first appears, the rows written before it are zero-filled.  A row of a
// window that writes only TOT_INS takes 82 bytes, and clustering reads 8
// of them.
//
// Ownership rules that make the pipeline fast and the tests possible:
//   * move      = arena pointer swap (stage hand-off: drain → analysis →
//                 publish, ServerGroup leaf merge) — no per-fragment copy;
//   * copy      = deep copy of the allocated columns into a fresh arena
//                 (stress/test harnesses replay one batch across runs);
//   * clear()   = arena reset — chunks stay reserved, the next window
//                 refills warm memory.
//
// Readers index the columns directly (`cols.duration(i)`,
// `cols.counter(i, c)`); counters(i) and args(i) assemble one fragment's
// sample and arguments by value (wire encoder, diagnosis), and
// materialize(i) rebuilds a whole Fragment where code must own one
// (overlap carry, ServerGroup's rank demux, chaos reordering, fixtures).
#pragma once

#include <array>
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

  // Drops all fragments and every counter column and rewinds the arena;
  // reserved chunks are kept so the next window lands in warm memory.
  void clear();

  void reserve(std::size_t n);
  void push_back(const Fragment& f);
  // Appends `other`'s rows; a counter column only one side has reads
  // +0.0 in the other side's rows.
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
  double counter(std::size_t i, pmu::Counter c) const {
    const double* col = counters_[static_cast<std::size_t>(c)];
    return col ? col[i] : 0.0;
  }
  double bytes(std::size_t i) const { return bytes_[i]; }
  int peer(std::size_t i) const { return peer_[i]; }
  int fd(std::size_t i) const { return fd_[i]; }
  sim::OpKind op(std::size_t i) const { return op_[i]; }
  std::int64_t truth_class(std::size_t i) const { return truth_[i]; }
  double duration(std::size_t i) const { return end_[i] - start_[i]; }

  // Fragment i's counter sample and invocation arguments, assembled from
  // their columns.
  pmu::CounterSample counters(std::size_t i) const;
  sim::CommArgs args(std::size_t i) const;

  // Raw columns for contiguous sweeps (region growing, stats folds) and
  // for the tests that prove moves really are pointer swaps.
  // counter_data(c) is nullptr while no row has written counter c.
  const FragmentKind* kind_data() const { return kind_; }
  const sim::RankId* rank_data() const { return rank_; }
  const StateKey* from_data() const { return from_; }
  const StateKey* to_data() const { return to_; }
  const double* start_data() const { return start_; }
  const double* end_data() const { return end_; }
  const double* counter_data(pmu::Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }

  // Arena telemetry (the vapro.server.column_bytes_total counter, layout
  // tests).
  std::size_t arena_bytes_reserved() const { return arena_.bytes_reserved(); }
  std::size_t arena_bytes_used() const { return arena_.bytes_used(); }

 private:
  // Calls f(&FragmentColumns::kind_), … once per always-present column,
  // so grow, append, steal and clear name each column once.
  template <typename F>
  static void for_each_fixed_column(F&& f);

  void grow(std::size_t min_capacity);
  void steal(FragmentColumns& other) noexcept;
  // Counter c's column, allocated (rows [0, size_) zero-filled) on first
  // use.
  double* counter_column(std::size_t c);
  void write_counters(std::size_t i, const pmu::CounterSample& sample);

  util::Arena arena_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  FragmentKind* kind_ = nullptr;
  sim::RankId* rank_ = nullptr;
  StateKey* from_ = nullptr;
  StateKey* to_ = nullptr;
  double* start_ = nullptr;
  double* end_ = nullptr;
  double* bytes_ = nullptr;
  int* peer_ = nullptr;
  int* fd_ = nullptr;
  int* tag_ = nullptr;
  double* transfer_ = nullptr;
  sim::OpKind* op_ = nullptr;
  std::int64_t* truth_ = nullptr;
  std::array<double*, pmu::kCounterCount> counters_{};
};

}  // namespace vapro::core
