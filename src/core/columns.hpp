// Structure-of-arrays fragment storage (the hot-path window layout).
//
// Every Fragment field is its own contiguous std::vector column, all of
// one length:
//
//   kind | rank | from | to | start | end | op | truth      (always)
//   bytes | peer | fd | tag | transfer       (one per sim::CommArgs field)
//   one double column per pmu::Counter       (only once written)
//
// A fragment carries the deltas of the few counters the tool programmed
// (paper §3.3: TOT_INS plus whatever progressive diagnosis enabled), so a
// counter's column gets rows only once some row writes a value whose
// BIT PATTERN is non-zero — the wire codec's sparse-counter rule
// (src/net/wire.cpp), so -0.0 and denormals open a column and round-trip
// bit for bit.  An empty counter column is an absent one and reads +0.0;
// when a column first appears, the rows written before it are
// zero-filled.  A row of a window that writes only TOT_INS takes 82
// bytes, and clustering reads 8 of them.
//
// Ownership rules that make the pipeline fast and the tests possible:
//   * move      = buffer swap (stage hand-off: drain → analysis →
//                 publish, ServerGroup leaf merge) — no per-fragment copy;
//                 the moved-from object is empty and reusable;
//   * copy      = deep copy of the columns (stress/test harnesses replay
//                 one batch across runs);
//   * clear()   = every column emptied, capacity kept — the next window
//                 refills warm memory.
// Growth doubles the capacity of every column at once and frees the
// outgrown buffers; reserve() allocates without touching the memory, so
// capacity no row reaches is never faulted in.
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
#include <vector>

#include "src/core/fragment.hpp"

namespace vapro::core {

class FragmentColumns {
 public:
  std::size_t size() const { return kind_.size(); }
  bool empty() const { return kind_.empty(); }

  // Drops all fragments and every counter column; the capacity is kept so
  // the next window lands in warm memory.
  void clear();

  void reserve(std::size_t n);
  void push_back(const Fragment& f);
  // Appends the rows of `other` (another object); a counter column only
  // one side has reads +0.0 in the other side's rows.
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
    const std::vector<double>& col = counters_[static_cast<std::size_t>(c)];
    return col.empty() ? 0.0 : col[i];
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
  // for the tests that prove moves really are buffer swaps.
  // counter_data(c) is nullptr while no row has written counter c.
  const FragmentKind* kind_data() const { return kind_.data(); }
  const sim::RankId* rank_data() const { return rank_.data(); }
  const StateKey* from_data() const { return from_.data(); }
  const StateKey* to_data() const { return to_.data(); }
  const double* start_data() const { return start_.data(); }
  const double* end_data() const { return end_.data(); }
  const double* counter_data(pmu::Counter c) const {
    const std::vector<double>& col = counters_[static_cast<std::size_t>(c)];
    return col.empty() ? nullptr : col.data();
  }

  // Capacity bytes every column holds (the vapro.server.column_bytes_total
  // counter, layout tests).
  std::size_t bytes_reserved() const;

 private:
  // Calls f(&FragmentColumns::kind_), … once per always-present column,
  // so reserve, append, clear and bytes_reserved name each column once.
  template <typename F>
  static void for_each_fixed_column(F&& f);

  // Opens the absent counter column `col` at the fixed columns' capacity
  // with `rows` zero rows.
  void open_counter(std::vector<double>& col, std::size_t rows);

  std::vector<FragmentKind> kind_;
  std::vector<sim::RankId> rank_;
  std::vector<StateKey> from_;
  std::vector<StateKey> to_;
  std::vector<double> start_;
  std::vector<double> end_;
  std::vector<double> bytes_;
  std::vector<int> peer_;
  std::vector<int> fd_;
  std::vector<int> tag_;
  std::vector<double> transfer_;
  std::vector<sim::OpKind> op_;
  std::vector<std::int64_t> truth_;
  std::array<std::vector<double>, pmu::kCounterCount> counters_;
};

}  // namespace vapro::core
