#include "src/core/columns.hpp"

#include <algorithm>

namespace vapro::core {

template <typename F>
void FragmentColumns::for_each_fixed_column(F&& f) {
  f(&FragmentColumns::kind_);
  f(&FragmentColumns::rank_);
  f(&FragmentColumns::from_);
  f(&FragmentColumns::to_);
  f(&FragmentColumns::start_);
  f(&FragmentColumns::end_);
  f(&FragmentColumns::bytes_);
  f(&FragmentColumns::peer_);
  f(&FragmentColumns::fd_);
  f(&FragmentColumns::tag_);
  f(&FragmentColumns::transfer_);
  f(&FragmentColumns::op_);
  f(&FragmentColumns::truth_);
}

void FragmentColumns::clear() {
  for_each_fixed_column([this](auto column) { (this->*column).clear(); });
  for (std::vector<double>& col : counters_) col.clear();
}

void FragmentColumns::reserve(std::size_t n) {
  if (n <= kind_.capacity()) return;
  for_each_fixed_column([&](auto column) { (this->*column).reserve(n); });
  for (std::vector<double>& col : counters_)
    if (!col.empty()) col.reserve(n);
}

void FragmentColumns::open_counter(std::vector<double>& col,
                                   std::size_t rows) {
  col.reserve(kind_.capacity());
  col.resize(rows);
}

void FragmentColumns::push_back(const Fragment& f) {
  // One growth check for every column: they all share kind_'s capacity.
  const std::size_t i = size();
  if (i == kind_.capacity()) reserve(std::max<std::size_t>(2 * i, 64));
  kind_.push_back(f.kind);
  rank_.push_back(f.rank);
  from_.push_back(f.from);
  to_.push_back(f.to);
  start_.push_back(f.start_time);
  end_.push_back(f.end_time);
  // One column per sim::CommArgs field: the binding names every field, so
  // a field added to CommArgs breaks the build here (and set() and args()
  // below must take it too) instead of silently falling out of the
  // window.
  const auto& [bytes, peer, fd, tag, transfer] = f.args;
  bytes_.push_back(bytes);
  peer_.push_back(peer);
  fd_.push_back(fd);
  tag_.push_back(tag);
  transfer_.push_back(transfer);
  op_.push_back(f.op);
  truth_.push_back(f.truth_class);
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c) {
    const double v = f.counters.values[c];
    std::vector<double>& col = counters_[c];
    if (col.empty()) {
      if (!pmu::counter_present(v)) continue;
      open_counter(col, i);
    }
    col.push_back(v);
  }
}

void FragmentColumns::append(const FragmentColumns& other) {
  if (other.empty()) return;
  const std::size_t rows = size();
  reserve(rows + other.size());
  for_each_fixed_column([&](auto column) {
    (this->*column).insert((this->*column).end(), (other.*column).begin(),
                           (other.*column).end());
  });
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c) {
    std::vector<double>& col = counters_[c];
    const std::vector<double>& src = other.counters_[c];
    if (!src.empty()) {
      if (col.empty()) open_counter(col, rows);
      col.insert(col.end(), src.begin(), src.end());
    } else if (!col.empty()) {
      col.resize(size());
    }
  }
}

void FragmentColumns::set(std::size_t i, const Fragment& f) {
  kind_[i] = f.kind;
  rank_[i] = f.rank;
  from_[i] = f.from;
  to_[i] = f.to;
  start_[i] = f.start_time;
  end_[i] = f.end_time;
  const auto& [bytes, peer, fd, tag, transfer] = f.args;
  bytes_[i] = bytes;
  peer_[i] = peer;
  fd_[i] = fd;
  tag_[i] = tag;
  transfer_[i] = transfer;
  op_[i] = f.op;
  truth_[i] = f.truth_class;
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c) {
    const double v = f.counters.values[c];
    std::vector<double>& col = counters_[c];
    if (col.empty()) {
      if (!pmu::counter_present(v)) continue;
      open_counter(col, size());
    }
    col[i] = v;
  }
}

pmu::CounterSample FragmentColumns::counters(std::size_t i) const {
  pmu::CounterSample sample;
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c)
    if (!counters_[c].empty()) sample.values[c] = counters_[c][i];
  return sample;
}

sim::CommArgs FragmentColumns::args(std::size_t i) const {
  return sim::CommArgs{bytes_[i], peer_[i], fd_[i], tag_[i], transfer_[i]};
}

Fragment FragmentColumns::materialize(std::size_t i) const {
  Fragment f;
  f.kind = kind_[i];
  f.rank = rank_[i];
  f.from = from_[i];
  f.to = to_[i];
  f.start_time = start_[i];
  f.end_time = end_[i];
  f.counters = counters(i);
  f.args = args(i);
  f.op = op_[i];
  f.truth_class = truth_[i];
  return f;
}

std::size_t FragmentColumns::bytes_reserved() const {
  std::size_t bytes = 0;
  auto add = [&bytes](const auto& col) {
    bytes += col.capacity() * sizeof(*col.data());
  };
  for_each_fixed_column([&](auto column) { add(this->*column); });
  for (const std::vector<double>& col : counters_) add(col);
  return bytes;
}

}  // namespace vapro::core
