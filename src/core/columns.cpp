#include "src/core/columns.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

namespace vapro::core {

// The columns are memcpy'd on growth/copy/append; every element type must
// be trivially copyable (and destructor-free: the arena never destroys).
static_assert(std::is_trivially_copyable_v<FragmentKind>);
static_assert(std::is_trivially_copyable_v<sim::OpKind>);

namespace {

// A column of `capacity` rows holding the first `rows` rows of `old`.
template <typename T>
T* relocate(util::Arena& arena, const T* old, std::size_t rows,
            std::size_t capacity) {
  T* col = arena.allocate_array<T>(capacity);
  if (rows != 0) std::memcpy(col, old, rows * sizeof(T));
  return col;
}

}  // namespace

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

FragmentColumns::FragmentColumns(FragmentColumns&& other) noexcept {
  steal(other);
}

FragmentColumns& FragmentColumns::operator=(FragmentColumns&& other) noexcept {
  if (this != &other) steal(other);
  return *this;
}

FragmentColumns::FragmentColumns(const FragmentColumns& other) {
  append(other);
}

FragmentColumns& FragmentColumns::operator=(const FragmentColumns& other) {
  if (this != &other) {
    clear();
    append(other);
  }
  return *this;
}

void FragmentColumns::steal(FragmentColumns& other) noexcept {
  arena_ = std::move(other.arena_);
  size_ = std::exchange(other.size_, 0);
  capacity_ = std::exchange(other.capacity_, 0);
  for_each_fixed_column([&](auto column) {
    this->*column = std::exchange(other.*column, nullptr);
  });
  counters_ = std::exchange(other.counters_, {});
}

void FragmentColumns::clear() {
  size_ = 0;
  capacity_ = 0;
  for_each_fixed_column([this](auto column) { this->*column = nullptr; });
  counters_ = {};
  arena_.reset();
}

void FragmentColumns::reserve(std::size_t n) {
  if (n > capacity_) grow(n);
}

void FragmentColumns::grow(std::size_t min_capacity) {
  std::size_t cap = std::max<std::size_t>(capacity_ * 2, 64);
  cap = std::max(cap, min_capacity);
  for_each_fixed_column([&](auto column) {
    this->*column = relocate(arena_, this->*column, size_, cap);
  });
  for (double*& col : counters_)
    if (col) col = relocate(arena_, col, size_, cap);
  capacity_ = cap;
}

double* FragmentColumns::counter_column(std::size_t c) {
  double*& col = counters_[c];
  if (!col) {
    col = arena_.allocate_array<double>(capacity_);
    std::fill_n(col, size_, 0.0);
  }
  return col;
}

void FragmentColumns::write_counters(std::size_t i,
                                     const pmu::CounterSample& sample) {
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c) {
    const double v = sample.values[c];
    if (counters_[c] || pmu::counter_present(v)) counter_column(c)[i] = v;
  }
}

void FragmentColumns::push_back(const Fragment& f) {
  if (size_ == capacity_) grow(size_ + 1);
  set(size_++, f);
}

void FragmentColumns::append(const FragmentColumns& other) {
  if (other.size_ == 0) return;
  reserve(size_ + other.size_);
  for_each_fixed_column([&](auto column) {
    std::memcpy(this->*column + size_, other.*column,
                other.size_ * sizeof(*(other.*column)));
  });
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c) {
    if (const double* src = other.counters_[c])
      std::memcpy(counter_column(c) + size_, src, other.size_ * sizeof(double));
    else if (counters_[c])
      std::fill_n(counters_[c] + size_, other.size_, 0.0);
  }
  size_ += other.size_;
}

void FragmentColumns::set(std::size_t i, const Fragment& f) {
  kind_[i] = f.kind;
  rank_[i] = f.rank;
  from_[i] = f.from;
  to_[i] = f.to;
  start_[i] = f.start_time;
  end_[i] = f.end_time;
  // One column per sim::CommArgs field: the binding names every field, so
  // a field added to CommArgs breaks the build here (and args() below
  // must take it too) instead of silently falling out of the window.
  const auto& [bytes, peer, fd, tag, transfer] = f.args;
  bytes_[i] = bytes;
  peer_[i] = peer;
  fd_[i] = fd;
  tag_[i] = tag;
  transfer_[i] = transfer;
  op_[i] = f.op;
  truth_[i] = f.truth_class;
  write_counters(i, f.counters);
}

pmu::CounterSample FragmentColumns::counters(std::size_t i) const {
  pmu::CounterSample sample;
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c)
    if (const double* col = counters_[c]) sample.values[c] = col[i];
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

}  // namespace vapro::core
