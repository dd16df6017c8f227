#include "src/core/columns.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

namespace vapro::core {

// The columns are memcpy'd on growth/copy/append; every element type must
// be trivially copyable (and destructor-free: the arena never destroys).
static_assert(std::is_trivially_copyable_v<pmu::CounterSample>);
static_assert(std::is_trivially_copyable_v<sim::CommArgs>);
static_assert(std::is_trivially_copyable_v<FragmentKind>);
static_assert(std::is_trivially_copyable_v<sim::OpKind>);

FragmentColumns::FragmentColumns(FragmentColumns&& other) noexcept {
  steal(other);
}

FragmentColumns& FragmentColumns::operator=(FragmentColumns&& other) noexcept {
  if (this != &other) steal(other);
  return *this;
}

FragmentColumns::FragmentColumns(const FragmentColumns& other) {
  copy_from(other);
}

FragmentColumns& FragmentColumns::operator=(const FragmentColumns& other) {
  if (this != &other) {
    clear();
    copy_from(other);
  }
  return *this;
}

void FragmentColumns::steal(FragmentColumns& other) noexcept {
  arena_ = std::move(other.arena_);
  size_ = other.size_;
  capacity_ = other.capacity_;
  kind_ = other.kind_;
  rank_ = other.rank_;
  from_ = other.from_;
  to_ = other.to_;
  start_ = other.start_;
  end_ = other.end_;
  counters_ = other.counters_;
  args_ = other.args_;
  op_ = other.op_;
  truth_ = other.truth_;
  other.size_ = 0;
  other.capacity_ = 0;
  other.kind_ = nullptr;
  other.rank_ = nullptr;
  other.from_ = nullptr;
  other.to_ = nullptr;
  other.start_ = nullptr;
  other.end_ = nullptr;
  other.counters_ = nullptr;
  other.args_ = nullptr;
  other.op_ = nullptr;
  other.truth_ = nullptr;
}

void FragmentColumns::copy_from(const FragmentColumns& other) {
  reserve(other.size_);
  if (other.size_ != 0) {
    std::memcpy(kind_, other.kind_, other.size_ * sizeof(*kind_));
    std::memcpy(rank_, other.rank_, other.size_ * sizeof(*rank_));
    std::memcpy(from_, other.from_, other.size_ * sizeof(*from_));
    std::memcpy(to_, other.to_, other.size_ * sizeof(*to_));
    std::memcpy(start_, other.start_, other.size_ * sizeof(*start_));
    std::memcpy(end_, other.end_, other.size_ * sizeof(*end_));
    std::memcpy(counters_, other.counters_, other.size_ * sizeof(*counters_));
    std::memcpy(args_, other.args_, other.size_ * sizeof(*args_));
    std::memcpy(op_, other.op_, other.size_ * sizeof(*op_));
    std::memcpy(truth_, other.truth_, other.size_ * sizeof(*truth_));
  }
  size_ = other.size_;
}

void FragmentColumns::clear() {
  size_ = 0;
  capacity_ = 0;
  kind_ = nullptr;
  rank_ = nullptr;
  from_ = nullptr;
  to_ = nullptr;
  start_ = nullptr;
  end_ = nullptr;
  counters_ = nullptr;
  args_ = nullptr;
  op_ = nullptr;
  truth_ = nullptr;
  arena_.reset();
}

void FragmentColumns::reserve(std::size_t n) {
  if (n > capacity_) grow(n);
}

void FragmentColumns::grow(std::size_t min_capacity) {
  std::size_t cap = std::max<std::size_t>(capacity_ * 2, 64);
  cap = std::max(cap, min_capacity);

  auto* kind = arena_.allocate_array<FragmentKind>(cap);
  auto* rank = arena_.allocate_array<sim::RankId>(cap);
  auto* from = arena_.allocate_array<StateKey>(cap);
  auto* to = arena_.allocate_array<StateKey>(cap);
  auto* start = arena_.allocate_array<double>(cap);
  auto* end = arena_.allocate_array<double>(cap);
  auto* counters = arena_.allocate_array<pmu::CounterSample>(cap);
  auto* args = arena_.allocate_array<sim::CommArgs>(cap);
  auto* op = arena_.allocate_array<sim::OpKind>(cap);
  auto* truth = arena_.allocate_array<std::int64_t>(cap);

  if (size_ != 0) {
    std::memcpy(kind, kind_, size_ * sizeof(*kind));
    std::memcpy(rank, rank_, size_ * sizeof(*rank));
    std::memcpy(from, from_, size_ * sizeof(*from));
    std::memcpy(to, to_, size_ * sizeof(*to));
    std::memcpy(start, start_, size_ * sizeof(*start));
    std::memcpy(end, end_, size_ * sizeof(*end));
    std::memcpy(counters, counters_, size_ * sizeof(*counters));
    std::memcpy(args, args_, size_ * sizeof(*args));
    std::memcpy(op, op_, size_ * sizeof(*op));
    std::memcpy(truth, truth_, size_ * sizeof(*truth));
  }

  capacity_ = cap;
  kind_ = kind;
  rank_ = rank;
  from_ = from;
  to_ = to;
  start_ = start;
  end_ = end;
  counters_ = counters;
  args_ = args;
  op_ = op;
  truth_ = truth;
}

void FragmentColumns::push_back(const Fragment& f) {
  if (size_ == capacity_) grow(size_ + 1);
  const std::size_t i = size_++;
  kind_[i] = f.kind;
  rank_[i] = f.rank;
  from_[i] = f.from;
  to_[i] = f.to;
  start_[i] = f.start_time;
  end_[i] = f.end_time;
  counters_[i] = f.counters;
  args_[i] = f.args;
  op_[i] = f.op;
  truth_[i] = f.truth_class;
}

void FragmentColumns::append(const FragmentColumns& other) {
  if (other.size_ == 0) return;
  reserve(size_ + other.size_);
  std::memcpy(kind_ + size_, other.kind_, other.size_ * sizeof(*kind_));
  std::memcpy(rank_ + size_, other.rank_, other.size_ * sizeof(*rank_));
  std::memcpy(from_ + size_, other.from_, other.size_ * sizeof(*from_));
  std::memcpy(to_ + size_, other.to_, other.size_ * sizeof(*to_));
  std::memcpy(start_ + size_, other.start_, other.size_ * sizeof(*start_));
  std::memcpy(end_ + size_, other.end_, other.size_ * sizeof(*end_));
  std::memcpy(counters_ + size_, other.counters_,
              other.size_ * sizeof(*counters_));
  std::memcpy(args_ + size_, other.args_, other.size_ * sizeof(*args_));
  std::memcpy(op_ + size_, other.op_, other.size_ * sizeof(*op_));
  std::memcpy(truth_ + size_, other.truth_, other.size_ * sizeof(*truth_));
  size_ += other.size_;
}

void FragmentColumns::set(std::size_t i, const Fragment& f) {
  kind_[i] = f.kind;
  rank_[i] = f.rank;
  from_[i] = f.from;
  to_[i] = f.to;
  start_[i] = f.start_time;
  end_[i] = f.end_time;
  counters_[i] = f.counters;
  args_[i] = f.args;
  op_[i] = f.op;
  truth_[i] = f.truth_class;
}

Fragment FragmentColumns::materialize(std::size_t i) const {
  Fragment f;
  f.kind = kind_[i];
  f.rank = rank_[i];
  f.from = from_[i];
  f.to = to_[i];
  f.start_time = start_[i];
  f.end_time = end_[i];
  f.counters = counters_[i];
  f.args = args_[i];
  f.op = op_[i];
  f.truth_class = truth_[i];
  return f;
}

}  // namespace vapro::core
