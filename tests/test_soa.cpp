// Property tests for the SoA fragment layout (src/core/columns.hpp) and
// its contract with the clustering pipeline:
//
//   * FragmentColumns round-trips every Fragment field through push_back /
//     materialize / set / append;
//   * a counter column exists only once some row wrote a non-zero bit
//     pattern (so -0.0 and denormals count, bit for bit, through the wire
//     codec too); rows written before it, or appended from a window
//     without it, read +0.0 even over dirty capacity; a window that
//     writes only TOT_INS stays under 96 bytes per fragment, built with a
//     reserve or without one (growth keeps no outgrown column);
//   * move (and Stg::adopt_fragments) is a BUFFER SWAP — proved by
//     column-pointer equality, not timing — and the moved-from object is
//     empty and reusable;
//   * clear() keeps every column's capacity, so a same-shaped refill
//     reuses the warm buffers (stable reserved bytes, stable column
//     addresses);
//   * clustering is a pure function of the fragment MULTISET: permuting
//     the window's fragment order (distinct norms, so Algorithm 1's
//     norm-sort has unique keys) yields identical clusters, and every
//     window of the server's adopt → cluster → clear cycle yields the
//     first window's clusters in the first window's footprint;
//   * degenerate window shapes — empty, single-fragment, 64Ki fragments —
//     hold the same invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/clustering.hpp"
#include "src/core/columns.hpp"
#include "src/core/stg.hpp"
#include "src/net/wire.hpp"
#include "src/util/rng.hpp"

namespace vapro::core {
namespace {

sim::InvocationInfo invocation(sim::CallSiteId site,
                               sim::OpKind kind = sim::OpKind::kAllreduce) {
  sim::InvocationInfo info;
  info.rank = 0;
  info.site = site;
  info.kind = kind;
  return info;
}

// A fragment with every field set to an index-derived, distinct value, so
// a column mix-up (e.g. two columns swapped or aliased) cannot cancel out.
Fragment dense_fragment(std::size_t i) {
  Fragment f;
  f.kind = static_cast<FragmentKind>(i % 3);
  f.rank = static_cast<sim::RankId>(i % 7);
  f.from = 100 + i;
  f.to = 200 + i;
  f.start_time = 0.5 * static_cast<double>(i);
  f.end_time = f.start_time + 0.25;
  f.counters[pmu::Counter::kTotIns] = 1000.0 + static_cast<double>(i);
  f.counters[pmu::Counter::kMemRefs] = 2000.0 + static_cast<double>(i);
  f.args.bytes = static_cast<double>(64 * (i + 1));
  f.args.peer = static_cast<int>(i % 5);
  f.args.fd = static_cast<int>(i % 4);
  f.args.tag = static_cast<int>(i);
  f.op = i % 2 ? sim::OpKind::kSend : sim::OpKind::kFileWrite;
  f.truth_class = static_cast<std::int64_t>(i % 11);
  return f;
}

void expect_fragment_eq(const Fragment& a, const Fragment& b,
                        std::size_t i) {
  EXPECT_EQ(a.kind, b.kind) << "fragment " << i;
  EXPECT_EQ(a.rank, b.rank) << "fragment " << i;
  EXPECT_EQ(a.from, b.from) << "fragment " << i;
  EXPECT_EQ(a.to, b.to) << "fragment " << i;
  EXPECT_EQ(a.start_time, b.start_time) << "fragment " << i;
  EXPECT_EQ(a.end_time, b.end_time) << "fragment " << i;
  EXPECT_EQ(a.counters.values, b.counters.values) << "fragment " << i;
  EXPECT_EQ(a.args.bytes, b.args.bytes) << "fragment " << i;
  EXPECT_EQ(a.args.peer, b.args.peer) << "fragment " << i;
  EXPECT_EQ(a.args.fd, b.args.fd) << "fragment " << i;
  EXPECT_EQ(a.args.tag, b.args.tag) << "fragment " << i;
  EXPECT_EQ(a.op, b.op) << "fragment " << i;
  EXPECT_EQ(a.truth_class, b.truth_class) << "fragment " << i;
}

std::size_t index(pmu::Counter c) { return static_cast<std::size_t>(c); }

std::array<const double*, pmu::kCounterCount> counter_columns(
    const FragmentColumns& cols) {
  std::array<const double*, pmu::kCounterCount> out{};
  for (std::size_t c = 0; c < pmu::kCounterCount; ++c)
    out[c] = cols.counter_data(static_cast<pmu::Counter>(c));
  return out;
}

// Bit identity: +0.0 and -0.0 compare equal under ==, memcmp tells them
// apart.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Order-independent, full-precision fingerprint of a clustering result:
// per cluster (sorted by kind, seed_norm) the rare flag, member count and
// the sorted member workload values.  Member INDICES are deliberately
// excluded — they depend on insertion order, which is exactly what the
// permutation property varies.
std::string cluster_fingerprint(const Stg& stg, const ClusteringResult& r) {
  std::vector<std::string> lines;
  for (const Cluster& c : r.clusters) {
    std::vector<double> values;
    for (std::size_t idx : c.members)
      values.push_back(stg.fragments().counter(idx, pmu::Counter::kTotIns));
    std::sort(values.begin(), values.end());
    std::ostringstream oss;
    oss.precision(17);
    oss << fragment_kind_name(c.kind) << "|seed=" << c.seed_norm
        << "|rare=" << c.rare << "|n=" << c.members.size() << "|";
    for (double v : values) oss << v << ",";
    lines.push_back(oss.str());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

// --- columns: round-trip, move, copy, clear ---

TEST(SoaColumns, PushBackMaterializeRoundTripsEveryField) {
  FragmentColumns cols;
  std::vector<Fragment> originals;
  for (std::size_t i = 0; i < 37; ++i) {
    originals.push_back(dense_fragment(i));
    cols.push_back(originals.back());
  }
  ASSERT_EQ(cols.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    expect_fragment_eq(originals[i], cols.materialize(i), i);
    // The field accessors read the same columns the materialization does.
    EXPECT_EQ(cols.duration(i), originals[i].duration());
  }
}

TEST(SoaColumns, MoveIsABufferSwap) {
  FragmentColumns cols;
  for (std::size_t i = 0; i < 64; ++i) cols.push_back(dense_fragment(i));
  const double* start = cols.start_data();
  const FragmentKind* kinds = cols.kind_data();
  const std::array<const double*, pmu::kCounterCount> counters =
      counter_columns(cols);
  EXPECT_NE(counters[index(pmu::Counter::kTotIns)], nullptr);
  EXPECT_NE(counters[index(pmu::Counter::kMemRefs)], nullptr);

  FragmentColumns moved(std::move(cols));
  // The columns did not move in memory: the buffers changed owners.
  EXPECT_EQ(moved.start_data(), start);
  EXPECT_EQ(moved.kind_data(), kinds);
  EXPECT_EQ(counter_columns(moved), counters);
  EXPECT_EQ(moved.size(), 64u);

  // The moved-from object is empty, owns no counter column, and is
  // immediately reusable.
  EXPECT_EQ(cols.size(), 0u);
  for (const double* col : counter_columns(cols)) EXPECT_EQ(col, nullptr);
  cols.push_back(dense_fragment(7));
  EXPECT_EQ(cols.size(), 1u);
  expect_fragment_eq(dense_fragment(7), cols.materialize(0), 7);
  // ... and refilling it never disturbed the moved-to block.
  EXPECT_EQ(moved.start_data(), start);
  expect_fragment_eq(dense_fragment(63), moved.materialize(63), 63);
}

TEST(SoaColumns, AdoptFragmentsIsAPointerSwapToo) {
  FragmentColumns batch;
  Stg stg(StgMode::kContextFree);
  const StateKey k1 = stg.touch_vertex(invocation(1));
  const StateKey k2 = stg.touch_vertex(invocation(2));
  for (std::size_t i = 0; i < 32; ++i) {
    Fragment f = dense_fragment(i);
    f.kind = FragmentKind::kComputation;
    f.from = k1;
    f.to = k2;
    batch.push_back(f);
  }
  const double* start = batch.start_data();
  stg.adopt_fragments(std::move(batch));
  EXPECT_EQ(stg.fragments().start_data(), start);  // no fragment was copied
  EXPECT_EQ(stg.fragments().size(), 32u);
  EXPECT_EQ(stg.edges().begin()->second.fragments.size(), 32u);
}

TEST(SoaColumns, CopyIsDeepAndIndependent) {
  FragmentColumns cols;
  for (std::size_t i = 0; i < 24; ++i) cols.push_back(dense_fragment(i));
  FragmentColumns copy(cols);
  ASSERT_EQ(copy.size(), cols.size());
  EXPECT_NE(copy.start_data(), cols.start_data());  // fresh buffers
  for (std::size_t i = 0; i < cols.size(); ++i)
    expect_fragment_eq(cols.materialize(i), copy.materialize(i), i);

  // set() patches exactly one slot of the copy and nothing else.
  Fragment patched = dense_fragment(99);
  copy.set(5, patched);
  expect_fragment_eq(patched, copy.materialize(5), 5);
  expect_fragment_eq(dense_fragment(5), cols.materialize(5), 5);
  expect_fragment_eq(dense_fragment(6), copy.materialize(6), 6);
}

TEST(SoaColumns, ClearKeepsCapacityForTheNextWindow) {
  FragmentColumns cols;
  for (std::size_t i = 0; i < 128; ++i) cols.push_back(dense_fragment(i));
  const std::size_t reserved = cols.bytes_reserved();
  const double* start = cols.start_data();

  for (int window = 0; window < 5; ++window) {
    cols.clear();
    EXPECT_EQ(cols.size(), 0u);
    EXPECT_EQ(cols.bytes_reserved(), reserved);  // capacity kept
    for (std::size_t i = 0; i < 128; ++i) cols.push_back(dense_fragment(i));
    // A same-shaped window lands in the very same warm memory.
    EXPECT_EQ(cols.start_data(), start);
    EXPECT_EQ(cols.bytes_reserved(), reserved);
  }
  for (std::size_t i = 0; i < 128; ++i)
    expect_fragment_eq(dense_fragment(i), cols.materialize(i), i);
}

TEST(SoaColumns, AppendCopiesTheOtherWindowsRows) {
  FragmentColumns head;
  FragmentColumns tail;
  for (std::size_t i = 0; i < 10; ++i) head.push_back(dense_fragment(i));
  for (std::size_t i = 10; i < 25; ++i) tail.push_back(dense_fragment(i));
  head.append(tail);
  ASSERT_EQ(head.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i)
    expect_fragment_eq(dense_fragment(i), head.materialize(i), i);
  EXPECT_EQ(tail.size(), 15u);  // append reads, never steals
}

// --- counter columns: allocated on first write, zero before it ---

// A fragment with no counter written (its sample is all +0.0).
Fragment bare_fragment(std::size_t i) {
  Fragment f = dense_fragment(i);
  f.counters = pmu::CounterSample{};
  return f;
}

// Leaves `cols` empty over counter columns whose capacity holds non-zero
// doubles, so a column that reappears and skipped its zero-fill would
// read them.
void dirty_and_clear(FragmentColumns& cols, std::size_t rows) {
  Fragment f = dense_fragment(0);
  for (double& v : f.counters.values) v = 7.0;
  for (std::size_t i = 0; i < rows; ++i) cols.push_back(f);
  cols.clear();
}

TEST(SoaColumns, CounterFirstWrittenLateReadsPositiveZeroBefore) {
  constexpr pmu::Counter kLate = pmu::Counter::kStallsL2;
  constexpr std::size_t kFirst = 40;  // first row that writes kLate
  constexpr std::size_t kRows = 150;  // past the first grow (64 rows)
  auto late_fragment = [&](std::size_t i) {
    Fragment f = bare_fragment(i);
    if (i >= kFirst) f.counters[kLate] = 100.0 + static_cast<double>(i);
    return f;
  };
  auto expect_late_column = [&](const FragmentColumns& c, std::size_t offset,
                                const char* how) {
    for (std::size_t i = 0; i < kRows; ++i) {
      const double want = i >= kFirst ? 100.0 + static_cast<double>(i) : 0.0;
      EXPECT_TRUE(same_bits(c.counter(offset + i, kLate), want))
          << how << " row " << offset + i;
      EXPECT_TRUE(same_bits(c.counters(offset + i)[kLate], want))
          << how << " row " << offset + i;
    }
  };

  // push_back, across the grows at 64 and 128 rows.
  FragmentColumns cols;
  dirty_and_clear(cols, 4 * kRows);
  for (std::size_t i = 0; i < kRows; ++i) cols.push_back(late_fragment(i));
  ASSERT_NE(cols.counter_data(kLate), nullptr);
  expect_late_column(cols, 0, "push_back");
  EXPECT_EQ(cols.counter_data(pmu::Counter::kTotIns), nullptr);

  // copy carries the column.
  const FragmentColumns copy(cols);
  expect_late_column(copy, 0, "copy");

  // set() on a window without the column zero-fills every other row, the
  // rows after it included.
  FragmentColumns patched;
  dirty_and_clear(patched, 4 * kRows);
  for (std::size_t i = 0; i < kRows; ++i) patched.push_back(bare_fragment(i));
  Fragment f = bare_fragment(kFirst);
  f.counters[kLate] = 5.0;
  patched.set(kFirst, f);
  for (std::size_t i = 0; i < kRows; ++i)
    EXPECT_TRUE(same_bits(patched.counter(i, kLate), i == kFirst ? 5.0 : 0.0))
        << "set row " << i;

  // append, both directions: the side without the column reads +0.0.
  FragmentColumns without;
  dirty_and_clear(without, 4 * kRows);
  for (std::size_t i = 0; i < kRows; ++i) without.push_back(bare_fragment(i));
  ASSERT_EQ(without.counter_data(kLate), nullptr);

  FragmentColumns with_then_without;
  dirty_and_clear(with_then_without, 4 * kRows);
  with_then_without.append(cols);
  with_then_without.append(without);
  expect_late_column(with_then_without, 0, "append(without)");
  for (std::size_t i = 0; i < kRows; ++i)
    EXPECT_TRUE(same_bits(with_then_without.counter(kRows + i, kLate), 0.0))
        << "append(without) row " << kRows + i;

  FragmentColumns without_then_with;
  dirty_and_clear(without_then_with, 4 * kRows);
  without_then_with.append(without);
  without_then_with.append(cols);
  for (std::size_t i = 0; i < kRows; ++i)
    EXPECT_TRUE(same_bits(without_then_with.counter(i, kLate), 0.0))
        << "append(with) row " << i;
  expect_late_column(without_then_with, kRows, "append(with)");
}

TEST(SoaColumns, NegativeZeroAndDenormalAllocateAColumnBitForBit) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  FragmentBatch batch;
  for (std::size_t i = 0; i < 6; ++i) {
    Fragment f = bare_fragment(i);
    f.start_time = 0.1 * static_cast<double>(i);
    f.end_time = f.start_time + 0.05;
    if (i == 2) f.counters[pmu::Counter::kStallsDram] = -0.0;
    if (i == 4) f.counters[pmu::Counter::kSignals] = denormal;
    batch.fragments.push_back(f);
  }
  auto expect_bits = [&](const FragmentColumns& cols, const char* how) {
    ASSERT_NE(cols.counter_data(pmu::Counter::kStallsDram), nullptr) << how;
    ASSERT_NE(cols.counter_data(pmu::Counter::kSignals), nullptr) << how;
    EXPECT_TRUE(same_bits(cols.counter(2, pmu::Counter::kStallsDram), -0.0))
        << how;
    EXPECT_TRUE(same_bits(cols.counter(4, pmu::Counter::kSignals), denormal))
        << how;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const Fragment want = batch.fragments.materialize(i);
      const pmu::CounterSample got = cols.counters(i);
      EXPECT_EQ(0, std::memcmp(want.counters.values.data(), got.values.data(),
                               sizeof(got.values)))
          << how << " row " << i;
    }
  };
  expect_bits(batch.fragments, "push_back");

  FragmentBatch decoded;
  double drain = 0.0;
  std::string error;
  ASSERT_TRUE(net::decode_batch(net::encode_batch(batch, 0.0), &decoded,
                                &drain, &error))
      << error;
  expect_bits(decoded.fragments, "wire round trip");
}

TEST(SoaColumns, WindowThatWritesNoCounterAllocatesNoCounterColumn) {
  FragmentColumns cols;
  for (std::size_t i = 0; i < 100; ++i) cols.push_back(bare_fragment(i));
  FragmentColumns copy(cols);
  copy.append(cols);
  for (const FragmentColumns* c : {&cols, &copy})
    for (const double* col : counter_columns(*c)) EXPECT_EQ(col, nullptr);
  EXPECT_EQ(copy.counters(150).values, pmu::CounterSample{}.values);
}

// Bytes per fragment of a 64Ki-fragment window that writes only TOT_INS,
// built by push_back after an optional reserve.
double tot_ins_window_bytes_per_fragment(bool reserve) {
  constexpr std::size_t kN = 64 * 1024;
  FragmentColumns cols;
  if (reserve) cols.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    Fragment f = bare_fragment(i);
    f.counters[pmu::Counter::kTotIns] = 1e6 + static_cast<double>(i);
    cols.push_back(f);
  }
  return static_cast<double>(cols.bytes_reserved()) /
         static_cast<double>(cols.size());
}

// Counting gate for the layout: a window that writes only TOT_INS stores
// 8 bytes of counters per fragment, not the 144 of a full CounterSample.
TEST(SoaColumns, UnwrittenCountersTakeNoSpace) {
  EXPECT_LE(tot_ins_window_bytes_per_fragment(/*reserve=*/true), 96.0);
}

// Counting gate for growth: the client builds each batch by push_back
// without a reserve, and the columns it doubles through must not stay
// allocated beside the final ones.
TEST(SoaColumns, PushBackBuiltWindowKeepsNoOutgrownColumns) {
  EXPECT_LE(tot_ins_window_bytes_per_fragment(/*reserve=*/false), 96.0);
}

// --- degenerate window shapes ---

TEST(SoaColumns, EmptyWindow) {
  FragmentColumns cols;
  EXPECT_TRUE(cols.empty());
  FragmentColumns moved(std::move(cols));
  EXPECT_TRUE(moved.empty());
  Stg stg(StgMode::kContextFree);
  stg.adopt_fragments(std::move(moved));
  EXPECT_EQ(stg.fragments().size(), 0u);
  const ClusteringResult r = cluster_stg(stg, ClusterOptions{});
  EXPECT_TRUE(r.clusters.empty());
}

TEST(SoaColumns, SingleFragmentWindow) {
  Stg stg(StgMode::kContextFree);
  const StateKey k1 = stg.touch_vertex(invocation(1));
  const StateKey k2 = stg.touch_vertex(invocation(2));
  FragmentColumns cols;
  Fragment f = dense_fragment(0);
  f.kind = FragmentKind::kComputation;
  f.from = k1;
  f.to = k2;
  cols.push_back(f);
  stg.adopt_fragments(std::move(cols));
  const ClusteringResult r = cluster_stg(stg, ClusterOptions{});
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_TRUE(r.clusters[0].rare);  // 1 member < min_cluster_size
  EXPECT_EQ(r.clusters[0].members.size(), 1u);
}

TEST(SoaColumns, SixtyFourKiFragmentWindow) {
  constexpr std::size_t kN = 64 * 1024;
  FragmentColumns cols;
  cols.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) cols.push_back(dense_fragment(i));
  ASSERT_EQ(cols.size(), kN);
  // Spot-check the corners and a stride through the middle: a capacity
  // regrowth that lost or shifted a column would surface here.
  expect_fragment_eq(dense_fragment(0), cols.materialize(0), 0);
  expect_fragment_eq(dense_fragment(kN - 1), cols.materialize(kN - 1),
                     kN - 1);
  for (std::size_t i = 0; i < kN; i += 4097)
    expect_fragment_eq(dense_fragment(i), cols.materialize(i), i);
  // The columns really are dense: they hold at least the payload.
  EXPECT_GE(cols.bytes_reserved(), kN * sizeof(double) * 2);
  FragmentColumns moved(std::move(cols));
  EXPECT_EQ(moved.size(), kN);
}

// --- clustering properties over the SoA layout ---

class SoaClustering : public ::testing::Test {
 protected:
  // Three norm-separated classes plus two far-out rare singletons, all
  // with DISTINCT tot_ins values (Algorithm 1 sorts by norm; unique keys
  // make the clustering a pure function of the fragment multiset).
  std::vector<Fragment> make_window(const StateKey k1, const StateKey k2) {
    std::vector<Fragment> frags;
    std::size_t n = 0;
    auto add_class = [&](double base, int count) {
      for (int i = 0; i < count; ++i) {
        Fragment f;
        f.kind = FragmentKind::kComputation;
        f.from = k1;
        f.to = k2;
        f.start_time = 0.01 * static_cast<double>(n);
        f.end_time = f.start_time + 0.005;
        // 0.1% spacing keeps the class inside the 5% threshold while
        // keeping every norm distinct.
        f.counters[pmu::Counter::kTotIns] =
            base * (1.0 + 0.001 * static_cast<double>(i));
        f.truth_class = static_cast<std::int64_t>(base);
        frags.push_back(f);
        ++n;
      }
    };
    add_class(1000.0, 8);
    add_class(2000.0, 6);
    add_class(4000.0, 7);
    add_class(9000.0, 1);   // rare
    add_class(16000.0, 1);  // rare
    return frags;
  }

  std::string cluster_window(const std::vector<Fragment>& frags) {
    Stg stg(StgMode::kContextFree);
    const StateKey k1 = stg.touch_vertex(invocation(1));
    const StateKey k2 = stg.touch_vertex(invocation(2));
    FragmentColumns cols;
    cols.reserve(frags.size());
    for (Fragment f : frags) {
      f.from = k1;  // keys depend on the Stg instance; rebind
      f.to = k2;
      cols.push_back(f);
    }
    stg.adopt_fragments(std::move(cols));
    const ClusteringResult r = cluster_stg(stg, ClusterOptions{});
    return cluster_fingerprint(stg, r);
  }
};

TEST_F(SoaClustering, PermutationOfFragmentOrderYieldsIdenticalClusters) {
  Stg probe(StgMode::kContextFree);
  const StateKey k1 = probe.touch_vertex(invocation(1));
  const StateKey k2 = probe.touch_vertex(invocation(2));
  std::vector<Fragment> frags = make_window(k1, k2);
  const std::string base = cluster_window(frags);
  EXPECT_NE(base.find("rare=1"), std::string::npos);
  EXPECT_NE(base.find("rare=0"), std::string::npos);

  util::Rng rng(20260808);
  for (int trial = 0; trial < 8; ++trial) {
    util::shuffle(frags, rng);
    EXPECT_EQ(cluster_window(frags), base) << "permutation trial " << trial;
  }
}

TEST_F(SoaClustering, WindowCycleYieldsIdenticalClustersInOneFootprint) {
  Stg stg(StgMode::kContextFree);
  const StateKey k1 = stg.touch_vertex(invocation(1));
  const StateKey k2 = stg.touch_vertex(invocation(2));
  const std::vector<Fragment> frags = make_window(k1, k2);

  std::string first;
  std::size_t reserved_after_first = 0;
  // The server's window loop: fill a batch, adopt → cluster → clear.  The
  // moved-from batch holds no buffers, so each window fills fresh ones,
  // and adopt frees the previous window's.
  FragmentColumns batch;
  for (int window = 0; window < 4; ++window) {
    batch.clear();
    batch.reserve(frags.size());
    for (const Fragment& f : frags) batch.push_back(f);
    stg.adopt_fragments(std::move(batch));
    const ClusteringResult r = cluster_stg(stg, ClusterOptions{});
    const std::string fp = cluster_fingerprint(stg, r);
    if (window == 0) {
      first = fp;
      reserved_after_first = stg.fragments().bytes_reserved();
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(fp, first) << "window " << window;
      // Same shape, same footprint: no window reserves more than the
      // first.
      EXPECT_EQ(stg.fragments().bytes_reserved(), reserved_after_first)
          << "window " << window;
    }
    stg.clear_fragments();
  }
}

}  // namespace
}  // namespace vapro::core
