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
//     hold the same invariants;
//   * clustering equals the Algorithm 1 it replaced (per-cluster vectors,
//     std::sort over 24-byte entries), kept here as an oracle, cluster by
//     cluster at 1, 2 and 4 lanes, over tie-free, tied and zero norms on
//     both sides of the radix cutoff; a copied result views its own
//     member array.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/clustering.hpp"
#include "src/core/columns.hpp"
#include "src/core/stg.hpp"
#include "src/net/wire.hpp"
#include "src/util/pipeline.hpp"
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

// --- Algorithm 1 against its reference implementation ---

// The Algorithm 1 the member array and the radix sort replaced, kept as
// the oracle: per-cluster std::vector members, 24-byte {norm, fragment,
// row} entries put in order by std::sort from arrival order, a
// std::vector<bool> of used flags, and the AoS workload vectors
// (make_workload_vector), whose norm and distance take the SoA sweep's FP
// op order.
struct OracleCluster {
  StateKey from = kStartState;
  StateKey to = kStartState;
  FragmentKind kind = FragmentKind::kComputation;
  std::vector<std::size_t> members;
  double seed_norm = 0.0;
  bool rare = false;
};

void oracle_item(const Stg& stg, const std::vector<std::size_t>& indices,
                 const ClusterOptions& opts, std::vector<OracleCluster>& out) {
  struct Entry {
    double norm;
    std::size_t frag_idx;
    std::size_t pos;
  };
  const FragmentColumns& cols = stg.fragments();
  std::vector<WorkloadVector> rows;
  std::vector<Entry> entries;
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    rows.push_back(
        make_workload_vector(cols.materialize(indices[pos]), opts.proxies));
    entries.push_back(Entry{rows.back().norm(), indices[pos], pos});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.norm < b.norm; });
  std::vector<bool> used(entries.size(), false);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (used[i]) continue;
    OracleCluster c;
    c.from = cols.from(indices.front());
    c.to = cols.to(indices.front());
    c.kind = cols.kind(indices.front());
    c.seed_norm = entries[i].norm;
    c.members.push_back(entries[i].frag_idx);
    used[i] = true;
    const double radius = std::max(entries[i].norm * opts.threshold, 1e-12);
    const WorkloadVector& seed = rows[entries[i].pos];
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[j].norm - entries[i].norm > radius) break;
      if (used[j]) continue;
      if (seed.distance(rows[entries[j].pos]) <= radius) {
        c.members.push_back(entries[j].frag_idx);
        used[j] = true;
      }
    }
    c.rare = c.members.size() < static_cast<std::size_t>(opts.min_cluster_size);
    out.push_back(std::move(c));
  }
}

// Edges and vertices in (key, vertex) order, as cluster_stg emits them.
std::vector<OracleCluster> oracle_cluster_stg(const Stg& stg,
                                              const ClusterOptions& opts) {
  struct Item {
    std::uint64_t key;
    bool vertex;
    const std::vector<std::size_t>* fragments;
  };
  std::vector<Item> items;
  for (const auto& [key, edge] : stg.edges())
    if (!edge.fragments.empty()) items.push_back(Item{key, false, &edge.fragments});
  for (const auto& [key, vertex] : stg.vertices())
    if (!vertex.fragments.empty())
      items.push_back(Item{key, true, &vertex.fragments});
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.vertex < b.vertex;
  });
  std::vector<OracleCluster> out;
  for (const Item& item : items) oracle_item(stg, *item.fragments, opts, out);
  return out;
}

void expect_matches_oracle(const std::vector<OracleCluster>& want,
                           const ClusteringResult& got,
                           const std::string& what) {
  ASSERT_EQ(got.clusters.size(), want.size()) << what;
  for (std::size_t c = 0; c < want.size(); ++c) {
    const Cluster& g = got.clusters[c];
    EXPECT_EQ(g.from, want[c].from) << what << " #" << c;
    EXPECT_EQ(g.to, want[c].to) << what << " #" << c;
    EXPECT_EQ(g.kind, want[c].kind) << what << " #" << c;
    EXPECT_TRUE(same_bits(g.seed_norm, want[c].seed_norm))
        << what << " #" << c << ": " << g.seed_norm << " vs "
        << want[c].seed_norm;
    EXPECT_EQ(g.rare, want[c].rare) << what << " #" << c;
    EXPECT_EQ(std::vector<std::size_t>(g.members.begin(), g.members.end()),
              want[c].members)
        << what << " #" << c;
  }
}

// How an item's norms reach the sort, counted so a generator that stops
// producing a shape fails instead of passing vacuously.
struct OracleShapes {
  std::size_t tie_free_large = 0;  // radix sort, result kept
  std::size_t tie_free_small = 0;  // below the radix cutoff
  std::size_t adjacent_tie = 0;    // straight to std::sort
  std::size_t distant_tie = 0;     // radix sort, then back to std::sort
  std::size_t zero_norm = 0;
  std::size_t three_dim = 0;
  std::size_t carry_ins = 0;

  void count(const Stg& stg, const std::vector<std::size_t>& indices,
             const ClusterOptions& opts) {
    std::vector<double> norms;
    for (std::size_t idx : indices)
      norms.push_back(
          make_workload_vector(stg.fragments().materialize(idx), opts.proxies)
              .norm());
    bool adjacent = false;
    for (std::size_t i = 1; i < norms.size(); ++i)
      adjacent = adjacent || norms[i] == norms[i - 1];
    std::vector<double> sorted = norms;
    std::sort(sorted.begin(), sorted.end());
    const bool tied =
        std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
    const bool large = norms.size() >= 64;
    tie_free_large += large && !tied;
    tie_free_small += !large && !tied;
    adjacent_tie += large && adjacent;
    distant_tie += large && tied && !adjacent;
    zero_norm += std::count(norms.begin(), norms.end(), 0.0) > 0;
    three_dim += stg.fragments().kind(indices.front()) !=
                 FragmentKind::kComputation;
  }
};

// A window's Stg over the item shapes the sort tells apart, on edges
// k[e] -> k[e+1] and on a communication and an IO vertex.  Each window
// after the first starts with the previous window's last `carry`
// fragments, re-added as the server carries an overlap in.
std::vector<Fragment> oracle_fragments(std::mt19937_64& rng,
                                       const std::vector<StateKey>& k,
                                       StateKey comm, StateKey io) {
  std::vector<Fragment> frags;
  double t = 0.0;
  const auto computation = [&](std::size_t edge, double tot_ins,
                               double mem_refs) {
    Fragment f;
    f.kind = FragmentKind::kComputation;
    f.rank = static_cast<sim::RankId>(rng() % 8);
    f.from = k[edge];
    f.to = k[edge + 1];
    f.start_time = t;
    f.end_time = t += 0.001;
    f.counters[pmu::Counter::kTotIns] = tot_ins;
    f.counters[pmu::Counter::kMemRefs] = mem_refs;
    frags.push_back(f);
  };
  const auto invocation_fragment = [&](FragmentKind kind, StateKey key,
                                       sim::OpKind op, double bytes,
                                       int channel) {
    Fragment f;
    f.kind = kind;
    f.rank = static_cast<sim::RankId>(rng() % 8);
    f.from = f.to = key;
    f.start_time = t;
    f.end_time = t += 0.001;
    f.op = op;
    f.args.bytes = bytes;
    f.args.peer = kind == FragmentKind::kCommunication ? channel : 0;
    f.args.fd = kind == FragmentKind::kIo ? channel : 0;
    frags.push_back(f);
  };
  // Distinct values in shuffled arrival order, from three families far
  // apart: steps of k·1e-4 on classes 1.3x apart, integer counts near 3e6
  // (differing in the middle bytes of the norm's bits), and runs a few ulps
  // apart near 7e6 (differing in the lowest bytes), so a radix pass that
  // sorts or skips the wrong byte misorders them.
  const auto distinct = [&rng](std::size_t n) {
    std::vector<double> v(n);
    double ulps = 7e6;
    for (std::size_t i = 0; i < n; ++i) {
      const double k = static_cast<double>(i);
      switch (i % 3) {
        case 0:
          v[i] = 1e6 * std::pow(1.3, static_cast<double>(i / 3 % 4)) *
                 (1.0 + 1e-4 * k);
          break;
        case 1: v[i] = 3e6 + k; break;
        case 2:
          for (std::uint64_t step = 1 + rng() % 300; step > 0; --step)
            ulps = std::nextafter(ulps, 1e300);
          v[i] = ulps;
          break;
      }
    }
    std::shuffle(v.begin(), v.end(), rng);
    return v;
  };
  // Edge 0: tie-free, above the radix cutoff, with one zero norm.
  {
    std::vector<double> v = distinct(64 + rng() % 300);
    v[rng() % v.size()] = 0.0;
    for (double x : v) computation(0, x, 0.5 * x);
  }
  // Edge 1: tie-free, below the cutoff.
  for (double x : distinct(5 + rng() % 55)) computation(1, x, 0.5 * x);
  // Edge 2: every norm repeats the one before it (iterations of a loop).
  {
    const std::size_t n = 64 + rng() % 200;
    for (std::size_t i = 0; i < n; ++i)
      computation(2, 1e6 * static_cast<double>(1 + (i / 8) % 3), 2e5);
  }
  // Edge 3: distinct but for one pair of equal norms far apart in arrival
  // order.
  {
    std::vector<double> v = distinct(64 + rng() % 300);
    v.back() = v.front();
    for (double x : v) computation(3, x, 0.5 * x);
  }
  // Edge 4: a few zero-norm transitions (tied zeros, below the cutoff).
  for (int i = 0; i < 6; ++i) computation(4, i % 3 ? 0.0 : 10.0, 0.0);
  // Communication vertex: tie-free bytes, then tied rounds over 4 peers.
  for (double x : distinct(64 + rng() % 100))
    invocation_fragment(FragmentKind::kCommunication, comm,
                        sim::OpKind::kAllreduce, x / 256.0, 1);
  for (int i = 0; i < 40; ++i)
    invocation_fragment(FragmentKind::kCommunication, comm,
                        sim::OpKind::kAllreduce, 4096.0, i % 4);
  // IO vertex: a few write sizes over 2 descriptors, tied.
  for (int i = 0; i < 30; ++i)
    invocation_fragment(FragmentKind::kIo, io, sim::OpKind::kFileWrite,
                        1024.0 * (1 + i % 3), i % 2);
  std::shuffle(frags.begin(), frags.end(), rng);
  return frags;
}

TEST(ClusteringOracle, EveryClusterMatchesTheReferenceAtEveryLaneCount) {
  ClusterOptions two_proxies;
  two_proxies.proxies = {pmu::Counter::kTotIns, pmu::Counter::kMemRefs};
  two_proxies.threshold = 0.1;
  const ClusterOptions option_sets[] = {ClusterOptions{}, two_proxies};
  util::WorkerPool pools[] = {util::WorkerPool(1), util::WorkerPool(2),
                              util::WorkerPool(4)};
  OracleShapes shapes;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    std::mt19937_64 rng(seed);
    Stg stg(StgMode::kContextFree);
    std::vector<StateKey> k;
    for (sim::CallSiteId s = 0; s < 6; ++s) k.push_back(stg.touch_vertex(invocation(s)));
    const StateKey comm = stg.touch_vertex(invocation(20));
    const StateKey io = stg.touch_vertex(invocation(21, sim::OpKind::kFileWrite));
    std::vector<Fragment> carry;
    for (int window = 0; window < 3; ++window) {
      for (const Fragment& f : carry) stg.add_fragment(f);
      shapes.carry_ins += carry.size();
      const std::vector<Fragment> fresh = oracle_fragments(rng, k, comm, io);
      for (const Fragment& f : fresh) stg.add_fragment(f);
      carry.assign(fresh.end() - 40, fresh.end());

      for (const ClusterOptions& opts : option_sets) {
        for (const auto& [key, edge] : stg.edges())
          shapes.count(stg, edge.fragments, opts);
        for (const auto& [key, vertex] : stg.vertices())
          if (!vertex.fragments.empty())
            shapes.count(stg, vertex.fragments, opts);
        const std::vector<OracleCluster> want = oracle_cluster_stg(stg, opts);
        const std::string what = "seed " + std::to_string(seed) + " window " +
                                 std::to_string(window) + " proxies " +
                                 std::to_string(opts.proxies.size());
        expect_matches_oracle(want, cluster_stg(stg, opts), what + " serial");
        for (util::WorkerPool& pool : pools)
          expect_matches_oracle(want, cluster_stg_parallel(stg, opts, &pool),
                                what + " lanes " + std::to_string(pool.lanes()));
      }
      stg.clear_fragments();
    }
  }
  EXPECT_GT(shapes.tie_free_large, 0u);
  EXPECT_GT(shapes.tie_free_small, 0u);
  EXPECT_GT(shapes.adjacent_tie, 0u);
  EXPECT_GT(shapes.distant_tie, 0u);
  EXPECT_GT(shapes.zero_norm, 0u);
  EXPECT_GT(shapes.three_dim, 0u);
  EXPECT_GT(shapes.carry_ins, 0u);
}

// A copy's views point into its own member array (and so outlive the
// original); a move keeps the buffer the views already point into.
TEST(ClusteringOracle, CopiedResultViewsItsOwnMemberArray) {
  std::mt19937_64 rng(5);
  Stg stg(StgMode::kContextFree);
  std::vector<StateKey> k;
  for (sim::CallSiteId s = 0; s < 6; ++s) k.push_back(stg.touch_vertex(invocation(s)));
  const StateKey comm = stg.touch_vertex(invocation(20));
  const StateKey io = stg.touch_vertex(invocation(21, sim::OpKind::kFileWrite));
  for (const Fragment& f : oracle_fragments(rng, k, comm, io)) stg.add_fragment(f);
  const std::vector<OracleCluster> want = oracle_cluster_stg(stg, ClusterOptions{});

  const auto views_own_array = [](const ClusteringResult& r) {
    const std::size_t* lo = r.member_array.data();
    const std::size_t* hi = lo + r.member_array.size();
    std::size_t total = 0;
    for (const Cluster& c : r.clusters) {
      if (c.members.data() < lo || c.members.data() + c.members.size() > hi)
        return false;
      total += c.members.size();
    }
    return total == r.member_array.size();
  };
  ClusteringResult assigned;
  std::unique_ptr<ClusteringResult> copy;
  {
    util::WorkerPool pool(2);
    const ClusteringResult original = cluster_stg_parallel(stg, ClusterOptions{}, &pool);
    ASSERT_TRUE(views_own_array(original));
    copy = std::make_unique<ClusteringResult>(original);
    assigned = *copy;
  }
  ASSERT_TRUE(views_own_array(*copy));
  ASSERT_TRUE(views_own_array(assigned));
  EXPECT_NE(copy->member_array.data(), assigned.member_array.data());
  expect_matches_oracle(want, *copy, "copy");
  expect_matches_oracle(want, assigned, "copy-assigned");

  const std::size_t* buffer = copy->member_array.data();
  const ClusteringResult moved = std::move(*copy);
  copy.reset();
  EXPECT_EQ(moved.member_array.data(), buffer);
  EXPECT_TRUE(views_own_array(moved));
  expect_matches_oracle(want, moved, "moved");
}

}  // namespace
}  // namespace vapro::core
