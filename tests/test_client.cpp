// Direct unit tests of the VaproClient: fragment cutting, state
// announcements, sampling decisions, counter staging, storage accounting,
// and the enhanced-profiling transfer-time path — driven by synthetic
// intercept events, no simulator involved.
#include <gtest/gtest.h>

#include "src/core/client.hpp"

namespace vapro::core {
namespace {

sim::InvocationInfo call(int rank, sim::CallSiteId site,
                         sim::OpKind kind = sim::OpKind::kBarrier) {
  sim::InvocationInfo info;
  info.rank = rank;
  info.site = site;
  info.kind = kind;
  return info;
}

pmu::CounterSample counters_at(double tot_ins) {
  pmu::CounterSample s;
  s[pmu::Counter::kTotIns] = tot_ins;
  return s;
}

ClientOptions exact_options() {
  ClientOptions opts;
  opts.pmu_jitter = 0.0;  // exact reads for assertion-friendly tests
  return opts;
}

TEST(Client, CutsComputationFragmentBetweenCalls) {
  VaproClient client(1, exact_options());
  auto c1 = call(0, 10);
  client.on_call_begin(c1, 1.0, counters_at(100));
  client.on_call_end(c1, 1.1, counters_at(100));
  auto c2 = call(0, 11);
  client.on_call_begin(c2, 2.1, counters_at(400));
  client.on_call_end(c2, 2.2, counters_at(400));

  FragmentBatch batch = client.drain();
  // comp(start→10), inv(10), comp(10→11), inv(11).
  ASSERT_EQ(batch.fragments.size(), 4u);
  const FragmentColumns& frags = batch.fragments;
  EXPECT_EQ(frags.kind(2), FragmentKind::kComputation);
  EXPECT_DOUBLE_EQ(frags.start_time(2), 1.1);
  EXPECT_DOUBLE_EQ(frags.end_time(2), 2.1);
  EXPECT_DOUBLE_EQ(frags.counters(2)[pmu::Counter::kTotIns], 300.0);
  EXPECT_EQ(frags.kind(3), FragmentKind::kCommunication);
  EXPECT_NEAR(frags.duration(3), 0.1, 1e-12);
}

TEST(Client, FirstFragmentComesFromStartState) {
  VaproClient client(1, exact_options());
  auto c = call(0, 10);
  client.on_call_begin(c, 0.5, counters_at(50));
  client.on_call_end(c, 0.6, counters_at(50));
  FragmentBatch batch = client.drain();
  ASSERT_GE(batch.fragments.size(), 1u);
  EXPECT_EQ(batch.fragments.from(0), kStartState);
}

TEST(Client, AnnouncesEachStateOnce) {
  VaproClient client(2, exact_options());
  for (int rank = 0; rank < 2; ++rank) {
    for (int rep = 0; rep < 3; ++rep) {
      auto c = call(rank, 10);
      client.on_call_begin(c, rep + rank * 10.0, counters_at(0));
      client.on_call_end(c, rep + rank * 10.0 + 0.1, counters_at(0));
    }
  }
  FragmentBatch batch = client.drain();
  EXPECT_EQ(batch.new_states.size(), 1u);  // same site everywhere
}

TEST(Client, ProbesCutButAreNotRecorded) {
  VaproClient client(1, exact_options());
  auto probe = call(0, 7, sim::OpKind::kProbe);
  client.on_call_begin(probe, 1.0, counters_at(10));
  client.on_call_end(probe, 1.0, counters_at(10));
  FragmentBatch batch = client.drain();
  ASSERT_EQ(batch.fragments.size(), 1u);  // only the computation fragment
  EXPECT_EQ(batch.fragments.kind(0), FragmentKind::kComputation);
}

TEST(Client, IoOpsProduceIoFragments) {
  VaproClient client(1, exact_options());
  auto rd = call(0, 3, sim::OpKind::kFileRead);
  rd.args.bytes = 4096;
  rd.args.fd = 9;
  client.on_call_begin(rd, 1.0, counters_at(0));
  client.on_call_end(rd, 1.2, counters_at(0));
  FragmentBatch batch = client.drain();
  ASSERT_EQ(batch.fragments.size(), 2u);
  EXPECT_EQ(batch.fragments.kind(1), FragmentKind::kIo);
  EXPECT_DOUBLE_EQ(batch.fragments.args(1).bytes, 4096);
}

TEST(Client, EnhancedProfilingShrinksWaitFragments) {
  VaproClient client(1, exact_options());
  auto wait = call(0, 5, sim::OpKind::kWait);
  wait.args.transfer_seconds = 0.002;  // library-reported transfer time
  client.on_call_begin(wait, 1.0, counters_at(0));
  client.on_call_end(wait, 1.5, counters_at(0));  // 0.5 s of waiting
  FragmentBatch batch = client.drain();
  ASSERT_EQ(batch.fragments.size(), 2u);
  EXPECT_NEAR(batch.fragments.duration(1), 0.002, 1e-12);
}

TEST(Client, BackoffSamplingKeepsPowersOfTwo) {
  ClientOptions opts = exact_options();
  opts.sampling = SamplingPolicy::kBackoff;
  opts.sampling_warmup = 4;
  VaproClient client(1, opts);
  for (int i = 0; i < 64; ++i) {
    auto c = call(0, 10);
    client.on_call_begin(c, i * 1.0, counters_at(i));
    client.on_call_end(c, i * 1.0 + 0.1, counters_at(i));
  }
  // Recorded occurrences: 1..4 (warmup) plus 8, 16, 32, 64.
  EXPECT_EQ(client.invocations_seen(), 64u);
  EXPECT_EQ(client.invocations_sampled_out(), 64u - 8u);
}

TEST(Client, SkipShortAlwaysKeepsLongSites) {
  ClientOptions opts = exact_options();
  opts.sampling = SamplingPolicy::kSkipShort;
  opts.sampling_warmup = 4;
  opts.short_threshold_seconds = 1e-3;
  VaproClient client(1, opts);
  // Long site: 10 ms spans.
  for (int i = 0; i < 32; ++i) {
    auto c = call(0, 10);
    client.on_call_begin(c, i * 0.01, counters_at(i));
    client.on_call_end(c, i * 0.01 + 0.005, counters_at(i));
  }
  EXPECT_EQ(client.invocations_sampled_out(), 0u);
}

TEST(Client, SkipShortDecimatesShortSites) {
  ClientOptions opts = exact_options();
  opts.sampling = SamplingPolicy::kSkipShort;
  opts.sampling_warmup = 4;
  opts.short_threshold_seconds = 1e-3;
  opts.short_keep_one_in = 8;
  VaproClient client(1, opts);
  // Short site: 10 µs spans.
  for (int i = 0; i < 100; ++i) {
    auto c = call(0, 10);
    client.on_call_begin(c, i * 1e-5, counters_at(i));
    client.on_call_end(c, i * 1e-5 + 5e-6, counters_at(i));
  }
  EXPECT_GT(client.invocations_sampled_out(), 70u);
  EXPECT_LT(client.invocations_sampled_out(), 96u);
}

TEST(Client, CounterConfigurationRespectsBudget) {
  ClientOptions opts = exact_options();
  opts.pmu_budget = 2;
  VaproClient client(4, opts);
  EXPECT_TRUE(client.configure_counters(
      {pmu::Counter::kSlotsBackend, pmu::Counter::kStallsCore}));
  EXPECT_FALSE(client.configure_counters({pmu::Counter::kStallsL1,
                                          pmu::Counter::kStallsL2,
                                          pmu::Counter::kStallsL3}));
}

TEST(Client, StorageAccountingGrows) {
  VaproClient client(1, exact_options());
  EXPECT_EQ(client.bytes_recorded(), 0u);
  auto c = call(0, 1);
  client.on_call_begin(c, 1.0, counters_at(0));
  client.on_call_end(c, 1.1, counters_at(0));
  EXPECT_GT(client.bytes_recorded(), 0u);
  EXPECT_EQ(client.fragments_recorded(), 2u);
}

TEST(Client, DrainResetsTheBuffer) {
  VaproClient client(1, exact_options());
  auto c = call(0, 1);
  client.on_call_begin(c, 1.0, counters_at(0));
  client.on_call_end(c, 1.1, counters_at(0));
  EXPECT_FALSE(client.drain().fragments.empty());
  EXPECT_TRUE(client.drain().fragments.empty());
}

TEST(Client, RanksAreIndependent) {
  VaproClient client(2, exact_options());
  // Rank 0 establishes state; rank 1's first fragment must still come
  // from the start state, not rank 0's last state.
  auto c0 = call(0, 10);
  client.on_call_begin(c0, 1.0, counters_at(0));
  client.on_call_end(c0, 1.1, counters_at(0));
  auto c1 = call(1, 11);
  client.on_call_begin(c1, 2.0, counters_at(0));
  client.on_call_end(c1, 2.1, counters_at(0));
  FragmentBatch batch = client.drain();
  ASSERT_EQ(batch.fragments.size(), 4u);
  EXPECT_EQ(batch.fragments.from(2), kStartState);
  EXPECT_EQ(batch.fragments.rank(2), 1);
}

}  // namespace
}  // namespace vapro::core
