// The staged concurrent pipeline, in isolation and end-to-end:
//   * BoundedQueue — FIFO order, backpressure blocking, close semantics;
//   * StageExecutor — strict FIFO on one worker, drain() as the
//     happens-before sync point, a handler's exception rethrown once from
//     drain(), backpressure, try_submit/evict_oldest;
//   * WorkerPool — exactly-once task claiming across lanes, exception
//     containment, the per-lane completion hook;
//   * sharded clustering & region growing — lane-count invariance,
//     permutation stability;
//   * RegionCache — incremental regions equal a from-scratch pass after
//     every update, with and without a pool;
//   * AnalysisServer — byte-identical detection state at any pipeline
//     depth/thread combination (the property tool_vapro_stress
//     --equivalence fuzzes at scale).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/server.hpp"
#include "src/util/pipeline.hpp"

namespace vapro {
namespace {

// --- BoundedQueue ---------------------------------------------------------

TEST(BoundedQueue, FifoOrder) {
  util::BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.depth(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom) {
  util::BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks: queue is at capacity
    second_pushed = true;
  });
  // The producer must be stuck until the consumer makes room.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop(), 2);
  EXPECT_GE(q.stalls(), 1u);
}

TEST(BoundedQueue, CloseDrainsBacklogThenSignalsEnd) {
  util::BoundedQueue<std::string> q(4);
  EXPECT_TRUE(q.push("a"));
  EXPECT_TRUE(q.push("b"));
  q.close();
  EXPECT_FALSE(q.push("c"));  // closed: rejected
  EXPECT_EQ(q.pop(), "a");    // backlog still drains
  EXPECT_EQ(q.pop(), "b");
  EXPECT_EQ(q.pop(), std::nullopt);  // termination signal
}

TEST(BoundedQueue, CloseUnblocksWaitingProducer) {
  util::BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
}

TEST(BoundedQueue, CloseUnblocksEveryBlockedProducerAtOnce) {
  // The ingest plane's shutdown shape: several transport threads stuck in
  // push() against a full queue when the session closes.  Every one must
  // return false promptly — a single notify would strand the rest.
  util::BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(0));
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < 4; ++i)
    producers.emplace_back([&q, &rejected, i] {
      if (!q.push(i + 1)) rejected.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rejected.load(), 0) << "producers should be blocked, not failed";
  q.close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(rejected.load(), 4);
  // The item admitted before close still drains, then the end signal.
  EXPECT_EQ(q.pop(), 0);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseUnblocksWaitingConsumer) {
  util::BoundedQueue<int> q(4);
  std::atomic<bool> got_end{false};
  std::thread consumer([&] {
    // Blocks on the empty queue until close(), then must see the
    // termination signal — not hang, not a phantom item.
    got_end = (q.pop() == std::nullopt);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got_end.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(got_end.load());
}

TEST(BoundedQueue, ConsumerExceptionLeavesTheQueueUsable) {
  // A consumer that throws mid-drain (the StageExecutor worker catches
  // per item) must not poison the queue: the remaining backlog and the
  // close handshake still work.
  util::BoundedQueue<int> q(4);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.push(i));
  int consumed = 0;
  try {
    while (auto item = q.try_pop()) {
      if (*item == 1) throw std::runtime_error("consumer exploded");
      ++consumed;
    }
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(consumed, 1);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.pop(), 2);  // backlog survives the thrown item
  q.close();
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, TryPushAndTryPopRespectCapacityAndClose) {
  util::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int overflow = 3;
  EXPECT_FALSE(q.try_push(std::move(overflow)));
  EXPECT_EQ(overflow, 3) << "rejected item must stay owned by the caller";
  // Evict-oldest-and-retry, the kShedOldest admission idiom.
  EXPECT_EQ(q.try_pop(), 1);
  EXPECT_TRUE(q.try_push(std::move(overflow)));
  q.close();
  int late = 9;
  EXPECT_FALSE(q.try_push(std::move(late)));  // closed: rejected, not queued
  EXPECT_EQ(q.try_pop(), 2);  // backlog still drains through try_pop
  EXPECT_EQ(q.try_pop(), 3);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

// --- StageExecutor --------------------------------------------------------

// An executor whose items are the jobs themselves.
using JobExecutor = util::StageExecutor<std::function<void()>>;
void run_job(std::function<void()> job) { job(); }

TEST(StageExecutor, RunsJobsInFifoOrderWithDrainSync) {
  // No lock on `order`: the single worker is the only writer and drain()
  // establishes the happens-before edge for the reads below.
  std::vector<int> order;
  util::StageExecutor<int> exec(4, [&order](int i) { order.push_back(i); });
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(exec.submit(i));
  exec.drain();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(exec.jobs_run(), 10u);
  EXPECT_EQ(exec.depth(), 0u);
}

TEST(StageExecutor, DrainOnIdleReturnsImmediately) {
  util::StageExecutor<int> exec(2, [](int) {});
  exec.drain();
  EXPECT_EQ(exec.jobs_run(), 0u);
}

TEST(StageExecutor, SurvivesThrowingJobs) {
  // The worker keeps draining past a throwing item; drain() rethrows the
  // first exception exactly once.
  std::atomic<int> ran{0};
  util::StageExecutor<int> exec(4, [&ran](int i) {
    if (i < 2) throw std::runtime_error("stage boom " + std::to_string(i));
    ++ran;
  });
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(exec.submit(i));
  try {
    exec.drain();
    ADD_FAILURE() << "drain() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stage boom 0");
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(exec.jobs_run(), 3u);
  EXPECT_NO_THROW(exec.drain());
}

TEST(StageExecutor, DrainWaitsForTheHandlersLastStatement) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> last_ran{false};
  util::StageExecutor<int> exec(1, [&](int) {
    opened.wait();
    last_ran = true;
  });
  ASSERT_TRUE(exec.submit(0));
  std::atomic<bool> drained{false};
  std::atomic<bool> last_ran_at_drain{false};
  std::thread syncer([&] {
    exec.drain();
    last_ran_at_drain = last_ran.load();
    drained = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  gate.set_value();
  syncer.join();
  EXPECT_TRUE(last_ran_at_drain.load());
}

TEST(StageExecutor, TrySubmitAndEvictOldestTrackDepth) {
  // The shed-oldest admission idiom: with the worker held on item 0 and
  // the one-slot queue full, try_submit fails and leaves the item with
  // the caller; evicting the queued item makes room for it.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> started{false};
  std::vector<int> ran;
  util::StageExecutor<int> exec(1, [&](int i) {
    started = true;
    opened.wait();
    ran.push_back(i);
  });
  ASSERT_TRUE(exec.try_submit(0));
  while (!started.load()) std::this_thread::yield();
  EXPECT_TRUE(exec.try_submit(1));
  int next = 2;
  EXPECT_FALSE(exec.try_submit(std::move(next)));
  EXPECT_EQ(next, 2) << "rejected item must stay owned by the caller";
  EXPECT_EQ(exec.depth(), 2u);  // one in flight, one queued
  EXPECT_EQ(exec.evict_oldest(), 1);
  EXPECT_EQ(exec.depth(), 1u);
  EXPECT_TRUE(exec.try_submit(std::move(next)));
  gate.set_value();
  exec.drain();
  EXPECT_EQ(ran, (std::vector<int>{0, 2}));
  EXPECT_EQ(exec.evict_oldest(), std::nullopt);
  EXPECT_EQ(exec.depth(), 0u);
}

TEST(StageExecutor, BackpressureBlocksSubmitAtMaxPending) {
  JobExecutor exec(1, run_job);
  std::atomic<bool> release{false};
  std::atomic<bool> third_submitted{false};
  // Job 1 occupies the worker until released; job 2 fills the queue.
  exec.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });
  exec.submit([] {});
  std::thread submitter([&] {
    exec.submit([] {});  // blocks: one pending already queued
    third_submitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_submitted.load());
  release = true;
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  exec.drain();
  EXPECT_EQ(exec.jobs_run(), 3u);
  EXPECT_GE(exec.stalls(), 1u);
}

TEST(StageExecutor, DestructorRunsRemainingJobs) {
  std::atomic<int> ran{0};
  {
    JobExecutor exec(8, run_job);
    for (int i = 0; i < 5; ++i) exec.submit([&ran] { ++ran; });
  }  // dtor closes, worker drains the backlog, then joins
  EXPECT_EQ(ran.load(), 5);
}

// --- wait-time accounting -------------------------------------------------
//
// A manually advanced clock that also counts now_seconds() reads.  A test
// can wait until another thread has taken its wait-entry timestamp (one
// clock read) before advancing time, which makes every producer-block /
// consumer-idle / handoff assertion an exact equality instead of a
// sleep-based lower bound.

class CountingClock final : public util::Clock {
 public:
  double now_seconds() const override {
    ++reads_;
    return now_.load();
  }
  void sleep_for(double) override {}
  void advance(double seconds) { now_ = now_.load() + seconds; }
  std::uint64_t reads() const { return reads_.load(); }
  void wait_for_reads(std::uint64_t n) const {
    while (reads_.load() < n) std::this_thread::yield();
  }

 private:
  mutable std::atomic<std::uint64_t> reads_{0};
  std::atomic<double> now_{0.0};
};

TEST(BoundedQueue, AccountsHandoffLatencyFromEnqueueToDequeue) {
  CountingClock clock;
  util::BoundedQueue<int> q(4, &clock);
  EXPECT_TRUE(q.push(1));  // enqueued at t=0
  clock.advance(2.0);
  EXPECT_TRUE(q.push(2));  // enqueued at t=2
  clock.advance(1.0);      // both popped at t=3
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_DOUBLE_EQ(q.handoff_seconds(), 4.0);  // (3-0) + (3-2)
  EXPECT_EQ(q.handoffs(), 2u);
  // Nothing ever blocked: no producer-block, no consumer-idle.
  EXPECT_DOUBLE_EQ(q.stall_seconds(), 0.0);
  EXPECT_EQ(q.stalls(), 0u);
  EXPECT_DOUBLE_EQ(q.idle_seconds(), 0.0);
  EXPECT_EQ(q.idle_waits(), 0u);
}

TEST(BoundedQueue, AccountsConsumerIdleWhileTheQueueIsEmpty) {
  CountingClock clock;
  util::BoundedQueue<int> q(2, &clock);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), 7); });
  // pop() on an empty queue reads the clock once (its wait-entry
  // timestamp) before blocking; only then advance the clock.
  clock.wait_for_reads(1);
  clock.advance(1.5);
  EXPECT_TRUE(q.push(7));  // enqueued at t=1.5, wakes the consumer
  consumer.join();
  EXPECT_DOUBLE_EQ(q.idle_seconds(), 1.5);  // wait entry 0 → wake 1.5
  EXPECT_EQ(q.idle_waits(), 1u);
  EXPECT_DOUBLE_EQ(q.handoff_seconds(), 0.0);  // dequeued the same instant
  EXPECT_EQ(q.handoffs(), 1u);
  EXPECT_DOUBLE_EQ(q.stall_seconds(), 0.0);
}

TEST(BoundedQueue, AccountsProducerBlockWhileTheQueueIsFull) {
  CountingClock clock;
  util::BoundedQueue<int> q(1, &clock);
  EXPECT_TRUE(q.push(1));  // read #1: enqueued at t=0
  std::thread producer([&] { EXPECT_TRUE(q.push(2)); });
  // The blocked push takes its wait-entry timestamp (read #2) at t=0.
  clock.wait_for_reads(2);
  clock.advance(3.0);
  EXPECT_EQ(q.pop(), 1);  // frees the slot; item 1 handoff = 3.0
  producer.join();        // stall accounted: wait entry 0 → wake 3.0
  EXPECT_DOUBLE_EQ(q.stall_seconds(), 3.0);
  EXPECT_EQ(q.stalls(), 1u);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_DOUBLE_EQ(q.handoff_seconds(), 3.0);  // 3.0 (item 1) + 0.0 (item 2)
  EXPECT_DOUBLE_EQ(q.idle_seconds(), 0.0);
}

TEST(StageExecutor, AccountsIdleHandoffAndBusySeconds) {
  CountingClock clock;
  JobExecutor exec(2, run_job, &clock);
  // The freshly started worker reads the clock once on idle-wait entry.
  clock.wait_for_reads(1);
  clock.advance(1.5);  // the worker idles across this

  std::promise<void> gate;
  std::atomic<bool> started{false};
  ASSERT_TRUE(exec.submit([&] {  // submitted at t=1.5, starts immediately
    started = true;
    gate.get_future().wait();
  }));
  ASSERT_TRUE(exec.submit([] {}));  // submitted at t=1.5, queued behind it
  while (!started.load()) std::this_thread::yield();
  clock.advance(2.5);  // t=4.0: the first job is executing across this
  gate.set_value();
  exec.drain();

  EXPECT_EQ(exec.jobs_run(), 2u);
  EXPECT_DOUBLE_EQ(exec.idle_seconds(), 1.5);  // before the first submit
  EXPECT_EQ(exec.idle_waits(), 1u);
  EXPECT_DOUBLE_EQ(exec.busy_seconds(), 2.5);  // job 1: 1.5→4.0; job 2: 0
  // Job 1 started the instant it was submitted; job 2 sat queued from
  // t=1.5 until the worker freed up at t=4.0.
  EXPECT_DOUBLE_EQ(exec.handoff_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(exec.stall_seconds(), 0.0);
  EXPECT_EQ(exec.stalls(), 0u);
}

TEST(StageExecutor, AccountsSubmitStallUnderBackpressure) {
  CountingClock clock;
  JobExecutor exec(1, run_job, &clock);
  std::promise<void> gate;
  std::atomic<bool> started{false};
  ASSERT_TRUE(exec.submit([&] {  // occupies the worker
    started = true;
    gate.get_future().wait();
  }));
  while (!started.load()) std::this_thread::yield();
  ASSERT_TRUE(exec.submit([] {}));  // fills the single pending slot
  // With the worker wedged inside the gate the next clock read can only
  // be the third submit's wait-entry timestamp.
  const std::uint64_t reads_before = clock.reads();
  std::thread submitter([&] { EXPECT_TRUE(exec.submit([] {})); });
  clock.wait_for_reads(reads_before + 1);
  clock.advance(4.0);
  gate.set_value();  // worker dequeues the backlog, freeing the slot
  submitter.join();
  exec.drain();
  EXPECT_DOUBLE_EQ(exec.stall_seconds(), 4.0);  // wait entry 0 → wake 4.0
  EXPECT_EQ(exec.stalls(), 1u);
  EXPECT_EQ(exec.jobs_run(), 3u);
}

// --- WorkerPool -----------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskExactlyOnceAcrossLanes) {
  util::WorkerPool pool(4);
  EXPECT_EQ(pool.lanes(), 4u);
  const std::size_t kTasks = 64;
  // No lock: every index is claimed by exactly one lane (the property
  // under test), and run() returning is the happens-before edge.
  std::vector<int> hits(kTasks, 0);
  const std::size_t failed =
      pool.run(kTasks, [&](std::size_t task, std::size_t lane) {
        ASSERT_LT(lane, 4u);
        ++hits[task];
      });
  EXPECT_EQ(failed, 0u);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 1);
  EXPECT_EQ(pool.tasks_run(), kTasks);
  EXPECT_EQ(pool.tasks_failed(), 0u);
  EXPECT_EQ(pool.runs(), 1u);
  std::uint64_t lane_sum = 0;
  for (std::uint64_t n : pool.lane_task_counts()) lane_sum += n;
  EXPECT_EQ(lane_sum, kTasks);
}

TEST(WorkerPool, ContainsTaskExceptionsAndReturnsFailedCount) {
  util::WorkerPool pool(3);
  const std::size_t kTasks = 16;
  std::vector<int> hits(kTasks, 0);
  const std::size_t failed =
      pool.run(kTasks, [&](std::size_t task, std::size_t) {
        ++hits[task];
        if (task % 4 == 0) throw std::runtime_error("shard boom");
      });
  EXPECT_EQ(failed, 4u);  // tasks 0, 4, 8, 12
  EXPECT_EQ(pool.tasks_failed(), 4u);
  EXPECT_EQ(pool.tasks_run(), kTasks);  // a throwing task still counts as run
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 1);
  // The pool survives for the next run.
  EXPECT_EQ(pool.run(4, [](std::size_t, std::size_t) {}), 0u);
  EXPECT_EQ(pool.tasks_run(), kTasks + 4);
}

TEST(WorkerPool, LaneDoneFiresOncePerActiveLaneBeforeRunReturns) {
  util::WorkerPool pool(3);
  std::mutex mu;
  std::vector<util::WorkerPool::LaneReport> reports;
  pool.run(
      10, [](std::size_t, std::size_t) {},
      [&](const util::WorkerPool::LaneReport& r) {
        std::lock_guard<std::mutex> lock(mu);
        reports.push_back(r);
      });
  // run() returned, so every report is in: one per lane that ran work,
  // and their task counts account for the whole run.
  ASSERT_FALSE(reports.empty());
  ASSERT_LE(reports.size(), 3u);
  std::vector<bool> seen(3, false);
  std::uint64_t total = 0;
  for (const auto& r : reports) {
    ASSERT_LT(r.lane, 3u);
    EXPECT_FALSE(seen[r.lane]) << "lane " << r.lane << " reported twice";
    seen[r.lane] = true;
    EXPECT_GT(r.tasks, 0u);
    total += r.tasks;
  }
  EXPECT_EQ(total, 10u);
}

TEST(WorkerPool, SingleLanePoolRunsInlineOnTheCaller) {
  util::WorkerPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.run(5, [&](std::size_t, std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(pool.tasks_run(), 5u);
}

TEST(WorkerPool, ZeroTasksIsANoOp) {
  util::WorkerPool pool(2);
  EXPECT_EQ(pool.run(0, [](std::size_t, std::size_t) { FAIL(); }), 0u);
  EXPECT_EQ(pool.tasks_run(), 0u);
  EXPECT_EQ(pool.runs(), 0u);
}

// --- Sharded clustering & region growing properties -----------------------

core::Fragment vertex_frag(int rank, core::StateKey key, double start,
                           double bytes, int peer) {
  core::Fragment f;
  f.kind = core::FragmentKind::kCommunication;
  f.op = sim::OpKind::kAllreduce;
  f.rank = rank;
  f.from = key;
  f.to = key;
  f.start_time = start;
  f.end_time = start + 0.01;
  f.args.bytes = bytes;
  f.args.peer = peer;
  return f;
}

// Several vertices so the shard pool has real multi-item fan-out: kSites
// vertices, each with two well-separated workload classes across kRanks
// ranks.  Every fragment gets a unique bytes value inside its class band,
// so norms are all distinct and clustering has no tie to break — the
// partition is then a pure function of the fragment SET, which is what
// the permutation property asserts.
core::Stg property_stg(unsigned shuffle_seed) {
  const int kSites = 5, kRanks = 6;
  std::vector<core::StateKey> keys;
  core::Stg stg(core::StgMode::kContextFree);
  for (int s = 0; s < kSites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(30 + s);
    info.kind = sim::OpKind::kAllreduce;
    keys.push_back(stg.touch_vertex(info));
  }
  std::vector<core::Fragment> frags;
  for (int s = 0; s < kSites; ++s) {
    for (int rank = 0; rank < kRanks; ++rank) {
      for (int klass = 0; klass < 2; ++klass) {
        // Class bands 1024 and 262144; the per-fragment offset keeps every
        // norm unique but well inside the 5% attachment threshold.
        const double base = klass == 0 ? 1024.0 : 262144.0;
        core::Fragment f = vertex_frag(
            rank, keys[static_cast<std::size_t>(s)],
            s * 10.0 + rank * 0.1 + klass * 0.05,
            base * (1.0 + 0.001 * (rank + kRanks * s)), (rank + 1) % kRanks);
        frags.push_back(f);
      }
    }
  }
  if (shuffle_seed != 0) {
    std::mt19937 rng(shuffle_seed);
    std::shuffle(frags.begin(), frags.end(), rng);
  }
  for (core::Fragment& f : frags) stg.add_fragment(f);
  return stg;
}

// Order-independent rendering of a clustering: members are named by their
// fragment identity (rank@start:bytes) instead of their Stg index, sorted
// within each cluster, and clusters sorted — two runs over permuted
// fragment streams canonicalize to the same string iff they found the
// same partition with the same seed norms and rare flags.
std::string canonical_clusters(const core::Stg& stg,
                               const core::ClusteringResult& res) {
  const core::FragmentColumns& frags = stg.fragments();
  std::vector<std::string> rows;
  for (const core::Cluster& c : res.clusters) {
    std::vector<std::string> members;
    for (std::size_t idx : c.members) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%d@%.17g:%.17g", frags.rank(idx),
                    frags.start_time(idx), frags.args(idx).bytes);
      members.emplace_back(buf);
    }
    std::sort(members.begin(), members.end());
    char head[128];
    std::snprintf(head, sizeof head, "%llu>%llu k%d %s seed=%.17g:",
                  static_cast<unsigned long long>(c.from),
                  static_cast<unsigned long long>(c.to),
                  static_cast<int>(c.kind), c.rare ? "rare" : "main",
                  c.seed_norm);
    std::string row = head;
    for (const std::string& m : members) row += " " + m;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

void expect_identical_clustering(const core::ClusteringResult& a,
                                 const core::ClusteringResult& b,
                                 const std::string& what) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size()) << what;
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].from, b.clusters[c].from) << what << " #" << c;
    EXPECT_EQ(a.clusters[c].to, b.clusters[c].to) << what << " #" << c;
    EXPECT_EQ(a.clusters[c].kind, b.clusters[c].kind) << what << " #" << c;
    EXPECT_EQ(a.clusters[c].members, b.clusters[c].members) << what << " #" << c;
    // Byte-identical, not just close: the sharded path must not reorder
    // any floating-point accumulation.
    EXPECT_EQ(a.clusters[c].seed_norm, b.clusters[c].seed_norm)
        << what << " #" << c;
    EXPECT_EQ(a.clusters[c].rare, b.clusters[c].rare) << what << " #" << c;
  }
}

TEST(ShardedClustering, EdgePartitionInvarianceAcrossLaneCounts) {
  core::Stg stg = property_stg(0);
  core::ClusterOptions opts;
  const core::ClusteringResult serial = core::cluster_stg_parallel(stg, opts, 1);
  ASSERT_GT(serial.clusters.size(), 1u);
  for (std::size_t lanes : {2u, 3u, 4u, 7u}) {
    util::WorkerPool pool(lanes);
    const core::ClusteringResult sharded =
        core::cluster_stg_parallel(stg, opts, &pool);
    expect_identical_clustering(serial, sharded,
                                "lanes=" + std::to_string(lanes));
  }
}

TEST(ShardedClustering, PermutationStabilityUnderShuffledFragmentOrder) {
  core::Stg base = property_stg(0);
  core::ClusterOptions opts;
  util::WorkerPool pool(4);
  const std::string baseline =
      canonical_clusters(base, core::cluster_stg_parallel(base, opts, &pool));
  ASSERT_FALSE(baseline.empty());
  for (unsigned seed : {1u, 2u, 3u, 4u}) {
    core::Stg shuffled = property_stg(seed);
    const std::string got = canonical_clusters(
        shuffled, core::cluster_stg_parallel(shuffled, opts, &pool));
    EXPECT_EQ(got, baseline) << "shuffle seed " << seed;
  }
}

TEST(ShardedRegions, StripeCountInvarianceOnBoundaryCrossingRegions) {
  // 12 ranks, one region spanning ranks 2..9 (crosses every stripe
  // boundary a pool of 2..5 lanes can draw) plus two single-rank blips.
  core::Heatmap map(12, 0.1);
  for (int rank = 0; rank < 12; ++rank)
    for (int bin = 0; bin < 20; ++bin)
      map.deposit(rank, bin * 0.1, bin * 0.1 + 0.1, 1.0);
  for (int rank = 2; rank <= 9; ++rank)
    for (int bin = 4; bin <= 9; ++bin)
      map.deposit(rank, bin * 0.1, bin * 0.1 + 0.1, 0.2);
  map.deposit(0, 1.5, 1.7, 0.1);
  map.deposit(11, 0.0, 0.2, 0.3);
  const std::vector<core::VarianceRegion> serial =
      core::find_variance_regions(map, 0.85);
  ASSERT_GE(serial.size(), 3u);
  for (std::size_t lanes : {2u, 3u, 4u, 5u}) {
    util::WorkerPool pool(lanes);
    const std::vector<core::VarianceRegion> sharded =
        core::find_variance_regions(map, 0.85, &pool);
    ASSERT_EQ(sharded.size(), serial.size()) << "lanes=" << lanes;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i].rank_lo, serial[i].rank_lo) << lanes << "/" << i;
      EXPECT_EQ(sharded[i].rank_hi, serial[i].rank_hi) << lanes << "/" << i;
      EXPECT_EQ(sharded[i].bin_lo, serial[i].bin_lo) << lanes << "/" << i;
      EXPECT_EQ(sharded[i].bin_hi, serial[i].bin_hi) << lanes << "/" << i;
      EXPECT_EQ(sharded[i].cells, serial[i].cells) << lanes << "/" << i;
      EXPECT_EQ(sharded[i].mean_perf, serial[i].mean_perf) << lanes << "/" << i;
      EXPECT_EQ(sharded[i].impact_seconds, serial[i].impact_seconds)
          << lanes << "/" << i;
    }
  }
}

// --- Incremental region growing ------------------------------------------

double worst_cell_full_scan(const core::Heatmap& map) {
  double worst = 1.0;
  for (int r = 0; r < map.ranks(); ++r)
    for (int b = 0; b < map.bins(); ++b)
      if (map.has_data(r, b)) worst = std::min(worst, map.cell(r, b));
  return worst;
}

// Random windows of deposits, a RegionCache updated after some of them,
// and a from-scratch find_variance_regions after every update.  Slow
// blocks span several windows and rank ranges, so regions straddle the
// frontier and chain into one another; back-dated deposits re-open
// frozen columns, long fragments write ahead of the frontier, and skipped
// updates leave several windows of writes between two updates.
TEST(RegionCache, MatchesFromScratchRegionsAfterEveryUpdate) {
  constexpr double kWindow = 0.25, kBin = 0.05;
  std::size_t checks = 0;
  for (int seed = 0; seed < 40; ++seed) {
    for (const bool pooled : {false, true}) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
      auto uniform = [&rng](double lo, double hi) {
        return lo + (hi - lo) * std::uniform_real_distribution<double>()(rng);
      };
      auto chance = [&](double p) { return uniform(0.0, 1.0) < p; };
      const int ranks = 1 + static_cast<int>(rng() % 12);
      const int windows = 40 + static_cast<int>(rng() % 10);
      struct Block {
        int rank_lo, rank_hi, window_lo, window_hi;
      };
      std::vector<Block> blocks;
      for (int i = 0; i < 4; ++i) {
        const int r = static_cast<int>(rng() % ranks);
        const int w = static_cast<int>(rng() % windows);
        blocks.push_back({r, std::min(ranks - 1, r + static_cast<int>(rng() % 3)),
                          w, w + 1 + static_cast<int>(rng() % 6)});
      }
      auto perf_at = [&](int rank, int window) {
        for (const Block& b : blocks)
          if (rank >= b.rank_lo && rank <= b.rank_hi && window >= b.window_lo &&
              window <= b.window_hi)
            return uniform(0.3, 0.8);
        return chance(0.03) ? uniform(0.5, 0.84) : uniform(0.86, 1.0);
      };

      core::Heatmap map(ranks, kBin);
      core::RegionCache cache(0.85);
      util::WorkerPool pool(3);
      for (int w = 0; w < windows; ++w) {
        for (int rank = 0; rank < ranks; ++rank) {
          for (double t = w * kWindow; t < (w + 1) * kWindow;) {
            const double dur =
                chance(0.03) ? uniform(0.3, 1.0) : uniform(0.01, 0.04);
            map.deposit(rank, t, t + dur, perf_at(rank, w));
            t += std::min(dur, 0.04);
          }
        }
        if (w > 1 && chance(0.2)) {
          const int rank = static_cast<int>(rng() % ranks);
          const double start = uniform(0.0, (w - 1) * kWindow);
          map.deposit(rank, start, start + uniform(0.01, 0.2),
                      chance(0.5) ? uniform(0.1, 0.5) : uniform(1.0, 2.0));
        }
        if (w + 1 < windows && chance(0.4)) continue;  // skipped update

        cache.update(map, pooled ? &pool : nullptr);
        const std::vector<core::VarianceRegion> want =
            core::find_variance_regions(map, 0.85);
        const std::vector<core::VarianceRegion>& got = cache.regions();
        const std::string where = "seed " + std::to_string(seed) + " window " +
                                  std::to_string(w) +
                                  (pooled ? " pooled" : " serial");
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t i = 0; i < want.size(); ++i)
          ASSERT_TRUE(got[i] == want[i]) << where << " region " << i;
        ASSERT_EQ(cache.worst_cell(), worst_cell_full_scan(map)) << where;
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 1500u);
}

TEST(RegionCache, RelabelsOnlyTheSuffixAWriteCanHaveChanged) {
  core::Heatmap map(4, 0.1);
  for (int rank = 0; rank < 4; ++rank) map.deposit(rank, 0.0, 0.95, 1.0);
  map.deposit(2, 0.2, 0.5, 0.4);  // rank 2, columns 2..4 fall to 0.7
  core::RegionCache cache;
  cache.update(map);
  EXPECT_EQ(cache.relabeled_cells(), 4u * 10u);  // first update: every cell
  ASSERT_EQ(cache.regions().size(), 1u);
  EXPECT_EQ(cache.worst_cell(), 0.7);

  cache.update(map);  // nothing written since
  EXPECT_EQ(cache.relabeled_cells(), 0u);

  // A write in new column 15 re-labels from one column below the old
  // end, columns 9..15; the region behind it is kept.
  map.deposit(0, 1.5, 1.55, 1.0);
  cache.update(map);
  EXPECT_EQ(cache.relabeled_cells(), 4u * 7u);
  ASSERT_EQ(cache.regions().size(), 1u);

  // A back-dated write into column 4 puts the frontier at column 3, inside
  // the region, so it moves on down to the region's first column.
  map.deposit(3, 0.45, 0.48, 1.0);
  cache.update(map);
  EXPECT_EQ(cache.relabeled_cells(), 4u * 14u);
  ASSERT_EQ(cache.regions().size(), 1u);
  EXPECT_EQ(cache.regions()[0].bin_lo, 2);
  EXPECT_EQ(cache.regions()[0].bin_hi, 4);
}

// --- Pipelined server equivalence ----------------------------------------

core::FragmentBatch server_batch(int window, int* site_count) {
  core::FragmentBatch batch;
  const int kSites = 4, kRanks = 6, kReps = 8;
  *site_count = kSites;
  std::vector<core::StateKey> keys;
  for (int s = 0; s < kSites; ++s) {
    sim::InvocationInfo info;
    info.site = static_cast<sim::CallSiteId>(10 + s);
    info.kind = sim::OpKind::kAllreduce;
    keys.push_back(core::make_state_key(core::StgMode::kContextFree, info));
    batch.new_states.push_back(info);
  }
  for (int rank = 0; rank < kRanks; ++rank) {
    core::StateKey prev = core::kStartState;
    double t = window * 0.25;
    for (int step = 0; step < kSites * kReps; ++step) {
      const int s = step % kSites;
      core::Fragment comp;
      comp.kind = core::FragmentKind::kComputation;
      comp.rank = rank;
      comp.from = prev;
      comp.to = keys[static_cast<std::size_t>(s)];
      comp.start_time = t;
      // The last rank runs slow in window 1: a real variance region, so
      // the comparison covers a non-trivial heat map.
      const double stretch = (window == 1 && rank == kRanks - 1) ? 2.0 : 1.0;
      comp.end_time = t + 0.002 * stretch;
      comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
      batch.fragments.push_back(comp);
      t = comp.end_time;
      batch.fragments.push_back(
          vertex_frag(rank, keys[static_cast<std::size_t>(s)], t,
                      4096.0 * (1 + s), (rank + 1) % kRanks));
      t += 0.01;
      prev = keys[static_cast<std::size_t>(s)];
    }
  }
  return batch;
}

std::string detection_fingerprint(const core::AnalysisServer& server) {
  std::string fp = server.computation_map().render_ascii() + "\n" +
                   server.communication_map().render_ascii() + "\n" +
                   server.io_map().render_ascii() + "\n";
  for (const core::RareFinding& f : server.rare_findings())
    fp += f.state + "|" + std::to_string(f.executions) + "|" +
          std::to_string(f.total_seconds) + "\n";
  return fp;
}

TEST(PipelinedServer, AllConcurrencyModesMatchSerialByteForByte) {
  auto run = [](int depth, int threads) {
    core::ServerOptions opts;
    opts.run_diagnosis = false;
    opts.pipeline_depth = depth;
    opts.analysis_threads = threads;
    core::AnalysisServer server(6, opts);
    int sites = 0;
    for (int w = 0; w < 4; ++w) server.process_window(server_batch(w, &sites));
    return detection_fingerprint(server);  // accessors sync() internally
  };
  const std::string serial = run(1, 1);
  EXPECT_EQ(run(3, 1), serial);
  EXPECT_EQ(run(2, 4), serial);
  EXPECT_EQ(run(4, 2), serial);
}

TEST(PipelinedServer, SyncExposesAllSubmittedWindows) {
  core::ServerOptions opts;
  opts.run_diagnosis = false;
  opts.pipeline_depth = 3;
  core::AnalysisServer server(6, opts);
  int sites = 0;
  for (int w = 0; w < 5; ++w) server.process_window(server_batch(w, &sites));
  server.sync();
  EXPECT_EQ(server.windows_processed(), 5u);
}

TEST(PipelinedServer, WindowExceptionReachesTheCallerAtEveryDepth) {
  // Depth 1 throws from process_window; deeper pipelines hand the window
  // off and rethrow from the next sync(), once.
  for (const int depth : {1, 2}) {
    SCOPED_TRACE(depth);
    core::ServerOptions opts;
    opts.run_diagnosis = false;
    opts.pipeline_depth = depth;
    int observed = 0;
    opts.window_observer = [&observed](const core::Stg&,
                                       const core::ClusteringResult&) {
      if (observed++ == 0) throw std::runtime_error("observer boom");
    };
    core::AnalysisServer server(6, opts);
    int sites = 0;
    if (depth == 1) {
      EXPECT_THROW(server.process_window(server_batch(0, &sites)),
                   std::runtime_error);
    } else {
      server.process_window(server_batch(0, &sites));
      EXPECT_THROW(server.sync(), std::runtime_error);
    }
    EXPECT_NO_THROW(server.sync());
    server.process_window(server_batch(1, &sites));
    EXPECT_EQ(server.windows_processed(), 1u);
  }
}

}  // namespace
}  // namespace vapro
