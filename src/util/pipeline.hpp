// Staged concurrent pipeline primitives (paper §5: overlap window drain
// with window analysis so slot times stop stacking).
//
// Three building blocks:
//
//   * BoundedQueue<T> — a bounded multi-producer/single-consumer queue
//     whose push() BLOCKS while the queue is full.  That blocking is the
//     backpressure contract: a producer that outruns the analysis stage is
//     throttled to the consumer's pace instead of growing an unbounded
//     backlog.  Wait time is accounted per side (via an injectable
//     util::Clock) so a stall is attributed to a STAGE, not just summed:
//     producer-block (push on a full queue — the consumer is the
//     bottleneck), consumer-idle (pop on an empty queue — the producer is
//     the bottleneck), and per-item handoff latency (enqueue → dequeue —
//     how long work sat in the queue).
//
//   * StageExecutor<T> — one worker thread applying a handler to the
//     items of a BoundedQueue<T> in strict FIFO order.  Determinism rule:
//     because there is exactly one worker, every item observes all effects
//     of every earlier item — a pipelined AnalysisServer produces
//     byte-identical results to the synchronous one, the only difference
//     being WHEN the work runs.  drain() is the synchronization point: it
//     blocks until every submitted item has finished.
//
//   * WorkerPool — a persistent pool for INTRA-window fan-out (the sharded
//     clustering and region-growing passes).  run(count, fn) is a blocking
//     parallel-for: tasks are claimed by atomic counter, the calling
//     thread participates as lane 0, and run() returns only after every
//     task finished — so task writes into caller-owned, task-indexed slots
//     happen-before the caller's merge.  Determinism rule: the pool never
//     decides ORDER of results, only WHO computes them; callers merge by
//     task index, so output is interleaving-independent.  Exceptions are
//     contained per task (run() returns the failed count and the owner
//     degrades, e.g. re-running the window serially).
//
// All three are TSan-clean by construction: shared state is guarded by one
// mutex per object (task claiming aside, which is a plain atomic), and
// drain()/run()-return establish the happens-before edges that let the
// coordinating thread read worker-written state without extra locking.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/clock.hpp"

namespace vapro::util {

// Bounded MPSC queue with blocking backpressure.  `capacity` is the
// maximum number of queued (not yet popped) items; push() blocks while the
// queue is at capacity and fails only after close().
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, Clock* clock = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        clock_(clock ? clock : real_clock()) {}

  // Blocks while full.  False when the queue was closed (item dropped).
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      const double t0 = clock_->now_seconds();
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      stall_seconds_ += clock_->now_seconds() - t0;
      ++stalls_;
    }
    if (closed_) return false;
    items_.emplace_back(clock_->now_seconds(), std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty.  nullopt when the queue is closed AND drained —
  // the consumer's termination signal.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty() && !closed_) {
      const double t0 = clock_->now_seconds();
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      idle_seconds_ += clock_->now_seconds() - t0;
      ++idle_waits_;
    }
    if (items_.empty()) return std::nullopt;
    auto [enqueued_at, item] = std::move(items_.front());
    items_.pop_front();
    handoff_seconds_ += clock_->now_seconds() - enqueued_at;
    ++handoffs_;
    not_full_.notify_one();
    return std::optional<T>(std::move(item));
  }

  // Non-blocking push: false when the queue is full or closed, in which
  // case `item` is left untouched (rvalue-ref, moved only on success) so
  // the caller still owns it.  This is the admission-control entry point —
  // callers that shed instead of blocking (net ingest under kShedOldest)
  // pair it with try_pop() to evict the oldest queued item and retry.
  bool try_push(T&& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.emplace_back(clock_->now_seconds(), std::move(item));
    not_empty_.notify_one();
    return true;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  // Non-blocking pop: nullopt when the queue is empty (closed or not).
  // Unlike pop(), usable from a non-consumer thread to evict a victim; the
  // handoff accounting still runs so evictions stay visible.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    auto [enqueued_at, item] = std::move(items_.front());
    items_.pop_front();
    handoff_seconds_ += clock_->now_seconds() - enqueued_at;
    ++handoffs_;
    not_full_.notify_one();
    return std::optional<T>(std::move(item));
  }

  // Wakes all waiters; subsequent push() fails, pop() drains the backlog
  // then returns nullopt.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }
  // Cumulative seconds producers spent blocked on a full queue
  // (producer-block: the consumer is the bottleneck).
  double stall_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stall_seconds_;
  }
  std::uint64_t stalls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stalls_;
  }
  // Cumulative seconds the consumer spent waiting on an empty queue
  // (consumer-idle: the producer is the bottleneck).
  double idle_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_seconds_;
  }
  std::uint64_t idle_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_waits_;
  }
  // Cumulative enqueue→dequeue latency across all popped items, and the
  // number of items it covers (divide for the mean handoff latency).
  double handoff_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return handoff_seconds_;
  }
  std::uint64_t handoffs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return handoffs_;
  }

 private:
  const std::size_t capacity_;
  Clock* clock_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::pair<double, T>> items_;  // (enqueue time, item)
  bool closed_ = false;
  double stall_seconds_ = 0.0;
  double idle_seconds_ = 0.0;
  double handoff_seconds_ = 0.0;
  std::uint64_t stalls_ = 0;
  std::uint64_t idle_waits_ = 0;
  std::uint64_t handoffs_ = 0;
};

// One worker thread applying `handler` to submitted items in FIFO order,
// fed by a BoundedQueue of capacity `max_pending`.  The queue holds only
// items the worker has not started, so `max_pending` EXCLUDES the one
// currently executing: an AnalysisServer with pipeline_depth d uses
// max_pending = d - 1, one window in flight on the worker plus d-1 queued.
// Producer-block, consumer-idle and handoff accounting are the queue's.
//
// Failure contract: a handler that throws does not stop the worker; the
// first exception is kept and the next drain() rethrows it, once, so the
// owner's synchronization point reports the lost item.
template <typename T>
class StageExecutor {
 public:
  using Handler = std::function<void(T)>;

  StageExecutor(std::size_t max_pending, Handler handler,
                Clock* clock = nullptr)
      : queue_(max_pending, clock),
        clock_(clock ? clock : real_clock()),
        handler_(std::move(handler)),
        worker_([this] { run(); }) {}

  // Closes the queue; the worker still handles the backlog, then exits.
  ~StageExecutor() {
    queue_.close();
    worker_.join();
  }

  StageExecutor(const StageExecutor&) = delete;
  StageExecutor& operator=(const StageExecutor&) = delete;

  // Blocks while the queue is full (backpressure); false after close (the
  // item is dropped — only happens during teardown).
  bool submit(T item) {
    add_pending();
    if (queue_.push(std::move(item))) return true;
    finish_pending();
    return false;
  }

  // Non-blocking submit: false when the queue is full or closed, in which
  // case `item` stays with the caller (see BoundedQueue::try_push).
  bool try_submit(T&& item) {
    add_pending();
    if (queue_.try_push(std::move(item))) return true;
    finish_pending();
    return false;
  }

  // Takes back the oldest item the worker has not started; nullopt when
  // none is queued.  The shed-oldest admission idiom with try_submit().
  std::optional<T> evict_oldest() {
    std::optional<T> item = queue_.try_pop();
    if (item) finish_pending();
    return item;
  }

  bool closed() const { return queue_.closed(); }

  // Blocks until every submitted item has finished.  This is the
  // producer-side synchronization point: after drain() returns, all
  // worker-thread writes happen-before the caller's subsequent reads.
  // Rethrows the first exception a handler threw since the last drain().
  void drain() {
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      idle_.wait(lock, [this] { return pending_ == 0; });
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

  // Submitted but unfinished items: queued plus in flight (plus any
  // submit() still blocked on a full queue).
  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }
  std::size_t capacity() const { return queue_.capacity(); }
  // Producer-block, consumer-idle and submit→start handoff wait, from the
  // queue (see BoundedQueue).
  double stall_seconds() const { return queue_.stall_seconds(); }
  std::uint64_t stalls() const { return queue_.stalls(); }
  double idle_seconds() const { return queue_.idle_seconds(); }
  std::uint64_t idle_waits() const { return queue_.idle_waits(); }
  double handoff_seconds() const { return queue_.handoff_seconds(); }
  // Cumulative seconds the worker spent in the handler (stage occupancy
  // numerator; divide by wall time for utilization).
  double busy_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_seconds_;
  }
  std::uint64_t jobs_run() const {
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_run_;
  }

 private:
  void add_pending() {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  void finish_pending() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) idle_.notify_all();
  }

  void run() {
    while (std::optional<T> item = queue_.pop()) {
      const double t0 = clock_->now_seconds();
      std::exception_ptr error;
      try {
        handler_(std::move(*item));
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      busy_seconds_ += clock_->now_seconds() - t0;
      ++jobs_run_;
      if (error && !error_) error_ = error;
      if (--pending_ == 0) idle_.notify_all();
    }
  }

  BoundedQueue<T> queue_;
  Clock* clock_;
  Handler handler_;
  mutable std::mutex mu_;
  std::condition_variable idle_;
  std::size_t pending_ = 0;  // submitted, not yet finished or evicted
  std::exception_ptr error_;  // first handler exception since drain()
  double busy_seconds_ = 0.0;
  std::uint64_t jobs_run_ = 0;
  std::thread worker_;  // last member: starts after all state exists
};

// Persistent pool for intra-window fan-out.  A pool with L lanes owns
// L-1 threads; the thread that calls run() participates as lane 0, so
// `lanes == 1` is the serial path with zero thread machinery on the hot
// loop.  run(count, fn) executes fn(task, lane) exactly once for every
// task in [0, count): tasks are claimed from a shared atomic counter
// (dynamic load balancing — a slow edge does not stall the other lanes),
// and run() returns only after every task has finished, which makes all
// task-side writes visible to the caller's merge.
//
// Determinism contract: the pool decides WHICH lane computes each task,
// never the order results are combined — callers write into task-indexed
// slots and merge in task order after run() returns, so the output is
// independent of lanes, scheduling, and claim interleaving.
//
// Failure contract: a task that throws is contained (counted, the lane
// moves on) and run() returns the number of failed tasks; the caller
// decides how to degrade (the AnalysisServer re-runs the window's
// fan-out serially so its outputs stay equivalence-comparable).
//
// Single-coordinator contract: at most one run() may be in flight at a
// time; the AnalysisServer guarantees this by only calling from the
// analysis path (serialized by live_mu_ / the StageExecutor worker).
class WorkerPool {
 public:
  // Summary a lane hands to the optional per-run hook, on the lane's own
  // thread, after its last task of the run (used for per-shard trace
  // spans without the pool knowing about tracing).
  struct LaneReport {
    std::size_t lane = 0;
    std::uint64_t tasks = 0;
    double busy_seconds = 0.0;
  };
  using TaskFn = std::function<void(std::size_t task, std::size_t lane)>;
  using LaneDoneFn = std::function<void(const LaneReport&)>;

  explicit WorkerPool(std::size_t lanes, Clock* clock = nullptr)
      : lanes_(lanes == 0 ? 1 : lanes),
        clock_(clock ? clock : real_clock()),
        lane_busy_(lanes_, 0.0),
        lane_tasks_(lanes_, 0) {
    threads_.reserve(lanes_ - 1);
    for (std::size_t lane = 1; lane < lanes_; ++lane) {
      threads_.emplace_back([this, lane] { worker(lane); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      job_ready_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  // Blocking parallel-for over [0, count).  Returns the number of tasks
  // whose callable threw (0 == clean run).  `lane_done`, if set, fires at
  // most once per lane that ran at least one task, on that lane's thread,
  // before run() returns.
  std::size_t run(std::size_t count, const TaskFn& fn,
                  const LaneDoneFn& lane_done = LaneDoneFn()) {
    if (count == 0) return 0;
    Job job;
    job.count = count;
    job.fn = &fn;
    job.lane_done = lane_done ? &lane_done : nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++generation_;
      ++runs_;
      job_ready_.notify_all();
    }
    execute(job, /*lane=*/0);
    std::unique_lock<std::mutex> lock(mu_);
    // Detach the job so lanes that never woke up cannot enter it, then
    // wait for every lane that DID enter to exit.  Lane 0's loop above
    // only returns once all tasks are claimed, and claimed tasks belong
    // to entered lanes — so entered == exited means all tasks finished
    // and the stack-allocated Job is safe to destroy.
    job_ = nullptr;
    job_exit_.wait(lock, [&job] { return job.exited == job.entered; });
    return job.failed;
  }

  // --- accounting (all cumulative since construction) ---
  // Per-lane busy seconds / task counts; index < lanes().
  std::vector<double> lane_busy_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lane_busy_;
  }
  std::vector<std::uint64_t> lane_task_counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lane_tasks_;
  }
  // Sum of busy seconds across lanes (work done, not wall time).
  double busy_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (double b : lane_busy_) total += b;
    return total;
  }
  // Seconds worker lanes spent parked waiting for a job (lane 0 never
  // parks — it is the coordinator).
  double idle_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_seconds_;
  }
  std::uint64_t tasks_run() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_run_;
  }
  std::uint64_t tasks_failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_failed_;
  }
  std::uint64_t runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runs_;
  }

 private:
  // Per-run state, allocated on run()'s stack; the entered/exited
  // protocol above bounds its lifetime.
  struct Job {
    std::size_t count = 0;
    const TaskFn* fn = nullptr;
    const LaneDoneFn* lane_done = nullptr;
    std::atomic<std::size_t> next{0};  // task claim counter
    std::size_t entered = 0;           // lanes that joined (under mu_)
    std::size_t exited = 0;            // lanes that left (under mu_)
    std::size_t failed = 0;            // tasks that threw (under mu_)
  };

  void worker(std::size_t lane) {
    std::uint64_t seen = 0;  // generation of the last job this lane ran
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!closed_ && !(job_ && generation_ != seen)) {
          const double w0 = clock_->now_seconds();
          job_ready_.wait(
              lock, [&] { return closed_ || (job_ && generation_ != seen); });
          idle_seconds_ += clock_->now_seconds() - w0;
        }
        if (job_ && generation_ != seen) {
          seen = generation_;
          job = job_;
          ++job->entered;
        } else if (closed_) {
          return;
        } else {
          continue;  // spurious wake after the job was detached
        }
      }
      execute(*job, lane);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++job->exited;
        job_exit_.notify_all();
      }
    }
  }

  // Claim-and-run loop shared by lane 0 and the worker lanes.  Lane-local
  // tallies fold into the shared counters once, at the end.
  void execute(Job& job, std::size_t lane) {
    const double t0 = clock_->now_seconds();
    std::uint64_t ran = 0;
    std::size_t threw = 0;
    for (;;) {
      const std::size_t task = job.next.fetch_add(1, std::memory_order_relaxed);
      if (task >= job.count) break;
      try {
        (*job.fn)(task, lane);
      } catch (...) {
        // Contained: the merge sees this task's slot untouched; run()'s
        // return value tells the coordinator to degrade.
        ++threw;
      }
      ++ran;
    }
    const double busy = clock_->now_seconds() - t0;
    if (ran > 0 && job.lane_done) {
      LaneReport report;
      report.lane = lane;
      report.tasks = ran;
      report.busy_seconds = busy;
      (*job.lane_done)(report);
    }
    std::lock_guard<std::mutex> lock(mu_);
    lane_busy_[lane] += busy;
    lane_tasks_[lane] += ran;
    tasks_run_ += ran;
    job.failed += threw;
    tasks_failed_ += threw;
  }

  const std::size_t lanes_;
  Clock* clock_;
  mutable std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_exit_;
  Job* job_ = nullptr;          // current job, null between runs
  std::uint64_t generation_ = 0;  // bumps per run; lanes join each gen once
  bool closed_ = false;
  std::vector<double> lane_busy_;
  std::vector<std::uint64_t> lane_tasks_;
  double idle_seconds_ = 0.0;
  std::uint64_t tasks_run_ = 0;
  std::uint64_t tasks_failed_ = 0;
  std::uint64_t runs_ = 0;
  std::vector<std::thread> threads_;  // last: start after all state exists
};

}  // namespace vapro::util
