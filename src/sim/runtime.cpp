#include "src/sim/runtime.hpp"

#include <algorithm>

#include "src/util/check.hpp"
#include "src/util/log.hpp"

namespace vapro::sim {

namespace {
// FNV-style combine for ground-truth workload class accumulation.
std::int64_t combine_truth(std::int64_t acc, std::int64_t cls) {
  if (acc == -1) return cls;
  std::uint64_t h = static_cast<std::uint64_t>(acc);
  h ^= static_cast<std::uint64_t>(cls) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  // Keep it non-negative and distinguishable from "unlabelled".
  return static_cast<std::int64_t>(h & 0x7fffffffffffffffULL);
}
}  // namespace

// ---------------------------------------------------------------------------
// RankContext
// ---------------------------------------------------------------------------

RankContext::RankContext(Simulator* sim, int rank, pmu::MachineParams machine,
                         std::uint64_t seed)
    : sim_(sim),
      rank_(rank),
      core_model_(machine, seed ^ 0xc0dec0dec0dec0deULL),
      rng_(seed) {}

int RankContext::size() const { return sim_->config_.ranks; }
int RankContext::node() const { return sim_->topo_.node_of(rank_); }
int RankContext::core() const { return sim_->topo_.core_of(rank_); }
double RankContext::now() const { return sim_->engine_.now(); }

void RankContext::note_truth_class(std::int64_t cls) {
  truth_accum_ = combine_truth(truth_accum_, cls);
}

detail::CallAwaiter RankContext::make_call(OpKind kind, CallSiteId site) {
  detail::CallAwaiter a;
  a.ctx = this;
  a.info.rank = rank_;
  a.info.site = site;
  a.info.kind = kind;
  a.info.path = region_stack_;
  a.info.truth_class_since_last = truth_accum_;
  a.info.statically_fixed_since_last = saw_compute_ && static_accum_;
  return a;
}

detail::ComputeAwaiter RankContext::compute(const pmu::ComputeWorkload& w) {
  return detail::ComputeAwaiter{this, w};
}

detail::CallAwaiter RankContext::send(int dst, double bytes, CallSiteId site,
                                      int tag) {
  auto a = make_call(OpKind::kSend, site);
  a.peer = dst;
  a.bytes = bytes;
  a.tag = tag;
  a.info.args = CommArgs{bytes, dst, -1, tag};
  return a;
}

detail::CallAwaiter RankContext::recv(int src, CallSiteId site, int tag) {
  auto a = make_call(OpKind::kRecv, site);
  a.peer = src;
  a.tag = tag;
  a.info.args = CommArgs{0.0, src, -1, tag};
  return a;
}

detail::RequestOpAwaiter RankContext::isend(int dst, double bytes,
                                            CallSiteId site, int tag) {
  detail::RequestOpAwaiter a;
  static_cast<detail::CallAwaiter&>(a) = make_call(OpKind::kIsend, site);
  a.peer = dst;
  a.bytes = bytes;
  a.tag = tag;
  a.info.args = CommArgs{bytes, dst, -1, tag};
  return a;
}

detail::RequestOpAwaiter RankContext::irecv(int src, CallSiteId site, int tag) {
  detail::RequestOpAwaiter a;
  static_cast<detail::CallAwaiter&>(a) = make_call(OpKind::kIrecv, site);
  a.peer = src;
  a.tag = tag;
  a.info.args = CommArgs{0.0, src, -1, tag};
  return a;
}

detail::CallAwaiter RankContext::wait(Request r, CallSiteId site) {
  auto a = make_call(OpKind::kWait, site);
  a.request = std::move(r);
  return a;
}

detail::CallAwaiter RankContext::wait_all(std::vector<Request> rs,
                                          CallSiteId site) {
  auto a = make_call(OpKind::kWaitall, site);
  a.requests = std::move(rs);
  return a;
}

detail::CallAwaiter RankContext::allreduce(double bytes, CallSiteId site) {
  auto a = make_call(OpKind::kAllreduce, site);
  a.bytes = bytes;
  a.info.args = CommArgs{bytes, -1, -1, 0};
  return a;
}

detail::CallAwaiter RankContext::bcast(double bytes, int root,
                                       CallSiteId site) {
  auto a = make_call(OpKind::kBcast, site);
  a.bytes = bytes;
  a.peer = root;
  a.info.args = CommArgs{bytes, root, -1, 0};
  return a;
}

detail::CallAwaiter RankContext::barrier(CallSiteId site) {
  return make_call(OpKind::kBarrier, site);
}

detail::CallAwaiter RankContext::file_read(int fd, double bytes,
                                           CallSiteId site) {
  auto a = make_call(OpKind::kFileRead, site);
  a.bytes = bytes;
  a.fd = fd;
  a.info.args = CommArgs{bytes, -1, fd, 0};
  return a;
}

detail::CallAwaiter RankContext::file_write(int fd, double bytes,
                                            CallSiteId site) {
  auto a = make_call(OpKind::kFileWrite, site);
  a.bytes = bytes;
  a.fd = fd;
  a.info.args = CommArgs{bytes, -1, fd, 0};
  return a;
}

detail::CallAwaiter RankContext::probe(CallSiteId site) {
  return make_call(OpKind::kProbe, site);
}

RankContext::Region::Region(RankContext& ctx, std::uint32_t id) : ctx_(ctx) {
  ctx_.region_stack_.push_back(id);
}

RankContext::Region::~Region() { ctx_.region_stack_.pop_back(); }

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

namespace detail {

void ComputeAwaiter::await_suspend(std::coroutine_handle<> h) {
  Simulator* sim = ctx->sim_;
  pmu::EnvQuery where{ctx->node(), ctx->core(), sim->now()};
  pmu::ComputeOutcome out =
      ctx->core_model_.execute(workload, where, sim->noise_);
  ctx->counters_ += out.delta;
  if (workload.truth_class >= 0) ctx->note_truth_class(workload.truth_class);
  ctx->saw_compute_ = true;
  if (!workload.statically_fixed) ctx->static_accum_ = false;
  sim->resume_at(ctx->rank_, h, sim->now() + out.wall_seconds());
}

void CallAwaiter::await_suspend(std::coroutine_handle<> h) {
  Simulator* sim = ctx->sim_;
  sim->begin_call(*ctx, info);
  switch (info.kind) {
    case OpKind::kSend:
      sim->op_send(*this, h, /*blocking=*/true);
      break;
    case OpKind::kIsend:
      sim->op_send(*this, h, /*blocking=*/false);
      break;
    case OpKind::kRecv:
      sim->op_recv(*this, h, /*blocking=*/true);
      break;
    case OpKind::kIrecv:
      sim->op_recv(*this, h, /*blocking=*/false);
      break;
    case OpKind::kWait:
      sim->op_wait(*this, h);
      break;
    case OpKind::kWaitall:
      sim->op_waitall(*this, h);
      break;
    case OpKind::kAllreduce:
    case OpKind::kBcast:
    case OpKind::kBarrier:
      sim->op_collective(*this, h);
      break;
    case OpKind::kFileRead:
    case OpKind::kFileWrite:
      sim->op_io(*this, h);
      break;
    case OpKind::kProbe:
      sim->op_probe(*this, h);
      break;
  }
}

void CallAwaiter::await_resume() {
  // Receive-like ops learn the message size only at completion.
  if ((info.kind == OpKind::kRecv || info.kind == OpKind::kWait) && request &&
      request->resolved) {
    info.args.bytes = std::max(info.args.bytes, request->bytes);
    if (ctx->sim_->config_.enhanced_comm_profiling &&
        request->transfer_seconds >= 0.0) {
      info.args.transfer_seconds = request->transfer_seconds;
    }
  }
  ctx->sim_->end_call(*ctx, info);
}

Request RequestOpAwaiter::await_resume() {
  CallAwaiter::await_resume();
  return out_request;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

Simulator::Simulator(SimConfig config)
    : config_(config),
      topo_{config.ranks, config.cores_per_node},
      network_(config.network, topo_),
      fs_(config.fs, config.seed ^ 0xf5f5f5f5f5f5f5f5ULL),
      noise_(config.noises) {
  VAPRO_CHECK(config_.ranks > 0);
  VAPRO_CHECK(config_.cores_per_node > 0);  // Topology divides by it
}

Simulator::~Simulator() = default;

void Simulator::set_interceptor(Interceptor* interceptor) {
  interceptor_ = interceptor;
}

std::uint64_t Simulator::add_periodic(double period,
                                      std::function<void(double)> fn) {
  VAPRO_CHECK(period > 0.0);
  const std::uint64_t id = next_periodic_id_++;
  periodics_.push_back(Periodic{id, period, std::move(fn)});
  return id;
}

void Simulator::remove_periodic(std::uint64_t id) {
  for (auto it = periodics_.begin(); it != periodics_.end(); ++it) {
    if (it->id == id) {
      periodics_.erase(it);
      return;
    }
  }
}

double Simulator::intercept_overhead(const RankContext& ctx) const {
  if (interceptor_ == nullptr) return 0.0;
  double cost = config_.intercept_cost.base_seconds;
  if (interceptor_->wants_call_path()) {
    cost += config_.intercept_cost.per_frame_seconds *
            static_cast<double>(ctx.region_stack_.size() + 1);
  }
  return cost;
}

void Simulator::begin_call(const RankContext& ctx, const InvocationInfo& info) {
  if (interceptor_)
    interceptor_->on_call_begin(info, engine_.now(), ctx.counters_);
}

void Simulator::end_call(const RankContext& ctx, const InvocationInfo& info) {
  if (interceptor_)
    interceptor_->on_call_end(info, engine_.now(), ctx.counters_);
  // The computation-since-last-call accumulators restart after every
  // external invocation, whether or not a tool is attached.
  RankContext& mutable_ctx = const_cast<RankContext&>(ctx);
  mutable_ctx.truth_accum_ = -1;
  mutable_ctx.static_accum_ = true;
  mutable_ctx.saw_compute_ = false;
}

void Simulator::resume_at(int rank, std::coroutine_handle<> h, double t) {
  const std::uint64_t run_id = run_counter_;
  engine_.schedule_at(t, [this, rank, h, run_id] {
    if (run_id != run_counter_) return;  // stale event from a reset run
    h.resume();
    if (tasks_[static_cast<std::size_t>(rank)].done() &&
        finish_times_[static_cast<std::size_t>(rank)] < 0.0) {
      finish_times_[static_cast<std::size_t>(rank)] = engine_.now();
      --unfinished_;
      tasks_[static_cast<std::size_t>(rank)].rethrow_if_failed();
      if (interceptor_) interceptor_->on_program_end(rank, engine_.now());
    }
  });
}

void Simulator::op_send(detail::CallAwaiter& a, std::coroutine_handle<> h,
                        bool blocking) {
  RankContext& ctx = *a.ctx;
  const double now = engine_.now();
  const double congestion = noise_.network_factor(now);
  const double arrival =
      now + network_.p2p_time(a.bytes, ctx.rank_, a.peer, congestion);
  deliver(a.peer, ctx.rank_, a.tag, arrival, a.bytes, now);

  const double inject = network_.inject_time(a.bytes, congestion);
  if (!blocking) {
    a.out_request = std::make_shared<RequestState>();
    a.out_request->post_time = now;
    a.out_request->bytes = a.bytes;
    // Eager protocol: the send buffer is reusable once injected.
    resolve_request(a.out_request, now + inject, a.bytes);
    // Isend itself returns after half the injection (overlap with the NIC).
    resume_at(ctx.rank_, h, now + inject * 0.5 + intercept_overhead(ctx));
  } else {
    resume_at(ctx.rank_, h, now + inject + intercept_overhead(ctx));
  }
}

void Simulator::op_recv(detail::CallAwaiter& a, std::coroutine_handle<> h,
                        bool blocking) {
  RankContext& ctx = *a.ctx;
  const double now = engine_.now();
  const double overhead = intercept_overhead(ctx);

  Request req = std::make_shared<RequestState>();
  req->post_time = now;

  Mailbox& box = mailboxes_[static_cast<std::size_t>(ctx.rank_)];
  const std::uint64_t key = msg_key(a.peer, a.tag);
  auto it = box.inflight.find(key);
  if (it != box.inflight.end() && !it->second.empty()) {
    Mailbox::Msg msg = it->second.front();
    it->second.pop_front();
    const double copy = network_.receive_copy_time(
        msg.bytes, noise_.network_factor(std::max(now, msg.arrival)));
    resolve_request(req, std::max(now, msg.arrival) + copy, msg.bytes,
                    msg.arrival - msg.send_time + copy);
  } else {
    box.pending_recvs[key].push_back(req);
  }

  if (!blocking) {
    a.out_request = req;
    resume_at(ctx.rank_, h, now + overhead);
    return;
  }

  a.request = req;
  if (req->resolved) {
    resume_at(ctx.rank_, h, std::max(now, req->complete_time) + overhead);
  } else {
    park(ctx);
    int rank = ctx.rank_;
    req->on_resolve = [this, rank, h, req, overhead] {
      resume_at(rank, h, std::max(engine_.now(), req->complete_time) + overhead);
    };
  }
}

void Simulator::op_wait(detail::CallAwaiter& a, std::coroutine_handle<> h) {
  RankContext& ctx = *a.ctx;
  const double now = engine_.now();
  const double overhead = intercept_overhead(ctx);
  Request req = a.request;
  VAPRO_CHECK_MSG(req != nullptr, "wait on a null request");
  if (req->resolved) {
    resume_at(ctx.rank_, h, std::max(now, req->complete_time) + overhead);
  } else {
    park(ctx);
    int rank = ctx.rank_;
    req->on_resolve = [this, rank, h, req, overhead] {
      resume_at(rank, h, std::max(engine_.now(), req->complete_time) + overhead);
    };
  }
}

void Simulator::op_waitall(detail::CallAwaiter& a, std::coroutine_handle<> h) {
  RankContext& ctx = *a.ctx;
  const double now = engine_.now();
  const double overhead = intercept_overhead(ctx);
  const int rank = ctx.rank_;

  auto latest = std::make_shared<double>(now);
  auto remaining = std::make_shared<int>(0);
  for (const Request& r : a.requests) {
    VAPRO_CHECK_MSG(r != nullptr, "wait_all on a null request");
    if (r->resolved) {
      *latest = std::max(*latest, r->complete_time);
    } else {
      ++*remaining;
    }
  }
  if (*remaining == 0) {
    resume_at(rank, h, std::max(now, *latest) + overhead);
    return;
  }
  park(ctx);
  for (const Request& r : a.requests) {
    if (r->resolved) continue;
    r->on_resolve = [this, rank, h, r, latest, remaining, overhead] {
      *latest = std::max(*latest, r->complete_time);
      if (--*remaining == 0) {
        resume_at(rank, h, std::max(engine_.now(), *latest) + overhead);
      }
    };
  }
}

void Simulator::op_collective(detail::CallAwaiter& a,
                              std::coroutine_handle<> h) {
  RankContext& ctx = *a.ctx;
  const double now = engine_.now();
  const double overhead = intercept_overhead(ctx);
  const int rank = ctx.rank_;
  const int p = config_.ranks;

  const std::uint64_t seq = next_collective_[static_cast<std::size_t>(rank)]++;
  CollState& st = collectives_[seq];
  if (st.arrived == 0) {
    st.kind = a.info.kind;
    st.bytes = a.bytes;
  } else {
    VAPRO_CHECK_MSG(st.kind == a.info.kind,
                    "collective mismatch at sequence " << seq << ": rank "
                        << rank << " issued " << op_kind_name(a.info.kind)
                        << " but others issued " << op_kind_name(st.kind));
  }
  ++st.arrived;
  st.max_time = std::max(st.max_time, now);
  st.releases.push_back([this, rank, h, overhead](double done) {
    resume_at(rank, h, done + overhead);
  });

  if (st.arrived == p) {
    const double congestion = noise_.network_factor(st.max_time);
    double cost = 0.0;
    switch (st.kind) {
      case OpKind::kAllreduce:
        cost = network_.allreduce_time(st.bytes, p, congestion);
        break;
      case OpKind::kBcast:
        cost = network_.bcast_time(st.bytes, p, congestion);
        break;
      case OpKind::kBarrier:
        cost = network_.barrier_time(p, congestion);
        break;
      default:
        VAPRO_CHECK_MSG(false, "not a collective");
    }
    const double done = st.max_time + cost;
    // Move the releases out before erasing: a release may recursively
    // reach the next collective and mutate the map.
    auto releases = std::move(st.releases);
    collectives_.erase(seq);
    for (auto& release : releases) release(done);
  }
}

void Simulator::op_io(detail::CallAwaiter& a, std::coroutine_handle<> h) {
  RankContext& ctx = *a.ctx;
  const double now = engine_.now();
  const double factor = noise_.io_factor(now);
  const double dur = a.info.kind == OpKind::kFileRead
                         ? fs_.read_time(a.bytes, factor)
                         : fs_.write_time(a.bytes, factor);
  park(ctx);  // blocking syscall: one voluntary context switch
  resume_at(ctx.rank_, h, now + dur + intercept_overhead(ctx));
}

void Simulator::op_probe(detail::CallAwaiter& a, std::coroutine_handle<> h) {
  RankContext& ctx = *a.ctx;
  resume_at(ctx.rank_, h, engine_.now() + intercept_overhead(ctx));
}

void Simulator::deliver(int dst, int src, int tag, double arrival,
                        double bytes, double send_time) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  const std::uint64_t key = msg_key(src, tag);
  auto pending = box.pending_recvs.find(key);
  if (pending != box.pending_recvs.end() && !pending->second.empty()) {
    Request req = pending->second.front();
    pending->second.pop_front();
    const double copy = network_.receive_copy_time(
        bytes, noise_.network_factor(std::max(arrival, req->post_time)));
    resolve_request(req, std::max(arrival, req->post_time) + copy, bytes,
                    arrival - send_time + copy);
    return;
  }
  box.inflight[key].push_back(Mailbox::Msg{arrival, bytes, send_time});
}

void Simulator::resolve_request(const Request& r, double complete_time,
                                double bytes, double transfer_seconds) {
  VAPRO_CHECK(!r->resolved);
  r->resolved = true;
  r->complete_time = complete_time;
  r->bytes = bytes;
  r->transfer_seconds = transfer_seconds;
  if (r->on_resolve) {
    auto fn = std::move(r->on_resolve);
    r->on_resolve = nullptr;
    fn();
  }
}

void Simulator::schedule_periodic_tick(std::size_t idx) {
  const std::uint64_t run_id = run_counter_;
  const std::uint64_t periodic_id = periodics_[idx].id;
  engine_.schedule_after(
      periodics_[idx].period, [this, periodic_id, run_id] {
        if (run_id != run_counter_) return;
        for (std::size_t i = 0; i < periodics_.size(); ++i) {
          if (periodics_[i].id != periodic_id) continue;
          periodics_[i].fn(engine_.now());
          if (unfinished_ > 0) schedule_periodic_tick(i);
          return;
        }
        // Deregistered mid-run: nothing to do.
      });
}

RunResult Simulator::run(const RankProgram& program) {
  // Reset transient state; invalidate stale events from previous runs.
  ++run_counter_;
  engine_ = EventEngine{};
  contexts_.clear();
  tasks_.clear();
  done_callbacks_.clear();
  mailboxes_.assign(static_cast<std::size_t>(config_.ranks), Mailbox{});
  collectives_.clear();
  next_collective_.assign(static_cast<std::size_t>(config_.ranks), 0);
  finish_times_.assign(static_cast<std::size_t>(config_.ranks), -1.0);
  unfinished_ = config_.ranks;

  util::Rng seeder(config_.seed + run_counter_ * 0x9e3779b97f4a7c15ULL);
  contexts_.reserve(static_cast<std::size_t>(config_.ranks));
  tasks_.reserve(static_cast<std::size_t>(config_.ranks));
  done_callbacks_.resize(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    contexts_.push_back(std::unique_ptr<RankContext>(new RankContext(
        this, r, config_.machine, seeder.fork(static_cast<std::uint64_t>(r)).next_u64())));
  }
  for (int r = 0; r < config_.ranks; ++r) {
    tasks_.push_back(program(*contexts_[static_cast<std::size_t>(r)]));
  }
  // Start every rank at t=0 through the engine so interleave is by event
  // order, not construction order.
  for (int r = 0; r < config_.ranks; ++r) {
    auto& task = tasks_[static_cast<std::size_t>(r)];
    engine_.schedule_at(0.0, [this, r, &task] {
      task.start(&done_callbacks_[static_cast<std::size_t>(r)]);
      if (task.done() && finish_times_[static_cast<std::size_t>(r)] < 0.0) {
        finish_times_[static_cast<std::size_t>(r)] = engine_.now();
        --unfinished_;
        task.rethrow_if_failed();
        if (interceptor_) interceptor_->on_program_end(r, engine_.now());
      }
    });
  }
  for (std::size_t i = 0; i < periodics_.size(); ++i)
    schedule_periodic_tick(i);

  engine_.run_until(config_.max_virtual_seconds);
  VAPRO_CHECK_MSG(unfinished_ == 0,
                  unfinished_ << " rank(s) never finished — deadlock or "
                                 "max_virtual_seconds exceeded at t="
                              << engine_.now());

  RunResult result;
  result.finish_times = finish_times_;
  result.makespan = *std::max_element(finish_times_.begin(), finish_times_.end());
  result.events = engine_.dispatched();
  return result;
}

}  // namespace vapro::sim
