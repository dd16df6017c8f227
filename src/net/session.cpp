#include "src/net/session.hpp"

#include <iterator>
#include <utility>

#include "src/core/heatmap.hpp"
#include "src/testing/fault.hpp"

namespace vapro::net {

namespace {

// The session's own executor is the tenant's hand-off queue, so its
// backend analyzes each batch on that worker instead of handing it to a
// second one.
core::ServerOptions serial_backend(core::ServerOptions server) {
  server.pipeline_depth = 1;
  return server;
}

}  // namespace

// --- TenantSession ---------------------------------------------------------

TenantSession::TenantSession(TenantOptions opts, IngestPlane* plane)
    : opts_(std::move(opts)),
      plane_(plane),
      backend_(opts_.ranks, serial_backend(opts_.server)),
      pipeline_(
          opts_.queue_capacity, [this](Queued q) { process(std::move(q)); },
          plane->clock()) {}

AckStatus TenantSession::submit(std::uint64_t seq, core::FragmentBatch batch,
                                double drain_seconds) {
  Queued q;
  q.seq = seq;
  q.drain_seconds = drain_seconds;
  q.batch = std::move(batch);
  return arrive(std::move(q));
}

AckStatus TenantSession::refuse_malformed(std::uint64_t seq,
                                          std::size_t declared_fragments) {
  Queued q;
  q.seq = seq;
  q.malformed = true;
  q.declared = declared_fragments;
  const AckStatus status = arrive(std::move(q));
  return status == AckStatus::kDuplicate ? status : AckStatus::kRejected;
}

AckStatus TenantSession::arrive(Queued q) {
  std::lock_guard<std::mutex> lock(seq_mu_);
  ++stats_.submitted;
  const std::uint64_t seq = q.seq;
  if (seq < next_expected_ || pending_.count(seq)) {
    ++stats_.duplicates;
    if (plane_->opts_.obs)
      plane_->opts_.obs->metrics().counter("vapro.net.batches_deduped")->inc();
    return AckStatus::kDuplicate;
  }
  if (seq >= next_expected_ + opts_.reorder_window) {
    // Its states are dropped with it: the stream cannot pass this seq
    // until the batch is resubmitted, states and all.
    ++stats_.rejected;
    journal_net_drop(seq, q.fragments(), "reorder_window_exceeded");
    return AckStatus::kRejected;
  }
  if (seq != next_expected_) ++stats_.reordered;
  pending_.emplace(seq, std::move(q));
  return apply_ready_locked(seq);
}

AckStatus TenantSession::apply_ready_locked(std::uint64_t submitted_seq) {
  AckStatus result = AckStatus::kAdmitted;
  while (!pending_.empty() && pending_.begin()->first == next_expected_) {
    auto it = pending_.begin();
    Queued q = std::move(it->second);
    pending_.erase(it);
    ++next_expected_;
    const bool is_submitted = q.seq == submitted_seq;
    AckStatus outcome = AckStatus::kRejected;
    if (const char* reason =
            q.malformed ? "malformed_payload" : refusal_reason(q.batch)) {
      ++stats_.rejected;
      journal_net_drop(q.seq, q.fragments(), reason);
      hold_states(q.seq, std::move(q.batch.new_states));
    } else {
      outcome = enqueue_locked(std::move(q));
    }
    if (is_submitted) result = outcome;
  }
  return result;
}

const char* TenantSession::refusal_reason(const core::FragmentBatch& batch) {
  for (const sim::InvocationInfo& info : batch.new_states)
    known_states_.insert(core::make_state_key(opts_.server.stg_mode, info));
  const core::FragmentColumns& frags = batch.fragments;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    // The heat maps have one row per rank.
    if (frags.rank(i) < 0 || frags.rank(i) >= opts_.ranks)
      return "rank_out_of_range";
    // ... and at most Heatmap::kMaxCells bins, the most a one-rank map
    // holds (decode_batch has already refused negative, non-finite and
    // reversed times).  A time inside that but past this tenant's own
    // limit is analyzed; its map refuses and counts the deposit.
    if (!(frags.end_time(i) / opts_.server.bin_seconds <
          static_cast<double>(core::Heatmap::kMaxCells)))
      return "time_out_of_range";
    // Communication and IO fragments file under their state's STG vertex.
    if (frags.kind(i) != core::FragmentKind::kComputation &&
        !known_states_.count(frags.to(i)))
      return "unknown_state";
  }
  return nullptr;
}

AckStatus TenantSession::enqueue_locked(Queued q) {
  // net.slow_peer: the deterministic overload stand-in.  Shedding the
  // INCOMING batch (not a queue victim) keeps the shed set a pure function
  // of the fault plan — a real queue victim's identity depends on consumer
  // scheduling, which the equivalence harness cannot allow.
  const std::uint64_t seq = q.seq;
  const std::size_t fragments = q.batch.fragments.size();
  const std::size_t new_states = q.batch.new_states.size();
  switch (VAPRO_FAULT("net.slow_peer")) {
    case testing::FaultAction::kNone:
      break;
    default:
      journal_shed(seq, fragments, new_states, "forced");
      hold_states(seq, std::move(q.batch.new_states));
      return AckStatus::kShed;
  }
  if (opts_.admission == AdmissionPolicy::kBlock) {
    plane_->note_inflight(+1);
    if (!pipeline_.submit(std::move(q))) {
      // Closed during teardown: nothing will consume it — account it.  No
      // batch is analyzed after it, so its states have nowhere to go.
      plane_->note_inflight(-1);
      journal_shed(seq, fragments, new_states, "closed");
      return AckStatus::kShed;
    }
  } else {
    while (!pipeline_.try_submit(std::move(q))) {
      if (pipeline_.closed()) {
        journal_shed(seq, fragments, new_states, "closed");
        return AckStatus::kShed;
      }
      std::lock_guard<std::mutex> lock(states_mu_);
      if (auto victim = pipeline_.evict_oldest()) {
        plane_->note_inflight(-1);
        journal_shed(victim->seq, victim->batch.fragments.size(),
                     victim->batch.new_states.size(), "oldest");
        hold_states_locked(victim->seq, std::move(victim->batch.new_states));
      }
    }
    plane_->note_inflight(+1);
  }
  ++stats_.admitted;
  if (plane_->opts_.obs)
    plane_->opts_.obs->metrics().counter("vapro.net.batches_admitted")->inc();
  return AckStatus::kAdmitted;
}

void TenantSession::journal_shed(std::uint64_t seq, std::size_t fragments,
                                 std::size_t new_states, const char* policy) {
  ++stats_.shed;
  set_degraded(true);
  if (plane_->opts_.obs)
    plane_->opts_.obs->metrics().counter("vapro.net.batches_shed")->inc();
  if (obs::Journal* j = opts_.server.obs ? opts_.server.obs->journal()
                                         : nullptr) {
    // "batch_seq", not "seq": the journal writes its own monotonic "seq"
    // key into every line, and a duplicate key would desync readers.
    j->emit("shed", /*window=*/static_cast<std::int64_t>(seq),
            plane_->clock()->now_seconds(),
            {obs::JournalField::str("tenant", opts_.name),
             obs::JournalField::num("batch_seq", seq),
             obs::JournalField::num("fragments",
                                    static_cast<std::uint64_t>(fragments)),
             obs::JournalField::num("new_states",
                                    static_cast<std::uint64_t>(new_states)),
             obs::JournalField::str("policy", policy)});
  }
}

void TenantSession::journal_net_drop(std::uint64_t seq, std::size_t fragments,
                                     const char* reason) {
  if (plane_->opts_.obs)
    plane_->opts_.obs->metrics().counter("vapro.net.batches_rejected")->inc();
  if (obs::Journal* j = opts_.server.obs ? opts_.server.obs->journal()
                                         : nullptr) {
    j->emit("net_drop", /*window=*/static_cast<std::int64_t>(seq),
            plane_->clock()->now_seconds(),
            {obs::JournalField::str("tenant", opts_.name),
             obs::JournalField::num("batch_seq", seq),
             obs::JournalField::num("fragments",
                                    static_cast<std::uint64_t>(fragments)),
             obs::JournalField::str("reason", reason)});
  }
}

void TenantSession::hold_states_locked(
    std::uint64_t seq, std::vector<sim::InvocationInfo> states) {
  if (!states.empty()) held_states_.emplace(seq, std::move(states));
}

void TenantSession::hold_states(std::uint64_t seq,
                                std::vector<sim::InvocationInfo> states) {
  std::lock_guard<std::mutex> lock(states_mu_);
  hold_states_locked(seq, std::move(states));
}

void TenantSession::process(Queued q) {
  {
    // States of earlier batches the server never analyzed come first, in
    // seq order (Stg::touch_vertex is idempotent).
    std::lock_guard<std::mutex> lock(states_mu_);
    const auto end = held_states_.lower_bound(q.seq);
    if (end != held_states_.begin()) {
      std::vector<sim::InvocationInfo> states;
      for (auto it = held_states_.begin(); it != end; ++it)
        states.insert(states.end(), std::make_move_iterator(it->second.begin()),
                      std::make_move_iterator(it->second.end()));
      states.insert(states.end(),
                    std::make_move_iterator(q.batch.new_states.begin()),
                    std::make_move_iterator(q.batch.new_states.end()));
      q.batch.new_states = std::move(states);
      held_states_.erase(held_states_.begin(), end);
    }
  }
  backend_.process_window(std::move(q.batch), q.drain_seconds);
  // This batch is the only one pending: the backlog has drained.  Cleared
  // before the handler returns, so a sync() that this batch wakes never
  // sees a stale flag.
  if (pipeline_.depth() == 1) set_degraded(false);
  plane_->note_inflight(-1);
}

void TenantSession::sync() { pipeline_.drain(); }

void TenantSession::set_degraded(bool on) {
  if (degraded_.exchange(on, std::memory_order_relaxed) != on)
    plane_->note_degraded(on ? +1 : -1);
}

TenantStats TenantSession::stats() const {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return stats_;
}

// --- IngestPlane -----------------------------------------------------------

IngestPlane::IngestPlane(PlaneOptions opts)
    : opts_(opts), clock_(opts.clock ? opts.clock : util::real_clock()) {
  publish_static_gauges();
}

IngestPlane::~IngestPlane() = default;

TenantSession* IngestPlane::add_tenant(TenantOptions opts) {
  tenants_.push_back(std::make_unique<TenantSession>(std::move(opts), this));
  publish_static_gauges();
  return tenants_.back().get();
}

TenantSession* IngestPlane::find(const std::string& name) {
  for (auto& t : tenants_)
    if (t->name() == name) return t.get();
  return nullptr;
}

void IngestPlane::sync_all() {
  for (auto& t : tenants_) t->sync();
}

std::uint64_t IngestPlane::shed_total() const {
  std::uint64_t total = 0;
  for (const auto& t : tenants_) total += t->stats().shed;
  return total;
}

void IngestPlane::note_degraded(int delta) {
  const int now = degraded_tenants_.fetch_add(delta) + delta;
  if (opts_.obs)
    opts_.obs->metrics().gauge("vapro.net.degraded")->set(now > 0 ? 1.0 : 0.0);
}

void IngestPlane::note_inflight(int delta) {
  const std::int64_t now = inflight_.fetch_add(delta) + delta;
  if (opts_.obs)
    opts_.obs->metrics()
        .gauge("vapro.net.queue_depth")
        ->set(static_cast<double>(now));
}

void IngestPlane::publish_static_gauges() {
  if (!opts_.obs) return;
  obs::MetricsRegistry& m = opts_.obs->metrics();
  m.gauge("vapro.net.tenants")->set(static_cast<double>(tenants_.size()));
  double capacity = 0.0;
  for (const auto& t : tenants_)
    capacity += static_cast<double>(t->queue_capacity());
  m.gauge("vapro.net.queue_capacity")->set(capacity);
  m.gauge("vapro.net.degraded")->set(degraded_tenants_.load() > 0 ? 1.0 : 0.0);
  m.gauge("vapro.net.queue_depth")
      ->set(static_cast<double>(inflight_.load()));
}

}  // namespace vapro::net
