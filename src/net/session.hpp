// Tenant-keyed admission layer in front of the analysis servers — the
// session half of the ingest plane (ROADMAP item 2).
//
// A TenantSession owns one tenant's isolated analysis state (an
// AnalysisServer) plus a StageExecutor whose bounded queue sits between
// the transport and the analysis worker.  Batches arrive tagged with a
// per-tenant sequence number and pass through three gates:
//
//   1. Dedup — a seq already applied or buffered acks kDuplicate without
//      re-admission, so a retransmit (after a torn frame, a reset
//      connection, or the net.dup_batch fault) can never double-count
//      fragments.
//   2. Reorder — out-of-order batches wait in a bounded reorder buffer
//      until the gap fills; batches are applied to the server strictly in
//      seq order, so socket-level reordering is invisible to analysis.  A
//      seq beyond the reorder window is refused outright (kRejected +
//      `net_drop` journal event) — the stream is too far desynced to heal.
//   3. Admission — kBlock propagates backpressure (the transport blocks,
//      the client's ack is delayed); kShedOldest keeps accepting but
//      evicts the oldest queued batch, journaling a `shed` event per
//      victim, bumping vapro.net.batches_shed, and flipping the
//      vapro.net.degraded gauge until the queue drains.  Detection keeps
//      running on what survives — overload degrades the data, never the
//      service.
//
// Before admission, each batch is checked in seq order against what the
// tenant's server can analyze: a fragment rank outside [0, ranks), an end
// time at or past the heat map's last bin, or a communication/IO fragment
// on a state no batch has announced is refused (kRejected + `net_drop`
// journal event), never handed to the server, whose checks would abort
// the process.  A batch the transport could not decode takes the same
// in-order refusal through refuse_malformed(), so the stream goes on past
// its seq.
//
// A client announces each state once, so a batch the session sheds or
// refuses in seq order still delivers its `new_states`: they are held and
// handed to the server with the next batch it analyzes whose seq is
// higher.  A batch refused beyond the reorder window takes its states
// with it: the stream cannot pass its seq until it is resubmitted, states
// and all.
//
// Every shed is accounted: per tenant,
//     submitted_unique == admitted + shed + rejected
//     server.fragments_processed == Σ fragments(admitted batches)
// which is exactly the invariant vapro_stress's faulted net equivalence
// run asserts.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/client.hpp"
#include "src/core/server.hpp"
#include "src/net/wire.hpp"
#include "src/util/pipeline.hpp"

namespace vapro::net {

enum class AdmissionPolicy : std::uint8_t {
  kBlock,      // blocking backpressure: push waits for queue space
  kShedOldest, // shed the oldest queued window to admit the newest
};

struct TenantOptions {
  std::string name;
  int ranks = 1;
  // Options for the tenant's analysis server; `server.obs` is the
  // tenant's own ObsContext (journal isolation) and may differ from the
  // plane-level ObsContext holding the vapro.net.* metrics.  The server
  // runs at pipeline_depth 1 whatever `server.pipeline_depth` says: the
  // session's admission queue is the tenant's only hand-off queue.
  core::ServerOptions server;
  std::size_t queue_capacity = 4;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Max distance a batch may run ahead of the next expected seq and still
  // be buffered for in-order application.
  std::uint64_t reorder_window = 64;
};

struct TenantStats {
  std::uint64_t submitted = 0;   // batches arrived, including duplicates
  std::uint64_t admitted = 0;    // batches that reached the queue
  std::uint64_t duplicates = 0;  // deduped retransmits
  std::uint64_t shed = 0;        // journaled `shed` events
  std::uint64_t rejected = 0;    // journaled `net_drop` events
  std::uint64_t reordered = 0;   // batches that arrived ahead of a gap
};

class IngestPlane;

class TenantSession {
 public:
  TenantSession(TenantOptions opts, IngestPlane* plane);

  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  // Thread-safe (one transport connection at a time per tenant is the
  // expected shape, but nothing breaks with more).  The returned status is
  // the wire-level ack for THIS seq; sheds of other (older) batches are
  // visible through the journal and stats only.
  AckStatus submit(std::uint64_t seq, core::FragmentBatch batch,
                   double drain_seconds);
  // Accounts batch `seq`, which arrived intact but does not decode:
  // resending cannot mend it, so it is refused in seq order with a
  // `malformed_payload` net_drop counting the `declared_fragments`, and
  // the batches behind it are analyzed.  Acks kRejected, or kDuplicate
  // for a seq already applied or buffered.
  AckStatus refuse_malformed(std::uint64_t seq,
                             std::size_t declared_fragments);

  // Blocks until every admitted batch has been fully analyzed; rethrows,
  // once, an exception the analysis of one of them threw.  After sync()
  // all accessors reflect every admitted batch, and degraded() is false
  // unless a batch was shed since the last one was analyzed.
  void sync();

  const std::string& name() const { return opts_.name; }
  int ranks() const { return opts_.ranks; }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  TenantStats stats() const;
  std::size_t queue_capacity() const { return pipeline_.capacity(); }

  core::AnalysisServer* server() { return &backend_; }
  std::size_t windows_processed() const { return backend_.windows_processed(); }
  std::size_t fragments_processed() const {
    return backend_.fragments_processed();
  }
  void journal_detection_snapshot() const {
    backend_.journal_detection_snapshot();
  }

 private:
  struct Queued {
    std::uint64_t seq = 0;
    double drain_seconds = 0.0;
    core::FragmentBatch batch;
    // Set by refuse_malformed(), with the fragment count the undecodable
    // batch declared.
    bool malformed = false;
    std::size_t declared = 0;

    std::size_t fragments() const {
      return malformed ? declared : batch.fragments.size();
    }
  };

  // Dedups, window-checks and buffers one arrival, then applies what is
  // ready.  Returns the admission outcome of `q.seq`.
  AckStatus arrive(Queued q);
  // Applies the contiguous run starting at next_expected_; caller holds
  // seq_mu_.  Returns the admission outcome of `submitted_seq`.
  AckStatus apply_ready_locked(std::uint64_t submitted_seq);
  // Learns the batch's announced states, then returns why the server
  // cannot analyze it (the `net_drop` reason), or nullptr; caller holds
  // seq_mu_ and calls it in seq order.
  const char* refusal_reason(const core::FragmentBatch& batch);
  // Queues one in-order batch, shedding per policy; caller holds seq_mu_.
  AckStatus enqueue_locked(Queued q);
  // Keeps the states of batch `seq`, which the server will not analyze,
  // for the next analyzed batch with a higher seq; caller holds
  // states_mu_.
  void hold_states_locked(std::uint64_t seq,
                          std::vector<sim::InvocationInfo> states);
  void hold_states(std::uint64_t seq, std::vector<sim::InvocationInfo> states);
  void journal_shed(std::uint64_t seq, std::size_t fragments,
                    std::size_t new_states, const char* policy);
  void journal_net_drop(std::uint64_t seq, std::size_t fragments,
                        const char* reason);
  // The pipeline worker's handler: analyzes one admitted batch.
  void process(Queued q);
  void set_degraded(bool on);

  TenantOptions opts_;
  IngestPlane* plane_;  // borrowed; owns this session
  core::AnalysisServer backend_;

  mutable std::mutex seq_mu_;
  std::uint64_t next_expected_ = 0;
  std::map<std::uint64_t, Queued> pending_;  // reorder buffer, seq-ordered
  TenantStats stats_;
  // Every state announced by a batch applied so far (seq_mu_).
  std::unordered_set<core::StateKey> known_states_;

  // States of batches the server will not analyze, by seq (states_mu_).
  // process() takes every entry below its batch's seq.  An eviction holds
  // its victim's states under the same lock, so no later batch can start
  // in between.
  std::mutex states_mu_;
  std::map<std::uint64_t, std::vector<sim::InvocationInfo>> held_states_;

  std::atomic<bool> degraded_{false};
  // Admission queue plus analysis worker.  Last member: destroyed first,
  // so the worker finishes the backlog while everything process() uses
  // still exists.
  util::StageExecutor<Queued> pipeline_;
};

struct PlaneOptions {
  // Plane-level telemetry: vapro.net.* counters/gauges land here.  May be
  // shared with a tenant's ObsContext (the single-tenant vapro_run shape)
  // or separate (the stress harness isolates tenant journals).  Null
  // disables.
  obs::ObsContext* obs = nullptr;
  // Time source for shed/net_drop journal timestamps and queue accounting.
  util::Clock* clock = nullptr;
};

// The set of tenant sessions one ingest endpoint serves.  add_tenant() is
// setup-phase only (not safe against concurrent submits); everything else
// is thread-safe.
class IngestPlane {
 public:
  explicit IngestPlane(PlaneOptions opts);
  ~IngestPlane();

  TenantSession* add_tenant(TenantOptions opts);
  TenantSession* find(const std::string& name);

  void sync_all();
  // Any tenant currently shedding (set on shed, cleared when that tenant's
  // queue drains).  Mirrored by the vapro.net.degraded gauge; /readyz
  // turns 503 while true.
  bool degraded() const { return degraded_tenants_.load() > 0; }
  std::uint64_t shed_total() const;

  const PlaneOptions& options() const { return opts_; }
  util::Clock* clock() const { return clock_; }

 private:
  friend class TenantSession;
  void note_degraded(int delta);
  void note_inflight(int delta);
  void publish_static_gauges();

  PlaneOptions opts_;
  util::Clock* clock_;
  std::vector<std::unique_ptr<TenantSession>> tenants_;
  std::atomic<int> degraded_tenants_{0};
  std::atomic<std::int64_t> inflight_{0};
};

}  // namespace vapro::net
