// Tests for src/net — the resilient multi-tenant ingest plane.
//
//   * Wire codec — CRC-32 known answer, frame/payload round-trips that are
//     BIT-identical for doubles, and header validation for every desync
//     class (bad magic, version, type, flags, oversized payload).
//   * TenantSession — the three admission gates in front of the session's
//     analysis worker: dedup, bounded reorder buffer, shed-oldest with
//     journaled accounting and the degraded flag; the refusal of batches
//     the server cannot analyze (rank outside the tenant, a time past the
//     heat map, unannounced state, undecodable payload); and a shed
//     batch's states still reaching the server.  Tests that need fixed
//     shed victims hold the worker inside a window observer.
//   * Loopback end-to-end — socket-fed analysis is byte-identical to
//     feeding the same batches in process, and an undecodable batch is
//     refused once, not retransmitted, while the stream goes on.
//   * /readyz — readiness flips to 503 on the degraded gauge, on admission
//     saturation, and (fault builds) on any stopped journal sink, and
//     reports the probe fields.
//   * Fault sites (VAPRO_FAULT_INJECTION builds) — net.frame_torn,
//     net.conn_reset, net.dup_batch, net.reorder, net.slow_peer each hit
//     their resilience mechanism with exact fragment accounting.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/report.hpp"
#include "src/core/server.hpp"
#include "src/net/client.hpp"
#include "src/net/server.hpp"
#include "src/net/session.hpp"
#include "src/net/wire.hpp"
#include "src/obs/context.hpp"
#include "src/obs/exposition.hpp"
#include "src/obs/journal.hpp"
#include "src/testing/fault.hpp"
#include "src/util/clock.hpp"

namespace vapro {
namespace {

// --- helpers ---------------------------------------------------------------

// A small deterministic batch whose fragments differ per (salt, index), so
// distinct batches are distinguishable through fragment accounting and the
// region tables.
core::FragmentBatch make_batch(int ranks, int fragments_per_rank,
                               std::uint64_t salt) {
  core::FragmentBatch batch;
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < fragments_per_rank; ++i) {
      core::Fragment f;
      f.kind = core::FragmentKind::kComputation;
      f.rank = r;
      f.from = 1;
      f.to = 2;
      const double base = static_cast<double>(salt) * 0.25 +
                          static_cast<double>(i) * 0.01;
      f.start_time = base;
      f.end_time = base + 0.004 + 1e-4 * static_cast<double>(r % 3);
      f.counters[pmu::Counter::kTotIns] =
          1e6 + 1e3 * static_cast<double>((salt * 17 + i * 3) % 11);
      batch.fragments.push_back(f);
    }
  }
  return batch;
}

std::size_t batch_fragments(const core::FragmentBatch& b) {
  return b.fragments.size();
}

// The allreduce call site every comm_batch files its fragments under.
sim::InvocationInfo comm_site() {
  sim::InvocationInfo info;
  info.site = 101;
  info.kind = sim::OpKind::kAllreduce;
  return info;
}

// Communication fragments on comm_site()'s state, announcing that state
// only when `announce` is set — a client announces each state once.
core::FragmentBatch comm_batch(int ranks, int fragments_per_rank,
                               std::uint64_t salt, bool announce) {
  core::FragmentBatch batch;
  const sim::InvocationInfo site = comm_site();
  if (announce) batch.new_states.push_back(site);
  const core::StateKey key =
      core::make_state_key(core::StgMode::kContextFree, site);
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < fragments_per_rank; ++i) {
      core::Fragment f;
      f.kind = core::FragmentKind::kCommunication;
      f.op = site.kind;
      f.rank = r;
      f.from = key;
      f.to = key;
      f.start_time = static_cast<double>(salt) * 0.25 +
                     static_cast<double>(i) * 0.01;
      f.end_time = f.start_time + 0.004;
      f.args.bytes = 4096.0;
      batch.fragments.push_back(f);
    }
  }
  return batch;
}

core::ServerOptions test_server_options(obs::ObsContext* ctx = nullptr,
                                        util::Clock* clock = nullptr) {
  core::ServerOptions opts;
  opts.bin_seconds = 0.05;
  opts.cluster.min_cluster_size = 3;
  opts.run_diagnosis = false;  // diagnosis needs the simulator's noise model
  opts.obs = ctx;
  opts.clock = clock;
  return opts;
}

// Region tables for all three fragment kinds — the strongest cheap
// fingerprint of an analysis server's detection state.
std::string detection_fingerprint(core::AnalysisServer& server) {
  std::string out;
  for (core::FragmentKind kind :
       {core::FragmentKind::kComputation, core::FragmentKind::kCommunication,
        core::FragmentKind::kIo}) {
    out += core::render_region_table(server.locate(kind), 0.05);
    out += '\n';
  }
  return out;
}

// Minimal raw-socket HTTP GET (the exposition suite's idiom) for /readyz.
struct HttpReply {
  bool ok = false;
  int status = 0;
  std::string body;
};

HttpReply http_get(int port, const std::string& path) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t eol = raw.find("\r\n");
  if (eol == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return reply;
  reply.body = raw.substr(split + 4);
  reply.ok = true;
  return reply;
}

// Journal events of one type from a file, via the real reader.
std::vector<obs::JournalEvent> journal_events(const std::string& path,
                                              const std::string& type) {
  obs::JournalReadOptions ropts;
  const obs::JournalReadResult read = obs::read_journal(path, ropts);
  EXPECT_TRUE(read.ok) << read.error;
  std::vector<obs::JournalEvent> out;
  for (const obs::JournalEvent& ev : read.events)
    if (ev.type == type) out.push_back(ev);
  return out;
}

std::string scratch_path(const std::string& leaf) {
  const char* dir = std::getenv("TEST_TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + leaf;
}

// --- wire codec ------------------------------------------------------------

TEST(Wire, Crc32KnownAnswer) {
  // The classic IEEE 802.3 check value.
  const char* msg = "123456789";
  EXPECT_EQ(net::crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(net::crc32(msg, 0), 0u);
}

TEST(Wire, FrameHeaderRoundTrip) {
  const std::string payload = "hello payload";
  const std::string frame =
      net::encode_frame(net::FrameType::kBatch, /*seq=*/0x0123456789abcdefULL,
                        payload);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());
  net::FrameHeader header;
  std::string error;
  ASSERT_TRUE(net::decode_header(
      reinterpret_cast<const std::uint8_t*>(frame.data()), &header, &error))
      << error;
  EXPECT_EQ(header.magic, net::kWireMagic);
  EXPECT_EQ(header.version, net::kWireVersion);
  EXPECT_EQ(header.type, net::FrameType::kBatch);
  EXPECT_EQ(header.flags, 0);
  EXPECT_EQ(header.seq, 0x0123456789abcdefULL);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_EQ(header.payload_crc,
            net::crc32(payload.data(), payload.size()));
}

TEST(Wire, HeaderValidationRejectsEveryDesyncClass) {
  const std::string good = net::encode_frame(net::FrameType::kAck, 7, "x");
  auto reject = [&good](std::size_t offset, std::uint8_t value) {
    std::string bad = good;
    bad[offset] = static_cast<char>(value);
    net::FrameHeader header;
    std::string error;
    const bool ok = net::decode_header(
        reinterpret_cast<const std::uint8_t*>(bad.data()), &header, &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());
  };
  reject(0, 0xFF);   // magic
  reject(4, 0xEE);   // version
  reject(6, 0x00);   // type 0 is not a FrameType
  reject(6, 0x99);   // type out of range
  reject(7, 0x01);   // reserved flags must be zero
  reject(19, 0xFF);  // payload_len top byte: > kMaxPayloadBytes
}

TEST(Wire, BatchPayloadRoundTripIsBitIdentical) {
  core::FragmentBatch batch = make_batch(/*ranks=*/3, /*fragments_per_rank=*/4,
                                         /*salt=*/9);
  // Values chosen to break any codec that goes through text or loses
  // precision: non-representable decimals, denormal-adjacent, negatives.
  {
    core::Fragment f0 = batch.fragments.materialize(0);
    f0.start_time = 0.1;
    f0.end_time = 0.1 + 1.0 / 3.0;
    batch.fragments.set(0, f0);
    core::Fragment f1 = batch.fragments.materialize(1);
    f1.counters[pmu::Counter::kTotIns] = 1e-300;
    batch.fragments.set(1, f1);
    core::Fragment f2 = batch.fragments.materialize(2);
    f2.counters[pmu::Counter::kStallsDram] = -0.0;
    batch.fragments.set(2, f2);
  }
  sim::InvocationInfo info;
  info.rank = 2;
  info.site = 41;
  info.kind = sim::OpKind::kAllreduce;
  info.path = {1, 2, 7};
  batch.new_states.push_back(info);

  const double drain_in = 0.625;
  const std::string payload = net::encode_batch(batch, drain_in);
  core::FragmentBatch decoded;
  double drain_out = 0.0;
  std::string error;
  ASSERT_TRUE(net::decode_batch(payload, &decoded, &drain_out, &error))
      << error;

  EXPECT_EQ(drain_out, drain_in);
  ASSERT_EQ(decoded.fragments.size(), batch.fragments.size());
  ASSERT_EQ(decoded.new_states.size(), batch.new_states.size());
  for (std::size_t i = 0; i < batch.fragments.size(); ++i) {
    const core::Fragment a = batch.fragments.materialize(i);
    const core::Fragment b = decoded.fragments.materialize(i);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    // Bit identity, not numeric equality: -0.0 and NaN payloads must also
    // survive, which == cannot attest.
    EXPECT_EQ(0, std::memcmp(&a.start_time, &b.start_time, sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&a.end_time, &b.end_time, sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&a.counters.values, &b.counters.values,
                             sizeof(a.counters.values)));
  }
  EXPECT_EQ(decoded.new_states[0].rank, info.rank);
  EXPECT_EQ(decoded.new_states[0].site, info.site);
  EXPECT_EQ(decoded.new_states[0].kind, info.kind);
  EXPECT_EQ(decoded.new_states[0].path, info.path);
}

TEST(Wire, HelloAndAckRoundTrip) {
  net::HelloPayload hello;
  hello.tenant = "tenant-α";  // names are bytes, not ASCII
  hello.ranks = 48;
  net::HelloPayload decoded;
  std::string error;
  ASSERT_TRUE(net::decode_hello(net::encode_hello(hello), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.wire_version, net::kWireVersion);
  EXPECT_EQ(decoded.tenant, hello.tenant);
  EXPECT_EQ(decoded.ranks, 48u);
  // Truncated hello is an error, not a partial parse.
  EXPECT_FALSE(net::decode_hello("", &decoded, &error));

  net::AckStatus status = net::AckStatus::kAdmitted;
  ASSERT_TRUE(net::decode_ack(net::encode_ack(net::AckStatus::kShed), &status,
                              &error))
      << error;
  EXPECT_EQ(status, net::AckStatus::kShed);
  EXPECT_FALSE(net::decode_ack("", &status, &error));
}

TEST(Wire, CorruptedBatchPayloadFailsDecode) {
  const core::FragmentBatch batch = make_batch(2, 3, 1);
  std::string payload = net::encode_batch(batch, 0.0);
  payload.resize(payload.size() / 2);  // truncation must not read past end
  core::FragmentBatch decoded;
  double drain = 0.0;
  std::string error;
  EXPECT_FALSE(net::decode_batch(payload, &decoded, &drain, &error));
  EXPECT_FALSE(error.empty());
}

// Regression: fragment times were copied from the wire unchecked, and a
// negative start then indexed before the heat map's row.
TEST(Wire, NegativeOrNonFiniteFragmentTimeFailsDecode) {
  const double bad_times[][2] = {
      {-0.3, 0.1},
      {0.1, -0.2},
      {std::numeric_limits<double>::quiet_NaN(), 0.1},
      {0.1, std::numeric_limits<double>::infinity()},
      {-std::numeric_limits<double>::infinity(), 0.1}};
  for (const auto& times : bad_times) {
    core::FragmentBatch batch = make_batch(2, 3, 1);
    core::Fragment f = batch.fragments.materialize(1);
    f.start_time = times[0];
    f.end_time = times[1];
    batch.fragments.set(1, f);
    core::FragmentBatch decoded;
    double drain = 0.0;
    std::string error;
    EXPECT_FALSE(net::decode_batch(net::encode_batch(batch, 0.0), &decoded,
                                   &drain, &error))
        << times[0] << ", " << times[1];
    EXPECT_EQ(error, "malformed batch payload (fragment time)");
  }
}

// Regression: an end time before the start time decoded, and its negative
// duration became its cluster's baseline minimum for good.
TEST(Wire, FragmentEndingBeforeItStartsFailsDecode) {
  core::FragmentBatch batch = make_batch(2, 3, 1);
  core::Fragment f = batch.fragments.materialize(1);
  f.start_time = 0.3;
  f.end_time = 0.2;
  batch.fragments.set(1, f);
  core::FragmentBatch decoded;
  double drain = 0.0;
  std::string error;
  std::size_t declared = 0;
  EXPECT_FALSE(net::decode_batch(net::encode_batch(batch, 0.0), &decoded,
                                 &drain, &error, &declared));
  EXPECT_EQ(error, "malformed batch payload (fragment time)");
  // The session accounts the refused batch by the count it declared.
  EXPECT_EQ(declared, batch_fragments(batch));
}

// --- TenantSession admission gates -----------------------------------------

net::TenantOptions tenant_options(const std::string& name, int ranks,
                                  obs::ObsContext* ctx) {
  net::TenantOptions topts;
  topts.name = name;
  topts.ranks = ranks;
  topts.server = test_server_options(ctx);
  return topts;
}

// Holds the tenant's analysis worker inside its first window until
// release(), so batches submitted meanwhile queue behind it.
struct WorkerGate {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> entered{false};

  void install(net::TenantOptions& topts) {
    topts.server.window_observer = [this](const core::Stg&,
                                          const core::ClusteringResult&) {
      entered = true;
      opened.wait();
    };
  }
  void wait_until_held() const {
    while (!entered.load()) std::this_thread::yield();
  }
  void release() { gate.set_value(); }
};

TEST(TenantSession, DuplicateSeqIsDedupedNotDoubleCounted) {
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantSession* t =
      plane.add_tenant(tenant_options("a", /*ranks=*/2, nullptr));
  const core::FragmentBatch batch = make_batch(2, 4, 0);

  EXPECT_EQ(t->submit(0, core::FragmentBatch(batch), 0.0),
            net::AckStatus::kAdmitted);
  // A retransmit of an already-applied seq and of a still-queued seq both
  // dedup.
  EXPECT_EQ(t->submit(0, core::FragmentBatch(batch), 0.0),
            net::AckStatus::kDuplicate);
  t->sync();
  EXPECT_EQ(t->submit(0, core::FragmentBatch(batch), 0.0),
            net::AckStatus::kDuplicate);

  const net::TenantStats stats = t->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(t->windows_processed(), 1u);
  EXPECT_EQ(t->fragments_processed(), batch_fragments(batch));
}

TEST(TenantSession, ReorderBufferRestoresSeqOrderBeforeApplication) {
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantSession* t = plane.add_tenant(tenant_options("a", 2, nullptr));

  // seq 1 and 2 arrive before seq 0: buffered, not applied.
  EXPECT_EQ(t->submit(1, make_batch(2, 3, 1), 0.0),
            net::AckStatus::kAdmitted);
  EXPECT_EQ(t->submit(2, make_batch(2, 3, 2), 0.0),
            net::AckStatus::kAdmitted);
  t->sync();
  EXPECT_EQ(t->windows_processed(), 0u) << "applied ahead of the gap";

  // The gap fills: all three apply, in seq order.
  EXPECT_EQ(t->submit(0, make_batch(2, 3, 0), 0.0),
            net::AckStatus::kAdmitted);
  t->sync();
  EXPECT_EQ(t->windows_processed(), 3u);

  const net::TenantStats stats = t->stats();
  EXPECT_EQ(stats.reordered, 2u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.duplicates, 0u);
}

TEST(TenantSession, SeqBeyondReorderWindowIsRejectedAndJournaled) {
  const std::string journal = scratch_path("net_reject_journal.jsonl");
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  ASSERT_TRUE(ctx.attach_journal_file(journal));

  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantOptions topts = tenant_options("a", 2, &ctx);
  topts.reorder_window = 4;
  net::TenantSession* t = plane.add_tenant(std::move(topts));

  const core::FragmentBatch far_batch = make_batch(2, 3, 10);
  EXPECT_EQ(t->submit(10, core::FragmentBatch(far_batch), 0.0),
            net::AckStatus::kRejected);
  ctx.journal()->flush();

  const net::TenantStats stats = t->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 0u);

  const auto drops = journal_events(journal, "net_drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].number("batch_seq", -1), 10.0);
  EXPECT_EQ(drops[0].number("fragments", -1),
            static_cast<double>(batch_fragments(far_batch)));
}

TEST(TenantSession, ShedOldestEvictsJournalsAndFlipsDegraded) {
  const std::string journal = scratch_path("net_shed_journal.jsonl");
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  ASSERT_TRUE(ctx.attach_journal_file(journal));

  WorkerGate held;
  net::PlaneOptions popts;
  popts.obs = &ctx;
  popts.clock = &vclock;
  net::IngestPlane plane(popts);
  net::TenantOptions topts = tenant_options("a", 2, &ctx);
  topts.queue_capacity = 2;
  topts.admission = net::AdmissionPolicy::kShedOldest;
  held.install(topts);
  net::TenantSession* t = plane.add_tenant(std::move(topts));

  // Seq 0 holds the worker; 1 and 2 fill the 2-deep queue behind it, so 3
  // and 4 each evict the oldest queued batch: 1, then 2.
  std::vector<core::FragmentBatch> batches;
  for (std::uint64_t s = 0; s < 5; ++s) batches.push_back(make_batch(2, 3, s));
  std::size_t shed_fragments = 0;
  std::size_t sent_fragments = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    sent_fragments += batch_fragments(batches[s]);
    EXPECT_EQ(t->submit(s, core::FragmentBatch(batches[s]), 0.0),
              net::AckStatus::kAdmitted);
    if (s == 0) held.wait_until_held();
  }
  EXPECT_TRUE(t->degraded());
  EXPECT_TRUE(plane.degraded());

  held.release();
  t->sync();  // analyzes seq 0 and the two survivors
  EXPECT_FALSE(t->degraded()) << "degraded must clear once the queue drains";
  EXPECT_FALSE(plane.degraded());
  ctx.journal()->flush();

  const net::TenantStats stats = t->stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(plane.shed_total(), 2u);
  EXPECT_EQ(t->windows_processed(), 3u);

  // Every shed batch is accounted in the journal, fragment by fragment.
  const auto sheds = journal_events(journal, "shed");
  ASSERT_EQ(sheds.size(), 2u);
  EXPECT_EQ(sheds[0].number("batch_seq", -1), 1.0);
  EXPECT_EQ(sheds[1].number("batch_seq", -1), 2.0);
  for (const obs::JournalEvent& ev : sheds) {
    EXPECT_EQ(ev.str("policy"), "oldest");
    shed_fragments +=
        static_cast<std::size_t>(ev.number("fragments", 0));
  }
  EXPECT_EQ(t->fragments_processed() + shed_fragments, sent_fragments);

  // The plane-level metrics saw the sheds and the degraded transition.
  EXPECT_EQ(ctx.metrics().counter("vapro.net.batches_shed")->value(), 2u);
}

// Regression: a shed batch took its state announcements with it, and the
// next batch on that state aborted the process in Stg::index_fragment.
TEST(TenantSession, ShedOldestStillDeliversTheVictimsStates) {
  WorkerGate held;
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantOptions topts = tenant_options("a", /*ranks=*/2, nullptr);
  topts.queue_capacity = 1;
  topts.admission = net::AdmissionPolicy::kShedOldest;
  held.install(topts);
  net::TenantSession* t = plane.add_tenant(std::move(topts));

  const core::FragmentBatch first = make_batch(2, 3, 0);
  EXPECT_EQ(t->submit(0, core::FragmentBatch(first), 0.0),
            net::AckStatus::kAdmitted);
  held.wait_until_held();
  // Seq 1 announces the state; seq 2 files under it without announcing it
  // and evicts seq 1.
  EXPECT_EQ(t->submit(1, comm_batch(2, 4, 1, /*announce=*/true), 0.0),
            net::AckStatus::kAdmitted);
  const core::FragmentBatch third = comm_batch(2, 4, 2, /*announce=*/false);
  EXPECT_EQ(t->submit(2, core::FragmentBatch(third), 0.0),
            net::AckStatus::kAdmitted);
  held.release();
  t->sync();

  const net::TenantStats stats = t->stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(t->windows_processed(), 2u);
  EXPECT_EQ(t->fragments_processed(),
            batch_fragments(first) + batch_fragments(third));
}

// Wire fields the server cannot analyze are refused in seq order, each
// with a journaled net_drop, and the stream goes on:
//   processed + Σ journaled net_drop fragments == sent.
struct RefusalRun {
  std::size_t sent = 0;
  std::vector<net::AckStatus> acks;
  std::vector<obs::JournalEvent> drops;
  std::size_t processed = 0;
  std::size_t windows = 0;
  net::TenantStats stats;
};

RefusalRun submit_all(const std::string& journal_leaf, int ranks,
                      std::vector<core::FragmentBatch> batches) {
  const std::string journal = scratch_path(journal_leaf);
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  EXPECT_TRUE(ctx.attach_journal_file(journal));
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantSession* t = plane.add_tenant(tenant_options("a", ranks, &ctx));
  RefusalRun run;
  for (std::size_t s = 0; s < batches.size(); ++s) {
    run.sent += batch_fragments(batches[s]);
    run.acks.push_back(t->submit(s, std::move(batches[s]), 0.0));
  }
  t->sync();
  ctx.journal()->flush();
  run.drops = journal_events(journal, "net_drop");
  run.processed = t->fragments_processed();
  run.windows = t->windows_processed();
  run.stats = t->stats();
  return run;
}

void expect_accounted(const RefusalRun& run, const std::string& reason,
                      std::size_t refused) {
  EXPECT_EQ(run.stats.rejected, refused);
  ASSERT_EQ(run.drops.size(), refused);
  std::size_t dropped = 0;
  for (const obs::JournalEvent& ev : run.drops) {
    EXPECT_EQ(ev.str("reason"), reason);
    dropped += static_cast<std::size_t>(ev.number("fragments", 0));
  }
  EXPECT_EQ(run.processed + dropped, run.sent);
}

TEST(TenantSession, FragmentRankOutsideTheTenantIsRefused) {
  std::vector<core::FragmentBatch> batches;
  for (const int bad_rank : {7, -3}) {
    core::FragmentBatch b = make_batch(4, 3, batches.size());
    core::Fragment f = b.fragments.materialize(5);
    f.rank = bad_rank;
    b.fragments.set(5, f);
    batches.push_back(std::move(b));
  }
  batches.push_back(make_batch(4, 3, 2));
  const RefusalRun run =
      submit_all("net_refuse_rank.jsonl", /*ranks=*/4, std::move(batches));
  EXPECT_EQ(run.acks, (std::vector<net::AckStatus>{
                          net::AckStatus::kRejected, net::AckStatus::kRejected,
                          net::AckStatus::kAdmitted}));
  EXPECT_EQ(run.windows, 1u);
  expect_accounted(run, "rank_out_of_range", 2);
}

TEST(TenantSession, FragmentEndingPastTheHeatMapIsRefused) {
  // test_server_options' 0.05 s bins put 1e9 s at bin 2e10, beyond the
  // heat map's 2^30 bins.
  std::vector<core::FragmentBatch> batches;
  core::FragmentBatch far = make_batch(2, 3, 0);
  core::Fragment f = far.fragments.materialize(4);
  f.start_time = 1e9;
  f.end_time = 1e9 + 0.004;
  far.fragments.set(4, f);
  batches.push_back(std::move(far));
  batches.push_back(make_batch(2, 3, 1));
  const RefusalRun run =
      submit_all("net_refuse_time.jsonl", /*ranks=*/2, std::move(batches));
  EXPECT_EQ(run.acks, (std::vector<net::AckStatus>{
                          net::AckStatus::kRejected, net::AckStatus::kAdmitted}));
  EXPECT_EQ(run.windows, 1u);
  expect_accounted(run, "time_out_of_range", 1);
}

// refuse_malformed() takes its seq's turn like any batch: a refusal that
// arrives ahead of a gap waits in the reorder buffer, and the stream goes
// on.
TEST(TenantSession, UndecodableBatchIsRefusedInSeqOrder) {
  const std::string journal = scratch_path("net_refuse_malformed.jsonl");
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  ASSERT_TRUE(ctx.attach_journal_file(journal));
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantSession* t = plane.add_tenant(tenant_options("a", 2, &ctx));

  EXPECT_EQ(t->refuse_malformed(1, 5), net::AckStatus::kRejected);
  EXPECT_EQ(t->refuse_malformed(1, 5), net::AckStatus::kDuplicate);
  t->sync();
  EXPECT_EQ(t->stats().rejected, 0u) << "refused ahead of the gap";
  const core::FragmentBatch first = make_batch(2, 3, 0);
  const core::FragmentBatch third = make_batch(2, 3, 2);
  EXPECT_EQ(t->submit(0, core::FragmentBatch(first), 0.0),
            net::AckStatus::kAdmitted);
  EXPECT_EQ(t->submit(2, core::FragmentBatch(third), 0.0),
            net::AckStatus::kAdmitted);
  t->sync();
  ctx.journal()->flush();

  const net::TenantStats stats = t->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(t->windows_processed(), 2u);
  const auto drops = journal_events(journal, "net_drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].number("batch_seq", -1), 1.0);
  EXPECT_EQ(drops[0].number("fragments", -1), 5.0);
  EXPECT_EQ(drops[0].str("reason"), "malformed_payload");
}

TEST(TenantSession, FragmentOnAnUnannouncedStateIsRefused) {
  std::vector<core::FragmentBatch> batches;
  batches.push_back(comm_batch(2, 4, 0, /*announce=*/false));
  batches.push_back(comm_batch(2, 4, 1, /*announce=*/true));
  batches.push_back(comm_batch(2, 4, 2, /*announce=*/false));
  const RefusalRun run =
      submit_all("net_refuse_state.jsonl", /*ranks=*/2, std::move(batches));
  EXPECT_EQ(run.acks, (std::vector<net::AckStatus>{
                          net::AckStatus::kRejected, net::AckStatus::kAdmitted,
                          net::AckStatus::kAdmitted}));
  EXPECT_EQ(run.windows, 2u);
  expect_accounted(run, "unknown_state", 1);
}

TEST(TenantSession, SyncReturnsOnlyAfterDegradedClears) {
  // sync() runs on a second thread while the worker is held after a shed;
  // the batch that drains the backlog clears `degraded` before it wakes
  // sync().
  WorkerGate held;
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantOptions topts = tenant_options("a", 2, nullptr);
  topts.queue_capacity = 1;
  topts.admission = net::AdmissionPolicy::kShedOldest;
  held.install(topts);
  net::TenantSession* t = plane.add_tenant(std::move(topts));

  EXPECT_EQ(t->submit(0, make_batch(2, 3, 0), 0.0), net::AckStatus::kAdmitted);
  held.wait_until_held();
  for (std::uint64_t s = 1; s < 3; ++s)
    EXPECT_EQ(t->submit(s, make_batch(2, 3, s), 0.0),
              net::AckStatus::kAdmitted);
  EXPECT_TRUE(t->degraded());  // seq 1 was shed for seq 2

  std::atomic<bool> degraded_at_return{true};
  std::thread syncer([&] {
    t->sync();
    degraded_at_return = t->degraded();
  });
  held.release();
  syncer.join();
  EXPECT_FALSE(degraded_at_return.load());
  EXPECT_EQ(t->windows_processed(), 2u);
}

// The session's admission queue is the tenant's only hand-off queue: a
// tenant whose server options ask for a pipeline still analyzes each batch
// on the session's worker, so no server pipeline, and no queue-depth
// gauge, ever appears.
TEST(TenantSession, BackendAnalyzesOnTheSessionsWorker) {
  obs::ObsContext ctx;
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantOptions topts = tenant_options("a", 2, &ctx);
  topts.server.pipeline_depth = 3;
  net::TenantSession* t = plane.add_tenant(std::move(topts));
  for (std::uint64_t s = 0; s < 3; ++s)
    EXPECT_EQ(t->submit(s, make_batch(2, 3, s), 0.0),
              net::AckStatus::kAdmitted);
  t->sync();
  EXPECT_EQ(t->windows_processed(), 3u);
  EXPECT_EQ(ctx.metrics().find_gauge("vapro.pipeline.queue_depth"), nullptr);
}

// --- loopback end-to-end ---------------------------------------------------

TEST(IngestLoopback, SocketFeedMatchesDirectFeedByteForByte) {
  const int ranks = 4;
  const int windows = 6;
  std::vector<core::FragmentBatch> batches;
  for (int w = 0; w < windows; ++w)
    batches.push_back(make_batch(ranks, 8, static_cast<std::uint64_t>(w)));

  // Direct: the same batches straight into an AnalysisServer.
  core::AnalysisServer direct(ranks, test_server_options());
  for (const core::FragmentBatch& b : batches)
    direct.process_window(core::FragmentBatch(b), /*drain_seconds=*/0.0);
  direct.sync();

  // Socket: plane + ingest server + client over loopback.
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantOptions topts;
  topts.name = "t0";
  topts.ranks = ranks;
  topts.server = test_server_options();
  net::TenantSession* tenant = plane.add_tenant(std::move(topts));
  net::IngestServer server(&plane);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;

  net::ClientOptions copts;
  copts.port = server.port();
  copts.tenant = "t0";
  copts.ranks = ranks;
  copts.sleep_fn = [](double) {};
  net::IngestClient client(copts);
  ASSERT_TRUE(client.connect(&error)) << error;
  for (const core::FragmentBatch& b : batches)
    ASSERT_TRUE(client.send_batch(b, /*drain_seconds=*/0.0, &error)) << error;
  ASSERT_TRUE(client.flush(&error)) << error;
  tenant->sync();

  EXPECT_EQ(client.stats().batches_sent, static_cast<std::uint64_t>(windows));
  EXPECT_EQ(client.stats().acks_admitted,
            static_cast<std::uint64_t>(windows));
  EXPECT_EQ(server.batches_received(), static_cast<std::uint64_t>(windows));
  EXPECT_EQ(tenant->windows_processed(), static_cast<std::size_t>(windows));
  EXPECT_EQ(detection_fingerprint(*tenant->server()),
            detection_fingerprint(direct));

  client.close();
  server.stop();
}

// Regression: a batch whose checksum matched but whose payload did not
// decode was nacked, the client resent it until its retries ran out, and
// the stream stalled at its seq: no later batch was analyzed and nothing
// journaled the loss.
TEST(IngestLoopback, UndecodableBatchIsRefusedOnceAndTheStreamGoesOn) {
  const int ranks = 2;
  const std::string journal = scratch_path("net_loopback_malformed.jsonl");
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  ASSERT_TRUE(ctx.attach_journal_file(journal));
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantSession* tenant =
      plane.add_tenant(tenant_options("t0", ranks, &ctx));
  net::IngestServer server(&plane);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;

  net::ClientOptions copts;
  copts.port = server.port();
  copts.tenant = "t0";
  copts.ranks = ranks;
  copts.sleep_fn = [](double) {};
  net::IngestClient client(copts);
  ASSERT_TRUE(client.connect(&error)) << error;

  // Seq 2 carries a fragment that ends before it starts: encode_batch
  // sends it, decode_batch refuses it.
  const int windows = 6;
  const std::uint64_t bad_seq = 2;
  std::size_t sent = 0;
  for (int w = 0; w < windows; ++w) {
    core::FragmentBatch b = make_batch(ranks, 4, static_cast<std::uint64_t>(w));
    if (w == static_cast<int>(bad_seq)) {
      core::Fragment f = b.fragments.materialize(3);
      f.end_time = f.start_time - 0.001;
      b.fragments.set(3, f);
    }
    sent += batch_fragments(b);
    const bool ok = client.send_batch(b, /*drain_seconds=*/0.0, &error);
    EXPECT_EQ(ok, w != static_cast<int>(bad_seq)) << "seq " << w << ": " << error;
  }
  ASSERT_TRUE(client.flush(&error)) << error;
  tenant->sync();
  ctx.journal()->flush();

  EXPECT_EQ(client.stats().retries, 0u) << "a resend cannot mend the payload";
  EXPECT_EQ(client.stats().acks_admitted,
            static_cast<std::uint64_t>(windows - 1));
  EXPECT_EQ(server.protocol_errors(), 1u);
  EXPECT_EQ(tenant->windows_processed(), static_cast<std::size_t>(windows - 1))
      << "the batches behind the refused seq must be analyzed";
  EXPECT_EQ(tenant->stats().rejected, 1u);

  const auto drops = journal_events(journal, "net_drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].number("batch_seq", -1), static_cast<double>(bad_seq));
  EXPECT_EQ(drops[0].str("reason"), "malformed_payload");
  EXPECT_EQ(tenant->fragments_processed() +
                static_cast<std::size_t>(drops[0].number("fragments", 0)),
            sent);

  client.close();
  server.stop();
}

TEST(IngestLoopback, UnknownTenantIsRejectedAtHello) {
  net::IngestPlane plane(net::PlaneOptions{});
  net::TenantOptions topts;
  topts.name = "known";
  topts.ranks = 1;
  topts.server = test_server_options();
  plane.add_tenant(std::move(topts));
  net::IngestServer server(&plane);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;

  net::ClientOptions copts;
  copts.port = server.port();
  copts.tenant = "imposter";
  copts.ranks = 1;
  copts.sleep_fn = [](double) {};
  net::IngestClient client(copts);
  EXPECT_FALSE(client.connect(&error));
  EXPECT_FALSE(error.empty());
  server.stop();
}

// --- /readyz ---------------------------------------------------------------

TEST(Readyz, ReportsReadyThenFlipsTo503WhenDegraded) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  const int port = ctx.exposition()->port();

  // No ingest plane, journal healthy: ready.
  HttpReply ready = http_get(port, "/readyz");
  ASSERT_TRUE(ready.ok);
  EXPECT_EQ(ready.status, 200);
  EXPECT_NE(ready.body.find("\"status\":\"ready\""), std::string::npos);
  EXPECT_NE(ready.body.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(ready.body.find("\"journal_writable\":true"), std::string::npos);

  // The ingest plane starts shedding: a load balancer must see 503 while
  // /healthz (liveness) stays 200 — detection is still running.
  ctx.metrics().gauge("vapro.net.degraded")->set(1.0);
  HttpReply shedding = http_get(port, "/readyz");
  ASSERT_TRUE(shedding.ok);
  EXPECT_EQ(shedding.status, 503);
  EXPECT_NE(shedding.body.find("\"status\":\"not_ready\""),
            std::string::npos);
  EXPECT_NE(shedding.body.find("\"degraded\":true"), std::string::npos);
  HttpReply live = http_get(port, "/healthz");
  ASSERT_TRUE(live.ok);
  EXPECT_EQ(live.status, 200);

  // Recovery: the gauge clears and readiness returns.
  ctx.metrics().gauge("vapro.net.degraded")->set(0.0);
  HttpReply again = http_get(port, "/readyz");
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.status, 200);
}

TEST(Readyz, AdmissionSaturationIs503) {
  obs::ObsContext ctx;
  ASSERT_NE(ctx.start_exposition(0), nullptr);
  const int port = ctx.exposition()->port();
  ctx.metrics().gauge("vapro.net.queue_capacity")->set(8.0);
  ctx.metrics().gauge("vapro.net.queue_depth")->set(8.0);
  HttpReply saturated = http_get(port, "/readyz");
  ASSERT_TRUE(saturated.ok);
  EXPECT_EQ(saturated.status, 503);
  EXPECT_NE(saturated.body.find("\"admission_saturated\":true"),
            std::string::npos);
  ctx.metrics().gauge("vapro.net.queue_depth")->set(3.0);
  HttpReply ok = http_get(port, "/readyz");
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.status, 200);
}

// --- fault sites -----------------------------------------------------------

#if defined(VAPRO_FAULT_INJECTION) && VAPRO_FAULT_INJECTION

testing::FaultPlan net_plan(const std::string& text) {
  testing::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(testing::FaultPlan::parse(text, &plan, &error)) << error;
  return plan;
}

// One loopback rig per fault test: plane + tenant + server + client, with
// the journal captured so shed accounting can be asserted.
struct LoopbackRig {
  util::VirtualClock vclock;
  obs::ObsContext ctx;
  std::string journal_path;
  net::IngestPlane plane;
  net::TenantSession* tenant = nullptr;
  net::IngestServer server;
  std::unique_ptr<net::IngestClient> client;

  explicit LoopbackRig(const std::string& journal_leaf, int ranks = 2)
      : plane([this] {
          net::PlaneOptions p;
          p.obs = &ctx;
          p.clock = &vclock;
          return p;
        }()),
        server(&plane) {
    ctx.set_clock(&vclock);
    journal_path = scratch_path(journal_leaf);
    EXPECT_TRUE(ctx.attach_journal_file(journal_path));
    net::TenantOptions topts;
    topts.name = "t0";
    topts.ranks = ranks;
    topts.server = test_server_options(&ctx, &vclock);
    topts.admission = net::AdmissionPolicy::kShedOldest;
    tenant = plane.add_tenant(std::move(topts));
    std::string error;
    EXPECT_TRUE(server.start(0, &error)) << error;
    net::ClientOptions copts;
    copts.port = server.port();
    copts.tenant = "t0";
    copts.ranks = static_cast<std::uint32_t>(ranks);
    copts.sleep_fn = [](double) {};  // retries never really sleep
    client = std::make_unique<net::IngestClient>(copts);
    EXPECT_TRUE(client->connect(&error)) << error;
  }
};

TEST(NetFault, TornFrameIsNackedAndRetransmitted) {
  LoopbackRig rig("net_fault_torn.jsonl");
  testing::FaultScope scope(net_plan("seed 1\nnet.frame_torn on=1 fail\n"));
  const core::FragmentBatch batch = make_batch(2, 4, 0);
  std::string error;
  ASSERT_TRUE(rig.client->send_batch(batch, 0.0, &error)) << error;
  rig.tenant->sync();

  EXPECT_EQ(rig.server.frames_torn(), 1u);
  EXPECT_GE(rig.client->stats().retries, 1u);
  EXPECT_EQ(rig.client->stats().acks_admitted, 1u);
  // Exactly once applied despite the retransmit.
  EXPECT_EQ(rig.tenant->windows_processed(), 1u);
  EXPECT_EQ(rig.tenant->fragments_processed(), batch_fragments(batch));
}

TEST(NetFault, ConnResetAfterAdmissionDedupsOnReconnect) {
  LoopbackRig rig("net_fault_reset.jsonl");
  testing::FaultScope scope(net_plan("seed 1\nnet.conn_reset on=1 close\n"));
  const core::FragmentBatch batch = make_batch(2, 4, 0);
  std::string error;
  // The batch is admitted, then the connection dies before the ack: the
  // client reconnects and retransmits, and the session dedups.
  ASSERT_TRUE(rig.client->send_batch(batch, 0.0, &error)) << error;
  rig.tenant->sync();

  EXPECT_GE(rig.client->stats().reconnects, 1u);
  EXPECT_EQ(rig.server.conn_resets(), 1u);
  const net::TenantStats stats = rig.tenant->stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.duplicates, 1u) << "retransmit must dedup, not re-admit";
  EXPECT_EQ(rig.tenant->fragments_processed(), batch_fragments(batch));
}

TEST(NetFault, DuplicateSendIsDedupedByTheSession) {
  LoopbackRig rig("net_fault_dup.jsonl");
  testing::FaultScope scope(net_plan("seed 1\nnet.dup_batch on=1 fail\n"));
  const core::FragmentBatch batch = make_batch(2, 4, 0);
  std::string error;
  ASSERT_TRUE(rig.client->send_batch(batch, 0.0, &error)) << error;
  ASSERT_TRUE(rig.client->flush(&error)) << error;
  rig.tenant->sync();

  EXPECT_EQ(rig.client->stats().dup_batches_sent, 1u);
  const net::TenantStats stats = rig.tenant->stats();
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(rig.tenant->fragments_processed(), batch_fragments(batch));
}

TEST(NetFault, ReorderedSendIsHealedByTheReorderBuffer) {
  LoopbackRig rig("net_fault_reorder.jsonl");
  testing::FaultScope scope(net_plan("seed 1\nnet.reorder on=1 fail\n"));
  std::string error;
  // Frame 0 is held back and delivered after frame 1.
  ASSERT_TRUE(rig.client->send_batch(make_batch(2, 4, 0), 0.0, &error))
      << error;
  ASSERT_TRUE(rig.client->send_batch(make_batch(2, 4, 1), 0.0, &error))
      << error;
  ASSERT_TRUE(rig.client->flush(&error)) << error;
  rig.tenant->sync();

  EXPECT_EQ(rig.client->stats().reordered_sends, 1u);
  const net::TenantStats stats = rig.tenant->stats();
  EXPECT_EQ(stats.reordered, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(rig.tenant->windows_processed(), 2u);
}

TEST(NetFault, SlowPeerShedsWithJournaledAccounting) {
  LoopbackRig rig("net_fault_slow.jsonl");
  testing::FaultScope scope(net_plan("seed 1\nnet.slow_peer on=1 fail\n"));
  const core::FragmentBatch shed_batch = make_batch(2, 4, 0);
  const core::FragmentBatch kept_batch = make_batch(2, 4, 1);
  std::string error;
  // Batch 0 is shed at admission; batch 1 sails through.
  ASSERT_TRUE(rig.client->send_batch(shed_batch, 0.0, &error)) << error;
  ASSERT_TRUE(rig.client->send_batch(kept_batch, 0.0, &error)) << error;
  rig.tenant->sync();
  rig.ctx.journal()->flush();

  EXPECT_EQ(rig.client->stats().acks_shed, 1u);
  const net::TenantStats stats = rig.tenant->stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  // Detection kept running on what was admitted; the shed fragments are
  // accounted in the journal, not silently lost.
  EXPECT_EQ(rig.tenant->windows_processed(), 1u);
  EXPECT_EQ(rig.tenant->fragments_processed(), batch_fragments(kept_batch));
  const auto sheds = journal_events(rig.journal_path, "shed");
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds[0].number("batch_seq", -1), 0.0);
  EXPECT_EQ(sheds[0].number("fragments", -1),
            static_cast<double>(batch_fragments(shed_batch)));
  EXPECT_EQ(sheds[0].str("policy"), "forced");
  EXPECT_FALSE(rig.tenant->degraded())
      << "degraded clears once the queue drains";
}

// A journal sink stopped by a torn write makes the instance not ready,
// whether it writes one file (--journal-out) or a segment directory
// (--journal-dir).
TEST(Readyz, StoppedJournalSinkIs503ForFileAndSegmentDirectory) {
  for (const bool segmented : {false, true}) {
    SCOPED_TRACE(segmented ? "segment directory" : "single file");
    obs::ObsContext ctx;
    const std::string target =
        scratch_path(segmented ? "readyz_journal_dir" : "readyz_journal.jsonl");
    std::filesystem::remove_all(target);
    if (segmented) {
      obs::SegmentOptions seg;
      seg.directory = target;
      ASSERT_TRUE(ctx.attach_journal_file(seg));
    } else {
      ASSERT_TRUE(ctx.attach_journal_file(target));
    }
    ASSERT_NE(ctx.start_exposition(0), nullptr);
    const int port = ctx.exposition()->port();
    EXPECT_EQ(http_get(port, "/readyz").status, 200);

    {
      testing::FaultScope scope(
          net_plan("seed 1\njournal.write on=1 short_write\n"));
      ctx.journal()->emit("window", 0, 0.1, {});
    }
    HttpReply stopped = http_get(port, "/readyz");
    ASSERT_TRUE(stopped.ok);
    EXPECT_EQ(stopped.status, 503);
    EXPECT_NE(stopped.body.find("\"journal_writable\":false"),
              std::string::npos)
        << stopped.body;
  }
}

#endif  // VAPRO_FAULT_INJECTION

}  // namespace
}  // namespace vapro
