// IngestServer — the socket front of the ingest plane.
//
// Accepts loopback TCP connections (the exposition server's idiom:
// socket/bind(INADDR_LOOPBACK)/listen, ephemeral port via getsockname,
// stop() by tearing the listen socket down) and speaks the wire protocol
// of wire.hpp: a kHello names the tenant, then kBatch frames stream in and
// each is answered with kAck (carrying the session layer's AckStatus) or
// kNack (CRC mismatch — "resend this seq").  A batch whose CRC matches but
// whose payload does not decode is acked kRejected: the session refuses
// its seq with a journaled net_drop, since a resend cannot mend it.
// Unlike the one-shot HTTP server, connections are long-lived: one reader
// thread per connection loops until kBye, EOF, or a protocol error.
//
// Hazard sites on the receive path:
//   net.frame_torn — the batch payload is corrupted after the read, so the
//     CRC check fails exactly as a torn TCP stream would: the server NACKs
//     and the client retransmits.
//   net.conn_reset — the connection is closed after admission but before
//     the ack, forcing the client down the reconnect + retransmit path;
//     the retransmit must dedup (AckStatus::kDuplicate), proving
//     idempotency end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/session.hpp"
#include "src/net/wire.hpp"

namespace vapro::net {

class IngestServer {
 public:
  explicit IngestServer(IngestPlane* plane) : plane_(plane) {}
  ~IngestServer() { stop(); }
  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept thread.
  bool start(int port, std::string* error = nullptr);
  void stop();

  bool running() const { return listen_fd_ >= 0; }
  int port() const { return port_; }

  // --- counters (relaxed; exact after stop()/sync) ---
  std::uint64_t connections_accepted() const { return accepted_.load(); }
  std::uint64_t frames_torn() const { return frames_torn_.load(); }
  std::uint64_t conn_resets() const { return conn_resets_.load(); }
  std::uint64_t batches_received() const { return batches_.load(); }
  // Replies that failed because the peer vanished mid-send (EPIPE /
  // ECONNRESET) — a counted drop, mirroring ExpositionServer::send_drops.
  std::uint64_t send_drops() const { return send_drops_.load(); }
  std::uint64_t protocol_errors() const { return protocol_errors_.load(); }

 private:
  void accept_loop();
  void handle_connection(int fd);
  // Sends one reply frame; counts a drop on failure.
  bool reply(int fd, FrameType type, std::uint64_t seq,
             const std::string& payload);

  IngestPlane* plane_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;          // open connections (for stop())
  std::vector<std::thread> conn_threads_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> frames_torn_{0};
  std::atomic<std::uint64_t> conn_resets_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> send_drops_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace vapro::net
