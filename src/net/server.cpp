#include "src/net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/testing/fault.hpp"
#include "src/util/socket.hpp"

namespace vapro::net {

bool IngestServer::start(int port, std::string* error) {
  if (running()) {
    if (error) *error = "ingest server already running";
    return false;
  }
  util::ignore_sigpipe();
  const int fd = util::listen_loopback(port, 64, &port_, error);
  if (fd < 0) return false;
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void IngestServer::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_relaxed);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Force every blocked recv to return so the reader threads exit.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) t.join();
  listen_fd_ = -1;
}

void IngestServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR) continue;
      break;  // listen socket is gone
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

bool IngestServer::reply(int fd, FrameType type, std::uint64_t seq,
                         const std::string& payload) {
  const std::string frame = encode_frame(type, seq, payload);
  if (!util::send_all(fd, frame.data(), frame.size())) {
    send_drops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void IngestServer::handle_connection(int fd) {
  TenantSession* session = nullptr;
  for (;;) {
    std::uint8_t header_bytes[kFrameHeaderBytes];
    if (!util::recv_all(fd, header_bytes, sizeof(header_bytes))) break;
    FrameHeader header;
    std::string error;
    if (!decode_header(header_bytes, &header, &error)) {
      // Desynced stream: no way to find the next frame boundary — drop the
      // connection and let the client reconnect from a clean slate.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    std::string payload(header.payload_len, '\0');
    if (header.payload_len > 0 &&
        !util::recv_all(fd, payload.data(), payload.size()))
      break;
    if (header.type == FrameType::kBatch) {
      // A torn frame: the payload that arrived is not the payload that was
      // sent.  Corrupting one byte AFTER the read keeps the stream aligned
      // (we consumed exactly payload_len bytes) while making the CRC check
      // fail exactly as line noise would.
      switch (VAPRO_FAULT("net.frame_torn")) {
        case testing::FaultAction::kNone:
          break;
        default:
          if (!payload.empty()) payload[0] = static_cast<char>(payload[0] ^ 0xff);
          else header.payload_crc ^= 0xffffffffu;
          break;
      }
    }
    if (crc32(payload.data(), payload.size()) != header.payload_crc) {
      frames_torn_.fetch_add(1, std::memory_order_relaxed);
      // Recoverable: the stream is still frame-aligned, so ask for a
      // retransmit of exactly this seq.
      if (!reply(fd, FrameType::kNack, header.seq, std::string())) break;
      continue;
    }
    if (header.type == FrameType::kBye) break;
    if (header.type == FrameType::kHello) {
      HelloPayload hello;
      if (!decode_hello(payload, &hello, &error) ||
          hello.wire_version != kWireVersion) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        reply(fd, FrameType::kAck, header.seq,
              encode_ack(AckStatus::kRejected));
        break;
      }
      session = plane_->find(hello.tenant);
      if (!session) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        reply(fd, FrameType::kAck, header.seq,
              encode_ack(AckStatus::kRejected));
        break;
      }
      if (!reply(fd, FrameType::kAck, header.seq,
                 encode_ack(AckStatus::kAdmitted)))
        break;
      continue;
    }
    if (header.type != FrameType::kBatch || !session) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    core::FragmentBatch batch;
    double drain_seconds = 0.0;
    std::size_t declared_fragments = 0;
    AckStatus status = AckStatus::kRejected;
    if (decode_batch(payload, &batch, &drain_seconds, &error,
                     &declared_fragments)) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      status = session->submit(header.seq, std::move(batch), drain_seconds);
    } else {
      // The CRC matched, so a resend would carry the same bytes: refuse
      // the seq (a journaled net_drop) and let the stream go on past it.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      status = session->refuse_malformed(header.seq, declared_fragments);
    }
    // The idempotency proof: reset AFTER admission, BEFORE the ack.  The
    // client times out / sees EOF, reconnects, retransmits — and the
    // session layer must answer kDuplicate instead of double-counting.
    switch (VAPRO_FAULT("net.conn_reset")) {
      case testing::FaultAction::kNone:
        break;
      default:
        conn_resets_.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
        goto done;
    }
    if (!reply(fd, FrameType::kAck, header.seq, encode_ack(status))) break;
  }
done:
  // Deregister before closing: stop() shutdown()s every fd still in
  // conn_fds_ under the same lock, and a closed fd number may be reused by
  // an unrelated socket immediately.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

}  // namespace vapro::net
