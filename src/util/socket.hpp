// Shared POSIX-socket hygiene for every socket-owning component (the
// exposition HTTP server, the net ingest plane).
//
// The contract: a peer that disconnects mid-transfer surfaces as a failed
// send/recv — a counted drop the caller handles — never as a
// process-killing SIGPIPE.  Servers call ignore_sigpipe() at start() and
// all writes go through send_all(), which also passes MSG_NOSIGNAL as a
// second line of defense.
#pragma once

#include <cstddef>
#include <string>

namespace vapro::util {

// Installs SIG_IGN for SIGPIPE, once per process.  Idempotent and
// thread-safe; cheap enough to call from every server start().
void ignore_sigpipe();

// Sends the whole buffer (retrying partial writes and EINTR).  False when
// the peer vanished (EPIPE/ECONNRESET/any send failure) — the caller
// counts a drop and abandons the connection.
bool send_all(int fd, const void* data, std::size_t len);

// Reads exactly `len` bytes (retrying partial reads and EINTR).  False on
// EOF, error, or a receive timeout (SO_RCVTIMEO surfaces as EAGAIN).
bool recv_all(int fd, void* data, std::size_t len);

// Opens a TCP listener on 127.0.0.1:`port` (0 picks a free port) with
// SO_REUSEADDR and the given backlog, and sets `*bound_port` to the port
// it got.  Returns the socket, or -1 with `*error` (if given) saying which
// step failed; a port outside [0, 65535] is refused before any socket is
// made, rather than cast to some other port.
int listen_loopback(int port, int backlog, int* bound_port,
                    std::string* error);

}  // namespace vapro::util
