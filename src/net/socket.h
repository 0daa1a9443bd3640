#ifndef DHYFD_NET_SOCKET_H_
#define DHYFD_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dhyfd::net {

/// Thin RAII + error-mapping layer over POSIX sockets. This file and
/// socket.cc are the only places in the tree allowed to touch socket
/// syscalls (tools/analyze/analyze.py `naked-socket` rule): everything
/// above it speaks in Socket/Poller terms, so the fd lifecycle and the
/// EINTR/EAGAIN/SIGPIPE edge cases are handled exactly once.

/// Result of a non-blocking read/write attempt.
enum class IoStatus {
  kOk,         // >= 1 byte moved
  kWouldBlock, // EAGAIN/EWOULDBLOCK: retry after the next poll wakeup
  kClosed,     // orderly EOF (read) — the peer is gone
  kError,      // anything else; the connection should be dropped
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;
};

/// Owns one socket (or pipe) file descriptor; closes it on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  /// Releases ownership without closing.
  int release();

  void set_nonblocking(bool on);
  /// Disables Nagle batching; RPC frames are latency-sensitive.
  void set_tcp_nodelay(bool on);

  /// Non-blocking single read/write attempt. write_some never raises
  /// SIGPIPE (MSG_NOSIGNAL); a broken pipe surfaces as kError.
  IoResult read_some(std::uint8_t* buf, std::size_t len);
  IoResult write_some(const std::uint8_t* buf, std::size_t len);

  /// Blocking helpers for the synchronous client: move exactly `len` bytes
  /// or fail. read_exact returns false on orderly EOF before any byte;
  /// throws std::runtime_error on errors / EOF mid-message.
  bool read_exact(std::uint8_t* buf, std::size_t len);
  void write_all(const std::uint8_t* buf, std::size_t len);
  void write_all(const std::vector<std::uint8_t>& buf) {
    write_all(buf.data(), buf.size());
  }

  /// SO_RCVTIMEO in seconds (0 disables); makes read_exact fail with
  /// "timed out" instead of blocking forever.
  void set_recv_timeout(double seconds);

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (port 0 = ephemeral). Returns the
/// listening socket and stores the actually-bound port in *bound_port.
/// Throws std::runtime_error on failure.
Socket ListenTcp(const std::string& host, std::uint16_t port,
                 int backlog, std::uint16_t* bound_port);

/// Accepts one pending connection; invalid Socket if none is pending.
Socket AcceptOn(Socket& listener);

/// Blocking connect to host:port. Throws std::runtime_error on failure.
Socket ConnectTcp(const std::string& host, std::uint16_t port);

/// Self-pipe used to wake a poll loop from other threads. wake() is safe
/// from any thread and async-signal-safe; drain() runs on the loop thread.
class WakePipe {
 public:
  WakePipe();

  int read_fd() const { return read_end_.fd(); }
  void wake();
  void drain();

 private:
  Socket read_end_;
  Socket write_end_;
};

/// What a Poller reports for one registered fd.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  // POLLERR / POLLHUP / POLLNVAL
};

/// Level-triggered poll(2) wrapper: rebuild the interest list each tick
/// (connection counts are hundreds, not millions — O(n) rebuild is in the
/// noise next to frame handling) and collect ready fds.
class Poller {
 public:
  void clear() { fds_.clear(); }
  void watch(int fd, bool want_read, bool want_write);

  /// Polls with a timeout in milliseconds (-1 = infinite). Returns the
  /// ready events; EINTR yields an empty result rather than an error.
  std::vector<PollEvent> wait(int timeout_ms);

 private:
  struct Interest {
    int fd;
    bool read;
    bool write;
  };
  std::vector<Interest> fds_;
};

}  // namespace dhyfd::net

#endif  // DHYFD_NET_SOCKET_H_
