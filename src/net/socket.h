// Thin RAII wrappers over POSIX TCP sockets and epoll, shared by the TCP
// transport backend (net/tcp_transport.h) and its tests. Everything here is
// non-blocking: callers drive readiness through Epoll and retry on
// kWouldBlock. No muppet lock is ever taken at this layer.
#ifndef MUPPET_NET_SOCKET_H_
#define MUPPET_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace muppet {

// Distinguishes "no progress, retry on readiness" from hard errors without
// inventing a Status code: I/O helpers return the byte count, kWouldBlock,
// or kSocketError (inspect errno via the returned Status instead).
constexpr ssize_t kWouldBlock = -2;

// An owned file descriptor. Movable, closes on destruction.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

// Create a non-blocking TCP listener bound to `host`:`port` (port 0 =
// ephemeral). On success *out holds the fd and *bound_port the actual port.
Status TcpListen(const std::string& host, int port, OwnedFd* out,
                 int* bound_port);

// Begin a non-blocking connect to `host`:`port`. Returns OK with the fd in
// *out; the connect may still be in flight — wait for EPOLLOUT and call
// TcpConnectResult to learn the outcome.
Status TcpConnectStart(const std::string& host, int port, OwnedFd* out);

// After EPOLLOUT on a connecting fd: OK if established, error otherwise.
Status TcpConnectResult(int fd);

// Accept one pending connection from a listener; the new fd is set
// non-blocking with TCP_NODELAY. Returns kWouldBlock sentinel via
// out->valid() == false with OK status when no connection is pending.
Status TcpAccept(int listen_fd, OwnedFd* out);

// Non-blocking read into `buf`. Returns bytes read (>0), 0 on orderly peer
// close, kWouldBlock, or -1 on hard error (errno preserved).
ssize_t SocketRead(int fd, void* buf, size_t len);

// Non-blocking write. Returns bytes written (>=0), kWouldBlock, or -1 on
// hard error. Short writes are normal; callers keep their own cursor.
ssize_t SocketWrite(int fd, const void* buf, size_t len);

// Non-blocking gathered write of `n` buffers with one sendmsg(2). Same
// contract as SocketWrite: the count may stop inside any buffer.
ssize_t SocketWritev(int fd, const iovec* iov, int n);

// Level-triggered epoll wrapper.
class Epoll {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  Epoll() = default;

  Status Create();
  Status Add(int fd, bool want_read, bool want_write);
  Status Modify(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  // Wait up to `timeout_millis` (-1 = forever) and append ready events to
  // *events (cleared first). EINTR retries internally.
  Status Wait(int timeout_millis, std::vector<Event>* events);

  bool valid() const { return epfd_.valid(); }

 private:
  OwnedFd epfd_;
};

// An eventfd used to wake the IO thread from other threads.
class WakeupFd {
 public:
  Status Create();
  int fd() const { return fd_.get(); }
  // Wake the epoll loop (async-signal-safe, callable from any thread).
  void Signal();
  // Drain pending wakeups (called by the IO thread on readiness).
  void Drain();

 private:
  OwnedFd fd_;
};

}  // namespace muppet

#endif  // MUPPET_NET_SOCKET_H_
