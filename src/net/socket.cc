#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace muppet {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Status ParseAddr(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  // Numeric IPv4 only: cluster configs name nodes by address, and skipping
  // the resolver keeps connect attempts non-blocking end to end.
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status TcpListen(const std::string& host, int port, OwnedFd* out,
                 int* bound_port) {
  sockaddr_in addr;
  MUPPET_RETURN_IF_ERROR(ParseAddr(host, port, &addr));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) return ErrnoStatus("listen");
  MUPPET_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  if (bound_port != nullptr) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) <
        0) {
      return ErrnoStatus("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  *out = std::move(fd);
  return Status::OK();
}

Status TcpConnectStart(const std::string& host, int port, OwnedFd* out) {
  sockaddr_in addr;
  MUPPET_RETURN_IF_ERROR(ParseAddr(host, port, &addr));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  MUPPET_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    }
  }
  *out = std::move(fd);
  return Status::OK();
}

Status TcpConnectResult(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::Unavailable(std::string("connect: ") +
                               std::strerror(err));
  }
  return Status::OK();
}

Status TcpAccept(int listen_fd, OwnedFd* out) {
  *out = OwnedFd();
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    return ErrnoStatus("accept");
  }
  OwnedFd owned(fd);
  MUPPET_RETURN_IF_ERROR(SetNonBlocking(fd));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out = std::move(owned);
  return Status::OK();
}

ssize_t SocketRead(int fd, void* buf, size_t len) {
  while (true) {
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

ssize_t SocketWrite(int fd, const void* buf, size_t len) {
  while (true) {
    // MSG_NOSIGNAL: a peer that died mid-write must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

ssize_t SocketWritev(int fd, const iovec* iov, int n) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(n);
  while (true) {
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent >= 0) return sent;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

Status Epoll::Create() {
  epfd_ = OwnedFd(::epoll_create1(0));
  if (!epfd_.valid()) return ErrnoStatus("epoll_create1");
  return Status::OK();
}

namespace {
uint32_t EpollMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}
}  // namespace

Status Epoll::Add(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(ADD)");
  }
  return Status::OK();
}

Status Epoll::Modify(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(MOD)");
  }
  return Status::OK();
}

void Epoll::Remove(int fd) {
  ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

Status Epoll::Wait(int timeout_millis, std::vector<Event>* events) {
  events->clear();
  epoll_event raw[64];
  int n;
  do {
    n = ::epoll_wait(epfd_.get(), raw, 64, timeout_millis);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return ErrnoStatus("epoll_wait");
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = raw[i].data.fd;
    e.readable = (raw[i].events & EPOLLIN) != 0;
    e.writable = (raw[i].events & EPOLLOUT) != 0;
    e.error = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(e);
  }
  return Status::OK();
}

Status WakeupFd::Create() {
  fd_ = OwnedFd(::eventfd(0, EFD_NONBLOCK));
  if (!fd_.valid()) return ErrnoStatus("eventfd");
  return Status::OK();
}

void WakeupFd::Signal() {
  const uint64_t one = 1;
  // A full eventfd counter still wakes the reader; ignore the result.
  (void)!::write(fd_.get(), &one, sizeof(one));
}

void WakeupFd::Drain() {
  uint64_t value;
  (void)!::read(fd_.get(), &value, sizeof(value));
}

}  // namespace muppet
