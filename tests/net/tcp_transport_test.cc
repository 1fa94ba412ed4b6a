// TCP transport failure arcs over real loopback sockets (DESIGN.md,
// "Transport backends & deployment model"):
//  * peer down at connect time -> sends fail Unavailable immediately
//    (the paper's §4.3 detection-by-failed-send);
//  * peer dies mid-frame -> the half-received frame is never delivered,
//    and the node survives the torn connection;
//  * reconnect with backoff resumes delivery after the peer restarts;
//  * write-queue overflow surfaces as ResourceExhausted backpressure,
//    never as a silent drop;
//  * gathered writes that stop mid-frame still deliver every frame once,
//    in order, and queued frames share socket writes.
#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/socket.h"

namespace muppet {
namespace {

// Reserve a free loopback port: bind port 0, read it back, release. The
// tiny race (another process grabbing it before we re-bind) is acceptable
// in tests.
int ReservePort() {
  OwnedFd fd;
  int port = 0;
  Status s = TcpListen("127.0.0.1", 0, &fd, &port);
  EXPECT_TRUE(s.ok()) << s.message();
  return port;
}

bool WaitUntil(const std::function<bool()>& cond, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// Blocking loopback client used to poke raw bytes at a transport's data
// port (simulating a peer that corrupts the stream or dies mid-frame).
class RawClient {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  bool SendAll(BytesView data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  ~RawClient() { Close(); }

 private:
  int fd_ = -1;
};

struct Node {
  std::unique_ptr<TcpTransport> transport;
  std::atomic<int> received{0};
  Bytes last_payload;  // written only from the IO thread's handler call
  std::atomic<bool> decline{false};
  // Race-free "did a specific payload arrive" probe: set before Start()
  // (never mutated after), counted from the handler.
  Bytes expect_payload;
  std::atomic<int> expect_hits{0};
  // When set before Init(), the batch handler records the u32 sequence
  // number at the front of each accepted payload, in arrival order. Read
  // it only after `received` shows every expected message.
  bool record_order = false;
  std::vector<uint32_t> order;

  void Init(uint32_t node_id, int port, MachineId hosted,
            std::vector<TcpPeerConfig> peers,
            size_t queue_cap = 16u << 20) {
    TcpTransportOptions opts;
    opts.node_id = node_id;
    opts.listen_port = port;
    opts.peers = std::move(peers);
    opts.write_queue_cap_bytes = queue_cap;
    // Short backoff floor keeps the reconnect test fast; the cap still
    // exercises the doubling.
    opts.reconnect_initial_micros = 10 * 1000;
    opts.reconnect_max_micros = 200 * 1000;
    transport = std::make_unique<TcpTransport>(std::move(opts));
    ASSERT_TRUE(transport
                    ->RegisterMachine(hosted,
                                      [this](MachineId, BytesView payload) {
                                        if (decline.load()) {
                                          return Status::ResourceExhausted(
                                              "test decline");
                                        }
                                        last_payload.assign(payload.data(),
                                                            payload.size());
                                        if (!expect_payload.empty() &&
                                            payload == expect_payload) {
                                          expect_hits.fetch_add(1);
                                        }
                                        received.fetch_add(1);
                                        return Status::OK();
                                      })
                    .ok());
    ASSERT_TRUE(transport
                    ->RegisterBatchHandler(
                        hosted,
                        [this](MachineId, BytesView payload, size_t count,
                               size_t* accepted) {
                          if (decline.load()) {
                            *accepted = 0;
                            return Status::ResourceExhausted("test decline");
                          }
                          if (record_order && payload.size() >= 4) {
                            uint32_t seq = 0;
                            std::memcpy(&seq, payload.data(), 4);
                            order.push_back(seq);
                          }
                          *accepted = count;
                          received.fetch_add(static_cast<int>(count));
                          return Status::OK();
                        })
                    .ok());
  }
};

TcpPeerConfig PeerOf(uint32_t node_id, int port, std::vector<MachineId> ms) {
  TcpPeerConfig p;
  p.node_id = node_id;
  p.port = port;
  p.machines = std::move(ms);
  return p;
}

TEST(TcpTransportTest, DeliversAcrossRealSockets) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a, b;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})});
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(a.transport->Start().ok());
  ASSERT_TRUE(b.transport->Start().ok());
  EXPECT_EQ(a.transport->listen_port(), port_a);

  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));
  ASSERT_TRUE(WaitUntil([&] { return b.transport->PeerUp(1); }));

  // Single message.
  ASSERT_TRUE(a.transport->Send(0, 1, "over the wire").ok());
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() == 1; }));
  EXPECT_EQ(b.last_payload, "over the wire");

  // Batch frame: OK means queued with the whole frame accepted.
  size_t accepted = 0;
  ASSERT_TRUE(
      a.transport->SendBatch(0, 1, "opaque batch bytes", 5, &accepted).ok());
  EXPECT_EQ(accepted, 5u);
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() == 6; }));

  // Reverse direction uses b's own dialed connection.
  ASSERT_TRUE(b.transport->Send(1, 0, "echo").ok());
  ASSERT_TRUE(WaitUntil([&] { return a.received.load() == 1; }));

  EXPECT_GE(a.transport->SendAttemptsTo(1), 2);
  EXPECT_GE(a.transport->frames_sent(), 2);
  EXPECT_GT(a.transport->bytes_sent(), 0);

  a.transport->Stop();
  b.transport->Stop();
}

TEST(TcpTransportTest, PeerDownAtConnectFailsSendsImmediately) {
  const int port_a = ReservePort();
  const int dead_port = ReservePort();  // nothing ever listens here
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, dead_port, {1})});
  ASSERT_TRUE(a.transport->Start().ok());

  // The dialer keeps retrying with backoff, but the peer never comes up:
  // every send fails fast with Unavailable — no queueing, no blocking.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    const Status s = a.transport->Send(0, 1, "lost");
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.message();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_FALSE(a.transport->PeerUp(2));
  EXPECT_EQ(a.transport->messages_dropped(), 50);
  EXPECT_EQ(a.transport->SendAttemptsTo(1), 50);
  a.transport->Stop();
}

TEST(TcpTransportTest, PeerDyingMidFrameDeliversNothing) {
  const int port_a = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {});
  ASSERT_TRUE(a.transport->Start().ok());

  WireFrame f;
  f.type = FrameType::kSingle;
  f.from = 5;
  f.to = 0;
  f.count = 1;
  f.payload = "this frame will be truncated";
  const Bytes wire = EncodeFrame(f);

  // HELLO, then half a frame, then die.
  {
    RawClient dying;
    ASSERT_TRUE(dying.Connect(port_a));
    WireFrame hello;
    hello.type = FrameType::kHello;
    hello.from = kInvalidMachine;
    hello.to = kInvalidMachine;
    hello.count = 0;
    hello.payload = EncodeHello(9, {5});
    ASSERT_TRUE(dying.SendAll(EncodeFrame(hello)));
    ASSERT_TRUE(dying.SendAll(BytesView(wire.data(), wire.size() / 2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    dying.Close();  // connection dies mid-frame
  }

  // The truncated frame must never surface.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(a.received.load(), 0);

  // A fresh, well-behaved connection still delivers.
  RawClient healthy;
  ASSERT_TRUE(healthy.Connect(port_a));
  WireFrame hello;
  hello.type = FrameType::kHello;
  hello.from = kInvalidMachine;
  hello.to = kInvalidMachine;
  hello.count = 0;
  hello.payload = EncodeHello(9, {5});
  ASSERT_TRUE(healthy.SendAll(EncodeFrame(hello)));
  ASSERT_TRUE(healthy.SendAll(wire));
  ASSERT_TRUE(WaitUntil([&] { return a.received.load() == 1; }));
  EXPECT_EQ(a.last_payload, f.payload);
  a.transport->Stop();
}

TEST(TcpTransportTest, CorruptStreamTearsConnectionDownWithoutCrashing) {
  const int port_a = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {});
  ASSERT_TRUE(a.transport->Start().ok());

  RawClient evil;
  ASSERT_TRUE(evil.Connect(port_a));
  Bytes junk(1024, '\x5a');
  // The transport closes the connection on the framing error; depending
  // on timing our sends may start failing (EPIPE/RST) — both fine.
  (void)evil.SendAll(junk);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(a.received.load(), 0);

  // Transport is still healthy for well-framed peers.
  RawClient healthy;
  ASSERT_TRUE(healthy.Connect(port_a));
  WireFrame hello;
  hello.type = FrameType::kHello;
  hello.from = kInvalidMachine;
  hello.to = kInvalidMachine;
  hello.count = 0;
  hello.payload = EncodeHello(3, {7});
  WireFrame msg;
  msg.type = FrameType::kSingle;
  msg.from = 7;
  msg.to = 0;
  msg.count = 1;
  msg.payload = "still alive";
  ASSERT_TRUE(healthy.SendAll(EncodeFrame(hello) + EncodeFrame(msg)));
  ASSERT_TRUE(WaitUntil([&] { return a.received.load() == 1; }));
  a.transport->Stop();
}

TEST(TcpTransportTest, ReconnectWithBackoffResumesDelivery) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})});
  ASSERT_TRUE(a.transport->Start().ok());

  // Phase 1: peer up, delivery works.
  Node b;
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(b.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));
  ASSERT_TRUE(a.transport->Send(0, 1, "before the crash").ok());
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() == 1; }));

  // Phase 2: kill the peer. The dialer notices (read error / failed
  // reconnect) and sends start failing — the paper's failed-send
  // detection signal.
  b.transport->Stop();
  ASSERT_TRUE(WaitUntil([&] {
    return !a.transport->PeerUp(2) ||
           !a.transport->Send(0, 1, "probe").ok();
  }));
  ASSERT_TRUE(WaitUntil([&] { return !a.transport->PeerUp(2); }));
  const Status down = a.transport->Send(0, 1, "while down");
  EXPECT_EQ(down.code(), StatusCode::kUnavailable);

  // Phase 3: restart the peer on the same port; the dialer's backoff loop
  // reconnects (capped at 200ms here) and delivery resumes.
  Node b2;
  b2.expect_payload = "after restart";
  b2.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(b2.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));
  ASSERT_TRUE(WaitUntil([&] {
    // The first send may race the handshake flip; retry until accepted.
    return a.transport->Send(0, 1, "after restart").ok();
  }));
  // A "probe" from phase 2 may have been queued before the dialer
  // noticed the crash; retained frames are resent on reconnect by
  // design, so b2 can legitimately see it first. Wait for the payload
  // we actually care about rather than any delivery.
  ASSERT_TRUE(WaitUntil([&] { return b2.expect_hits.load() >= 1; }));

  a.transport->Stop();
  b2.transport->Stop();
}

TEST(TcpTransportTest, WriteQueueOverflowReportsBackpressure) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a, b;
  // Tiny queue cap; receiver declines everything, so frames pile up in
  // the receiver's parked frame + kernel buffers + sender queue.
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})},
         /*queue_cap=*/512 * 1024);
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  b.decline.store(true);
  ASSERT_TRUE(a.transport->Start().ok());
  ASSERT_TRUE(b.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));

  const Bytes big(64 * 1024, 'q');
  bool saw_backpressure = false;
  for (int i = 0; i < 400 && !saw_backpressure; ++i) {
    const Status s = a.transport->Send(0, 1, big);
    if (s.code() == StatusCode::kResourceExhausted) {
      saw_backpressure = true;
    } else {
      ASSERT_TRUE(s.ok()) << s.message();
    }
  }
  ASSERT_TRUE(saw_backpressure)
      << "400 sends against a paused receiver never hit the queue cap";
  EXPECT_GT(a.transport->messages_declined(), 0);

  // Backpressure is not loss: un-pause the receiver and everything queued
  // (including the parked frame) drains.
  const int64_t queued_ok = a.transport->messages_sent();
  b.decline.store(false);
  ASSERT_TRUE(WaitUntil(
      [&] { return b.received.load() >= static_cast<int>(queued_ok); },
      /*timeout_ms=*/20000));
  EXPECT_TRUE(a.transport->FlushOutbound(5 * 1000 * 1000).ok());

  a.transport->Stop();
  b.transport->Stop();
}

// A one-message batch payload: u32 sequence number, then filler.
Bytes SeqPayload(uint32_t seq, size_t size) {
  Bytes payload(size, 'p');
  std::memcpy(payload.data(), &seq, 4);
  return payload;
}

// Starts a sender (node 1, machine 0) and a receiver (node 2, machine 1)
// whose handler declines everything, then enqueues batch frames (frame i
// carries a `size_of(i)`-byte payload) in rounds of `round` frames until a
// 200 ms flush times out. Reads on the receiving connection pause behind
// the declined frame, so once the loopback socket buffers are full the
// tail of the queue waits on EPOLLOUT. How much the kernel absorbs first
// depends on the host's TCP buffer autotuning, so the rounds stop only at
// the sender's 64 MiB queue cap. Sets *frames to the number enqueued.
template <typename SizeOf>
void FillBlockedSocket(Node* a, Node* b, size_t round, SizeOf size_of,
                       size_t* frames) {
  constexpr size_t kQueueCap = 64u << 20;
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  a->Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})}, kQueueCap);
  b->Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  b->decline.store(true);
  ASSERT_TRUE(a->transport->Start().ok());
  ASSERT_TRUE(b->transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a->transport->PeerUp(2); }));
  *frames = 0;
  size_t bytes = 0;  // everything enqueued bounds what is still queued
  bool capped = false;
  Status flushed;
  do {
    for (size_t j = 0; j < round; ++j) {
      const size_t size = size_of(*frames);
      if (bytes + size > kQueueCap) {
        capped = true;
        break;
      }
      size_t accepted = 0;
      ASSERT_TRUE(a->transport
                      ->SendBatch(0, 1,
                                  SeqPayload(static_cast<uint32_t>(*frames),
                                             size),
                                  1, &accepted)
                      .ok());
      bytes += size;
      ++*frames;
    }
    flushed = a->transport->FlushOutbound(200 * 1000);
  } while (flushed.ok() && !capped);
  EXPECT_EQ(flushed.code(), StatusCode::kTimedOut)
      << "the sender's queue drained against a paused receiver";
}

TEST(TcpTransportTest, GatheredWritesSurviveShortWritesInOrder) {
  // 1-7 KB payloads: frame edges never line up with the socket buffer, so
  // gathered writes stop inside a frame and inside an iovec.
  Node a, b;
  b.record_order = true;
  size_t frames = 0;
  FillBlockedSocket(
      &a, &b, /*round=*/4000,
      [](size_t i) { return 1000 + (i * 7919) % 6000; }, &frames);
  ASSERT_FALSE(HasFatalFailure());

  b.decline.store(false);
  const int n = static_cast<int>(frames);
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() >= n; },
                        /*timeout_ms=*/20000));
  EXPECT_TRUE(a.transport->FlushOutbound(5 * 1000 * 1000).ok());
  a.transport->Stop();
  b.transport->Stop();

  EXPECT_EQ(b.received.load(), n);
  ASSERT_EQ(b.order.size(), frames);
  for (size_t i = 0; i < frames; ++i) {
    ASSERT_EQ(b.order[i], static_cast<uint32_t>(i)) << "position " << i;
  }
  EXPECT_EQ(a.transport->messages_dropped(), 0);
  EXPECT_EQ(b.transport->messages_dropped(), 0);
}

TEST(TcpTransportTest, QueuedFramesShareSocketWrites) {
  Node a, b;
  size_t frames = 0;
  FillBlockedSocket(
      &a, &b, /*round=*/20000, [](size_t) { return size_t{1000}; }, &frames);
  ASSERT_FALSE(HasFatalFailure());
  // Frames queued behind a non-empty queue owe no wakeup of their own.
  EXPECT_LT(a.transport->io_wakeups(), a.transport->frames_sent());

  b.decline.store(false);
  const int n = static_cast<int>(frames);
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() >= n; },
                        /*timeout_ms=*/20000));
  EXPECT_TRUE(a.transport->FlushOutbound(5 * 1000 * 1000).ok());
  EXPECT_EQ(a.transport->frames_sent(), n);
  EXPECT_GT(a.transport->socket_writes(), 0);
  EXPECT_LT(a.transport->socket_writes(), a.transport->frames_sent());
  a.transport->Stop();
  b.transport->Stop();
}

TEST(TcpTransportTest, CrashedLocalMachineRejectsSends) {
  const int port_a = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {});
  ASSERT_TRUE(a.transport->Start().ok());
  ASSERT_TRUE(a.transport->Send(0, 0, "local fast path").ok());
  EXPECT_EQ(a.received.load(), 1);
  EXPECT_EQ(a.transport->messages_local(), 1);

  a.transport->Crash(0);
  EXPECT_FALSE(a.transport->IsUp(0));
  EXPECT_EQ(a.transport->Send(0, 0, "dead").code(),
            StatusCode::kUnavailable);
  a.transport->Restore(0);
  EXPECT_TRUE(a.transport->IsUp(0));
  ASSERT_TRUE(a.transport->Send(0, 0, "revived").ok());
  EXPECT_EQ(a.received.load(), 2);
  a.transport->Stop();
}

TEST(TcpTransportTest, MachinesListsLocalAndRemote) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1, 2})});
  EXPECT_EQ(a.transport->Machines(), (std::vector<MachineId>{0, 1, 2}));
  EXPECT_TRUE(a.transport->IsUp(0));
  // Remote machines are "up" only once their peer's connection is.
  EXPECT_FALSE(a.transport->IsUp(1));
}

}  // namespace
}  // namespace muppet
