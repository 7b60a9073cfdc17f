// Hostile framing on the buffered non-blocking path: partial-frame
// reassembly from a 1-byte request trickle, every possible reply
// truncation as seen by TcpClient::Receive, and pipelined bursts whose
// replies must coalesce into a handful of gather flushes while staying
// in request order.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "obs/trace.hpp"

namespace communix::net {
namespace {

/// Replies with the request's own payload (lets tests pin reply order).
class EchoHandler final : public RequestHandler {
 public:
  Response Handle(const Request& request) override {
    Response resp;
    resp.payload = request.payload;
    return resp;
  }
};

class RawSocket {
 public:
  /// `rcvbuf` > 0 shrinks the receive buffer before connecting, so the
  /// peer's writes stall on a small window.
  bool Connect(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  bool Send(const void* data, std::size_t len) {
    return ::send(fd_, data, len, MSG_NOSIGNAL) ==
           static_cast<ssize_t>(len);
  }
  bool ReadExact(std::uint8_t* out, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
      const ssize_t n = ::recv(fd_, out + got, len - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> FrameFor(const Request& req) {
  const auto body = req.Serialize();
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + body.size());
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  for (int b = 0; b < 4; ++b) {
    frame.push_back(static_cast<std::uint8_t>(len >> (b * 8)));
  }
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Request EchoRequest(std::uint8_t tag) {
  Request req;
  req.type = MsgType::kPing;
  req.payload = {tag, 0x5A, tag};
  return req;
}

// ---------------------------------------------------------------------------
// 1-byte request trickle: the server's inbuf must reassemble frames that
// arrive one byte per segment, across several back-to-back requests.
// ---------------------------------------------------------------------------
TEST(FramingTest, OneByteRequestTrickleReassembles) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());

  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  for (std::uint8_t round = 0; round < 3; ++round) {
    const auto frame = FrameFor(EchoRequest(round));
    for (const std::uint8_t byte : frame) {
      ASSERT_TRUE(raw.Send(&byte, 1));
      // A tiny pause defeats Nagle-coalescing enough that most bytes
      // really do arrive as separate readable events.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The reply must come back complete and parseable.
    std::uint8_t header[4];
    ASSERT_TRUE(raw.ReadExact(header, 4));
    std::uint32_t len = 0;
    for (int b = 0; b < 4; ++b) {
      len |= static_cast<std::uint32_t>(header[b]) << (b * 8);
    }
    ASSERT_LE(len, 64u);
    std::vector<std::uint8_t> body(len);
    ASSERT_TRUE(raw.ReadExact(body.data(), len));
    const auto resp = Response::Deserialize(
        std::span<const std::uint8_t>(body.data(), body.size()));
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->ok());
    EXPECT_EQ(resp->payload, (std::vector<std::uint8_t>{round, 0x5A, round}));
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Every-byte reply truncation: for every prefix length of a valid reply
// frame, a server that sends exactly that prefix and closes must surface
// an error (never a hang, never a bogus Response) from Receive().
// ---------------------------------------------------------------------------
TEST(FramingTest, EveryByteReplyTruncationErrorsCleanly) {
  // A hand-rolled one-shot server per truncation point: accept, swallow
  // the request frame, emit `cut` bytes of the canned reply, close.
  Response canned;
  canned.payload = {1, 2, 3, 4, 5, 6, 7};
  const auto reply_body = canned.Serialize();
  std::vector<std::uint8_t> reply_frame;
  const std::uint32_t rlen = static_cast<std::uint32_t>(reply_body.size());
  for (int b = 0; b < 4; ++b) {
    reply_frame.push_back(static_cast<std::uint8_t>(rlen >> (b * 8)));
  }
  reply_frame.insert(reply_frame.end(), reply_body.begin(), reply_body.end());

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 16), 0);
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                          &blen),
            0);
  const std::uint16_t port = ntohs(bound.sin_port);

  for (std::size_t cut = 0; cut < reply_frame.size(); ++cut) {
    std::thread truncating_server([&] {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      ASSERT_GE(conn, 0);
      // Swallow the request frame (header + body).
      std::uint8_t header[4];
      std::size_t got = 0;
      while (got < 4) {
        const ssize_t n = ::recv(conn, header + got, 4 - got, 0);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      std::uint32_t want = 0;
      for (int b = 0; b < 4; ++b) {
        want |= static_cast<std::uint32_t>(header[b]) << (b * 8);
      }
      std::vector<std::uint8_t> sink(want);
      got = 0;
      while (got < want) {
        const ssize_t n = ::recv(conn, sink.data() + got, want - got, 0);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      if (cut > 0) {
        (void)::send(conn, reply_frame.data(), cut, MSG_NOSIGNAL);
      }
      ::close(conn);
    });

    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    Request ping;
    ping.type = MsgType::kPing;
    const auto result = client.Call(ping);
    EXPECT_FALSE(result.ok())
        << "a reply truncated at byte " << cut << "/" << reply_frame.size()
        << " must surface as a transport error";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
    }
    truncating_server.join();
  }
  ::close(listen_fd);

  // Control: the untruncated frame parses fine through the same path.
  const auto parsed = Response::Deserialize(std::span<const std::uint8_t>(
      reply_body.data(), reply_body.size()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, canned.payload);
}

// ---------------------------------------------------------------------------
// One segment per request: a TcpClient writes a frame's length header and
// body together, so the server's first read after the socket turns
// readable returns the whole frame. A header sent on its own (on a
// TCP_NODELAY socket) usually arrives alone and costs the server an extra
// event-loop round per request.
// ---------------------------------------------------------------------------
TEST(FramingTest, ClientRequestReachesServerInOneSegment) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                          &blen),
            0);

  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(bound.sin_port)).ok());
  const int conn = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(conn, 0);

  // About the size of an uploaded signature's ADD.
  Request req;
  req.type = MsgType::kPing;
  req.payload.assign(1200, 0xA5);
  const std::size_t frame_size = FrameFor(req).size();

  // The server side is parked in poll() before each request goes out,
  // as an event loop would be, so it wakes on the first segment.
  constexpr int kRequests = 200;
  std::atomic<int> parked{-1};
  int whole = 0;
  std::thread server([&] {
    std::vector<std::uint8_t> buf(2 * frame_size);
    for (int i = 0; i < kRequests; ++i) {
      parked.store(i);
      pollfd pfd{conn, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) != 1) return;
      const ssize_t first = ::recv(conn, buf.data(), buf.size(), 0);
      if (first <= 0) return;
      std::size_t got = static_cast<std::size_t>(first);
      if (got == frame_size) ++whole;
      while (got < frame_size) {  // drain a split frame before the next
        const ssize_t n = ::recv(conn, buf.data() + got, frame_size - got, 0);
        if (n <= 0) return;
        got += static_cast<std::size_t>(n);
      }
    }
  });
  for (int i = 0; i < kRequests; ++i) {
    while (parked.load() != i) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    ASSERT_TRUE(client.Send(req).ok());
  }
  server.join();
  EXPECT_EQ(whole, kRequests)
      << "every request's first read must return the whole frame";
  ::close(conn);
  ::close(listen_fd);
}

// ---------------------------------------------------------------------------
// Burst coalescing: requests pipelined in ONE send must come back in
// request order, and their replies must leave in a few gather flushes —
// not one syscall per reply.
// ---------------------------------------------------------------------------
TEST(FramingTest, PipelinedBurstRepliesCoalesceInOrder) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());

  constexpr std::uint8_t kBurst = 32;
  std::vector<std::uint8_t> burst;
  for (std::uint8_t i = 0; i < kBurst; ++i) {
    const auto frame = FrameFor(EchoRequest(i));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }

  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  ASSERT_TRUE(raw.Send(burst.data(), burst.size()));

  for (std::uint8_t i = 0; i < kBurst; ++i) {
    std::uint8_t header[4];
    ASSERT_TRUE(raw.ReadExact(header, 4));
    std::uint32_t len = 0;
    for (int b = 0; b < 4; ++b) {
      len |= static_cast<std::uint32_t>(header[b]) << (b * 8);
    }
    ASSERT_LE(len, 64u);
    std::vector<std::uint8_t> body(len);
    ASSERT_TRUE(raw.ReadExact(body.data(), len));
    const auto resp = Response::Deserialize(
        std::span<const std::uint8_t>(body.data(), body.size()));
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->payload, (std::vector<std::uint8_t>{i, 0x5A, i}))
        << "reply " << static_cast<int>(i) << " out of order";
  }

  // The server counts a flush after sendmsg returns, so the client can
  // hold every reply before the count lands; stop the server first.
  server.Stop();
  const auto stats = server.GetStats();
  EXPECT_GE(stats.writev_flushes, 1u);
  EXPECT_LE(stats.writev_flushes, 8u)
      << "32 pipelined replies should coalesce into a few gather "
         "flushes, not one syscall each";
}

// ---------------------------------------------------------------------------
// Many-run replies: a GET reply carries one byte run per log arena
// block, so a large log's reply outgrows one gather write's iovec batch
// (64). A reply of 151 runs — 1-byte runs, runs aliasing the middle of a
// larger buffer, and one run larger than the kernel's socket buffers, so
// the flush resumes mid-run across many partial writes — read one byte
// at a time through a small receive window (in 64 KiB reads inside the
// large run) must arrive byte-identical to Serialize(); its trace must
// complete exactly once, and the queued bytes drain to 0.
// ---------------------------------------------------------------------------
constexpr std::size_t kLargeRunBytes = 6u * 1024u * 1024u;  // > tcp_wmem max
constexpr int kLargeRunAt = 75;

class ManyRunHandler final : public RequestHandler {
 public:
  explicit ManyRunHandler(std::shared_ptr<obs::TraceRing> ring)
      : ring_(std::move(ring)) {
    auto small = std::make_shared<std::vector<std::uint8_t>>(64 * 1024);
    for (std::size_t i = 0; i < small->size(); ++i) {
      (*small)[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    auto large =
        std::make_shared<std::vector<std::uint8_t>>(kLargeRunBytes + 4096);
    for (std::size_t i = 0; i < large->size(); ++i) {
      (*large)[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    for (int i = 0; i <= 150; ++i) {
      if (i == kLargeRunAt) {
        runs_.push_back(ByteRun{large, large->data() + 1234, kLargeRunBytes});
      } else if (i % 3 == 0) {
        runs_.push_back(ByteRun::Of(std::make_shared<
                                    const std::vector<std::uint8_t>>(
            1, static_cast<std::uint8_t>(i))));
      } else {
        const std::size_t offset = 17 + 301 * static_cast<std::size_t>(i);
        const std::size_t size = 100 + 23 * static_cast<std::size_t>(i);
        runs_.push_back(ByteRun{small, small->data() + offset, size});
      }
    }
  }

  /// The reply, minus its trace.
  Response Reply() const {
    Response resp;
    resp.payload = {0xC0, 0xFF, 0xEE};
    resp.segments = runs_;
    return resp;
  }

  Response Handle(const Request&) override {
    Response resp = Reply();
    resp.trace = std::make_shared<obs::PendingTrace>(
        ring_, obs::TraceRecord{}, std::chrono::steady_clock::now());
    return resp;
  }

 private:
  std::shared_ptr<obs::TraceRing> ring_;
  std::vector<ByteRun> runs_;
};

TEST(FramingTest, ManyRunReplyTrickleReadsExactly) {
  auto ring = std::make_shared<obs::TraceRing>();
  ManyRunHandler handler(ring);
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());

  const Response reply = handler.Reply();
  const auto body = reply.Serialize();
  std::vector<std::uint8_t> expected;
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  for (int b = 0; b < 4; ++b) {
    expected.push_back(static_cast<std::uint8_t>(len >> (b * 8)));
  }
  expected.insert(expected.end(), body.begin(), body.end());
  // Where the large run sits in the frame.
  std::size_t large_begin = 4 + reply.SerializeHeader().size();
  for (int i = 0; i < kLargeRunAt; ++i) large_begin += reply.segments[i].size;
  const std::size_t large_end = large_begin + kLargeRunBytes;

  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server.port(), /*rcvbuf=*/4096));
  const auto frame = FrameFor(EchoRequest(1));
  ASSERT_TRUE(raw.Send(frame.data(), frame.size()));
  std::vector<std::uint8_t> got(expected.size());
  for (std::size_t at = 0; at < got.size();) {
    const std::size_t step =
        at >= large_begin && at < large_end
            ? std::min<std::size_t>(64 * 1024, large_end - at)
            : 1;
    ASSERT_TRUE(raw.ReadExact(&got[at], step)) << "short read at byte " << at;
    at += step;
  }
  EXPECT_EQ(got, expected);

  // The flusher finishes its bookkeeping after the kernel takes the last
  // byte, which can be after the reader has it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((ring->pushed() == 0 || server.GetStats().outbound_queue_bytes != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.GetStats().outbound_queue_bytes, 0u);
  ASSERT_EQ(ring->pushed(), 1u);
  EXPECT_GT(ring->Recent(1)[0].stage_ns[static_cast<std::size_t>(
                obs::Stage::kFlush)],
            0u)
      << "the trace completed on the reply's last run";
  EXPECT_GT(server.GetStats().writev_flushes, 3u)
      << "152 chunks take three 64-iovec gather writes; the large run "
         "forces partial writes on top";
  server.Stop();
  EXPECT_EQ(ring->pushed(), 1u) << "the trace completes exactly once";
}

}  // namespace
}  // namespace communix::net
