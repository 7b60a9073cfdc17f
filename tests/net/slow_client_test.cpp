// Slow-client containment: one pathological reader draining its replies
// a byte at a time must not pin the event loop, must not queue
// unbounded reply bytes, and must be disconnected at the stall deadline
// — while healthy clients on the same (single-loop!) server keep
// getting flat-latency replies. This is the socket-level analogue of
// the Dimmunix yield: one bad participant cannot starve the rest.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/tcp.hpp"

namespace communix::net {
namespace {

/// Must exceed what the kernel can absorb (tcp_wmem max + tcp_rmem max,
/// 4 MiB each here) by a wide margin, or the flush could swallow the
/// whole reply and the stall would never engage.
constexpr std::size_t kBigReplyBytes = 32u * 1024u * 1024u;
constexpr std::size_t kQueueCap = 1u * 1024u * 1024u;
constexpr int kStallDeadlineMs = 300;

/// kGetSignatures → one 32 MiB reply served as a shared zero-copy
/// segment (one buffer for every request, like the server's replies out
/// of its log arena); anything else → empty reply.
class BigReplyHandler final : public RequestHandler {
 public:
  BigReplyHandler()
      : big_(std::make_shared<const std::vector<std::uint8_t>>(
            kBigReplyBytes, 0xAB)) {}

  Response Handle(const Request& request) override {
    Response resp;
    if (request.type == MsgType::kGetSignatures) {
      resp.segments.push_back(ByteRun::Of(big_));
    }
    return resp;
  }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> big_;
};

class RawSocket {
 public:
  bool Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  void Send(const void* data, std::size_t len) {
    (void)::send(fd_, data, len, MSG_NOSIGNAL);
  }
  /// Drains exactly one byte (the pathological reader's read step).
  /// Returns false once the peer has closed or reset the connection.
  bool ReadOneByte() {
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 1;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

TEST(SlowClientTest, OneByteReaderIsContainedAndDisconnected) {
  using clock = std::chrono::steady_clock;
  BigReplyHandler handler;
  TcpServer::Options opts;
  opts.worker_threads = 1;  // containment must not rely on spare loops
  opts.max_outbound_bytes = kQueueCap;
  opts.stall_deadline_ms = kStallDeadlineMs;
  TcpServer server(handler, opts);
  ASSERT_TRUE(server.Start().ok());

  // The slow reader asks for two 32 MiB replies and then drains one byte
  // at a time — far past the 1 MiB queue cap, and 1 byte/poll can never
  // drain back under it, so partial progress must NOT extend the
  // deadline.
  RawSocket slow;
  ASSERT_TRUE(slow.Connect(server.port()));
  Request get;
  get.type = MsgType::kGetSignatures;
  const auto get_bytes = get.Serialize();
  std::vector<std::uint8_t> frames;
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t len = static_cast<std::uint32_t>(get_bytes.size());
    for (int b = 0; b < 4; ++b) {
      frames.push_back(static_cast<std::uint8_t>(len >> (b * 8)));
    }
    frames.insert(frames.end(), get_bytes.begin(), get_bytes.end());
  }
  slow.Send(frames.data(), frames.size());

  // Healthy clients keep polling the same single-loop server the whole
  // time the slow socket is stalled, on the loop that also serves it.
  // Every ping must round-trip — with a blocking reply write, the loop
  // would sit inside send() on the stalled socket and these would hang
  // for the full I/O timeout.
  const auto t0 = clock::now();
  constexpr int kHealthyClients = 4;
  constexpr int kPingsPerClient = 10;
  std::vector<std::thread> healthy;
  std::atomic<int> ping_failures{0};
  std::atomic<std::int64_t> worst_ping_ms{0};
  for (int i = 0; i < kHealthyClients; ++i) {
    healthy.emplace_back([&] {
      TcpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ping_failures.fetch_add(kPingsPerClient);
        return;
      }
      for (int p = 0; p < kPingsPerClient; ++p) {
        const auto start = clock::now();
        Request ping;
        ping.type = MsgType::kPing;
        auto result = client.Call(ping);
        if (!result.ok() || !result.value().ok()) ping_failures.fetch_add(1);
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            clock::now() - start)
                            .count();
        std::int64_t worst = worst_ping_ms.load();
        while (ms > worst && !worst_ping_ms.compare_exchange_weak(worst, ms)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  // Meanwhile the slow reader trickles single bytes until the server
  // cuts it off (counter-gated, so this is deterministic, not a sleep).
  bool disconnected_observed = false;
  while (clock::now() - t0 < std::chrono::seconds(10)) {
    if (!slow.ReadOneByte()) {
      disconnected_observed = true;
      break;
    }
    if (server.GetStats().slow_client_disconnects > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : healthy) t.join();

  const auto stats = server.GetStats();
  EXPECT_EQ(stats.backpressure_stalls, 1u)
      << "the 32 MiB reply crossed the 1 MiB cap exactly once";
  EXPECT_EQ(stats.slow_client_disconnects, 1u)
      << "the stalled connection was cut at the deadline";
  EXPECT_TRUE(disconnected_observed ||
              server.GetStats().slow_client_disconnects == 1u);

  // Queue cap enforcement: intake pauses at the cap, so the queue never
  // holds more than the pre-cap residue plus the one reply that crossed
  // it — the second pipelined GET was never parsed, let alone queued.
  EXPECT_LE(stats.peak_outbound_queue_bytes,
            kQueueCap + kBigReplyBytes + 64u);

  // The loop was never pinned: every healthy poll round-tripped,
  // promptly, throughout the stall window.
  EXPECT_EQ(ping_failures.load(), 0);
  EXPECT_LT(worst_ping_ms.load(), 5000)
      << "healthy-client latency must stay flat while the slow socket "
         "stalls (blocking-write servers park the thread for the full "
         "I/O timeout here)";

  server.Stop();
}

}  // namespace
}  // namespace communix::net
