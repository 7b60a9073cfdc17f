#include "net/tcp.hpp"

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "net/inproc.hpp"

namespace communix::net {
namespace {

/// Echo handler: returns the payload, with the type-dependent behaviour
/// needed by the tests.
class EchoHandler final : public RequestHandler {
 public:
  Response Handle(const Request& request) override {
    Response resp;
    if (request.type == MsgType::kPing) {
      resp.payload = request.payload;
    } else {
      resp.code = ErrorCode::kInvalidArgument;
      resp.error = "echo handler only supports ping";
    }
    calls_.fetch_add(1);
    return resp;
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

TEST(InprocTest, CallInvokesHandler) {
  EchoHandler handler;
  InprocTransport transport(handler);
  Request req;
  req.type = MsgType::kPing;
  req.payload = {5, 6, 7};
  auto result = transport.Call(req);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().ok());
  EXPECT_EQ(result.value().payload, req.payload);
  EXPECT_EQ(handler.calls(), 1);
}

TEST(TcpTest, StartStopLifecycle) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(TcpTest, RequestResponseOverLoopback) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Request req;
  req.type = MsgType::kPing;
  req.payload = {1, 2, 3};
  auto result = client.Call(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().payload, req.payload);
  client.Close();
  server.Stop();
}

TEST(TcpTest, MultipleRequestsOnOneConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 20; ++i) {
    Request req;
    req.type = MsgType::kPing;
    req.payload = {static_cast<std::uint8_t>(i)};
    auto result = client.Call(req);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(handler.calls(), 20);
  server.Stop();
}

TEST(TcpTest, ConcurrentClients) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  constexpr int kCallsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        Request req;
        req.type = MsgType::kPing;
        req.payload = {static_cast<std::uint8_t>(c),
                       static_cast<std::uint8_t>(i)};
        auto result = client.Call(req);
        if (!result.ok() || result.value().payload != req.payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handler.calls(), kClients * kCallsEach);
  server.Stop();
}

TEST(TcpTest, CallWithoutConnectFails) {
  TcpClient client;
  Request req;
  auto result = client.Call(req);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kFailedPrecondition);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  TcpClient client;
  // Port 1 on loopback is essentially never listening.
  EXPECT_FALSE(client.Connect("127.0.0.1", 1).ok());
}

TEST(TcpTest, ConnectBadAddressFails) {
  TcpClient client;
  EXPECT_FALSE(client.Connect("not-an-ip", 80).ok());
}

TEST(TcpTest, MalformedRequestGetsErrorResponse) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Send a valid frame whose body is not a valid Request (bad type 0xFF).
  // We reuse the client's socket via a raw frame through the public
  // helpers: craft a Request with a legal type, then corrupt it at the
  // frame level is not exposed; instead send type kIssueId with a short
  // payload: our echo handler rejects non-ping types.
  Request req;
  req.type = MsgType::kIssueId;
  auto result = client.Call(req);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().ok());
  server.Stop();
}

TEST(TcpTest, PipelinedRequestsAnsweredInOrder) {
  // The client sends a burst of frames before reading any reply; the
  // event-loop server must answer all of them, in request order.
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    Request req;
    req.type = MsgType::kPing;
    req.payload = {static_cast<std::uint8_t>(i),
                   static_cast<std::uint8_t>(i >> 8)};
    ASSERT_TRUE(client.Send(req).ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    auto result = client.Receive();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().payload.size(), 2u);
    EXPECT_EQ(result.value().payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(result.value().payload[1], static_cast<std::uint8_t>(i >> 8));
  }
  EXPECT_EQ(handler.calls(), kBurst);
  server.Stop();
}

TEST(TcpTest, MoreConnectionsThanWorkers) {
  // thread-per-connection would need 24 threads here; the server must
  // multiplex 24 concurrent connections over 2 event loops.
  EchoHandler handler;
  TcpServer::Options options;
  options.worker_threads = 2;
  TcpServer server(handler, options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.worker_threads(), 2u);

  constexpr int kClients = 24;
  constexpr int kCallsEach = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        Request req;
        req.type = MsgType::kPing;
        req.payload = {static_cast<std::uint8_t>(c),
                       static_cast<std::uint8_t>(i)};
        auto result = client.Call(req);
        if (!result.ok() || result.value().payload != req.payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handler.calls(), kClients * kCallsEach);
  server.Stop();
}

TEST(TcpTest, StopWithPipelinedBacklogDoesNotWedge) {
  // Stop() while a client still has unanswered pipelined frames in
  // flight: the server must shut down promptly and the client must see
  // its connection die rather than hang.
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 100; ++i) {
    Request req;
    req.type = MsgType::kPing;
    if (!client.Send(req).ok()) break;
  }
  server.Stop();
  // Drain whatever was answered; the tail must end in an error, not a
  // hang (Stop shut the socket down).
  for (int i = 0; i < 101; ++i) {
    if (!client.Receive().ok()) break;
  }
  SUCCEED();
}

TEST(TcpTest, SendWithoutConnectFails) {
  TcpClient client;
  Request req;
  EXPECT_EQ(client.Send(req).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(client.Receive().code(), ErrorCode::kFailedPrecondition);
}

TEST(TcpTest, ServerSurvivesClientDisconnect) {
  EchoHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  {
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    Request req;
    req.type = MsgType::kPing;
    ASSERT_TRUE(client.Call(req).ok());
  }  // client destroyed, connection dropped
  TcpClient client2;
  ASSERT_TRUE(client2.Connect("127.0.0.1", server.port()).ok());
  Request req;
  req.type = MsgType::kPing;
  EXPECT_TRUE(client2.Call(req).ok());
  server.Stop();
}

/// Answers every request with an empty OK reply (a near-empty GET).
class EmptyReplyHandler final : public RequestHandler {
 public:
  Response Handle(const Request&) override { return Response{}; }
};

/// Voluntary context switches of `who` (RUSAGE_SELF or RUSAGE_THREAD).
long VoluntarySwitches(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return ru.ru_nvcsw;
}

TEST(TcpTest, OneServerWakePerSequentialRequest) {
  // A request is served on the loop that saw its socket ready, so the
  // server blocks once per sequential request: in that loop's
  // epoll_wait. Handing the socket to another thread, and back to flush,
  // would cost each request more wakes. Only voluntary switches count:
  // involuntary ones grow with the host's load.
  EmptyReplyHandler handler;
  TcpServer server(handler);
  ASSERT_TRUE(server.Start().ok());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Request get;
  get.type = MsgType::kGetSignatures;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(client.Call(get).ok());

  // Server threads = the process minus this (client) thread.
  constexpr int kRequests = 2000;
  const long before =
      VoluntarySwitches(RUSAGE_SELF) - VoluntarySwitches(RUSAGE_THREAD);
  for (int i = 0; i < kRequests; ++i) {
    auto result = client.Call(get);
    ASSERT_TRUE(result.ok() && result.value().ok());
  }
  const long after =
      VoluntarySwitches(RUSAGE_SELF) - VoluntarySwitches(RUSAGE_THREAD);
  const double per_request =
      static_cast<double>(after - before) / static_cast<double>(kRequests);
  EXPECT_LE(per_request, 1.5)
      << "server threads blocked " << per_request
      << " times per sequential request";
  client.Close();
  server.Stop();
}

/// Holds a ping whose payload starts with 1 for 400 ms before echoing.
class SlowPingHandler final : public RequestHandler {
 public:
  Response Handle(const Request& request) override {
    if (!request.payload.empty() && request.payload[0] == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    Response resp;
    resp.payload = request.payload;
    return resp;
  }
};

TEST(TcpTest, BackToBackConnectionsLandOnDistinctLoops) {
  // A loop runs its handlers inline, so two connections on one loop wait
  // on each other. Placement spreads them: each new connection goes to a
  // loop with the fewest, ties rotating away from the last one placed.
  SlowPingHandler handler;
  TcpServer::Options options;
  options.worker_threads = 2;
  TcpServer server(handler, options);
  ASSERT_TRUE(server.Start().ok());
  Request ping;
  ping.type = MsgType::kPing;
  ping.payload = {2};
  // One connection per loop, then the first one closes: the loops hold
  // 0 and 1 connections.
  TcpClient first, second;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(first.Call(ping).ok());
  ASSERT_TRUE(second.Call(ping).ok());
  first.Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The emptier loop takes `slow`; the tie after it must not put `fast`
  // on the same loop.
  TcpClient slow, fast;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(fast.Connect("127.0.0.1", server.port()).ok());
  Request hold;
  hold.type = MsgType::kPing;
  hold.payload = {1};
  ASSERT_TRUE(slow.Send(hold).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(fast.Call(ping).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(200))
      << "the ping waited behind a request held on its loop";
  ASSERT_TRUE(slow.Receive().ok());
  server.Stop();
}

/// Open descriptors of this process, via /proc/self/fd.
std::size_t CountOpenFds() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  // The directory_iterator itself holds one fd while iterating; it is
  // closed by now, so the count is stable across repeated calls.
  return count;
}

TEST(TcpTest, LifecycleLeaksNoFds) {
  // Warm up lazily-created process state (gtest, stdio, resolver) so the
  // baseline is honest.
  {
    EchoHandler handler;
    TcpServer server(handler);
    ASSERT_TRUE(server.Start().ok());
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    server.Stop();
  }

  const std::size_t before = CountOpenFds();
  for (int round = 0; round < 3; ++round) {
    EchoHandler handler;
    TcpServer server(handler);
    ASSERT_TRUE(server.Start().ok());
    // A mix of cleanly-served, abruptly-dropped, and still-connected
    // clients: every accepted fd must be released by Stop(), whether
    // its connection ended before, during, or because of shutdown.
    std::vector<std::unique_ptr<TcpClient>> open_clients;
    for (int i = 0; i < 4; ++i) {
      auto client = std::make_unique<TcpClient>();
      ASSERT_TRUE(client->Connect("127.0.0.1", server.port()).ok());
      Request req;
      req.type = MsgType::kPing;
      ASSERT_TRUE(client->Call(req).ok());
      if (i % 2 == 0) {
        client->Close();  // dropped before shutdown
      } else {
        open_clients.push_back(std::move(client));  // alive at Stop()
      }
    }
    server.Stop();
    open_clients.clear();  // release the client-side fds before counting
    // listen fd, each loop's epoll fd and eventfd, and every accepted
    // conn fd are gone.
    EXPECT_EQ(CountOpenFds(), before) << "fd leak in lifecycle round "
                                      << round;
  }
  EXPECT_EQ(CountOpenFds(), before);
}

}  // namespace
}  // namespace communix::net
