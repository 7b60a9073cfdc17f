// Figure 3: "The performance of the signature distribution."
//
// Paper setup: the server runs on one machine; 10-200 client threads each
// send 10 "ADD(sig),GET(0)" request sequences. The y-axis is replies per
// second per client thread (20-110 in the paper). Throughput is 1-2
// orders of magnitude below Figure 2 because every GET(0) reply carries
// the entire signature database over the network; with N clients and k
// completed rounds the server ships O(k*N^2) signature bytes.
//
// Reproduction: real TCP over loopback, persistent connections, one
// client thread per paper client thread.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "communix/server.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"
#include "util/stopwatch.hpp"

namespace {

using communix::BinaryReader;
using communix::BinaryWriter;
using communix::CommunixServer;
using communix::Rng;
using communix::Stopwatch;
using communix::UserToken;
using communix::VirtualClock;

constexpr int kSequencesPerClient = 10;

struct Row {
  int clients;
  double replies_per_second_per_client;
  double seconds;
  double megabytes_received;
};

Row RunOnce(int clients) {
  VirtualClock clock;
  CommunixServer::Options opts;
  opts.per_user_daily_limit = 1'000'000;
  CommunixServer server(clock, opts);
  communix::net::TcpServer tcp(server);
  if (!tcp.Start().ok()) {
    std::fprintf(stderr, "failed to start TCP server\n");
    std::exit(1);
  }

  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));

  Stopwatch watch;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      communix::net::TcpClient client;
      if (!client.Connect("127.0.0.1", tcp.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(0xF16'3 + static_cast<std::uint64_t>(c));
      const UserToken token =
          server.IssueToken(static_cast<communix::UserId>(c + 1));
      for (int i = 0; i < kSequencesPerClient; ++i) {
        // ADD(sig)
        BinaryWriter w;
        w.WriteRaw(std::span<const std::uint8_t>(token.data(), token.size()));
        communix::bench::RandomSignature(
            rng, static_cast<std::uint32_t>(c * 1'000 + i + 1))
            .Serialize(w);
        communix::net::Request add;
        add.type = communix::net::MsgType::kAddSignature;
        add.payload = w.take();
        if (auto r = client.Call(add); !r.ok()) {
          failures.fetch_add(1);
          return;
        }
        // GET(0): the server ships its whole database back.
        communix::net::Request get;
        get.type = communix::net::MsgType::kGetSignatures;
        BinaryWriter gw;
        gw.WriteU64(0);
        get.payload = gw.take();
        auto r = client.Call(get);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        bytes_received.fetch_add(r.value().payload.size(),
                                 std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = watch.ElapsedSeconds();
  tcp.Stop();

  Row row;
  row.clients = clients;
  row.seconds = seconds;
  // Replies per second per client thread (each sequence = 2 replies).
  row.replies_per_second_per_client =
      (2.0 * kSequencesPerClient) / seconds;
  row.megabytes_received =
      static_cast<double>(bytes_received.load()) / (1024.0 * 1024.0);
  if (failures.load() > 0) {
    std::fprintf(stderr, "WARNING: %d client failures\n", failures.load());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (communix::bench::FlagIs(argv[i], "--smoke")) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  communix::bench::PrintHeader(
      "Figure 3: end-to-end signature distribution over TCP "
      "(10 ADD,GET(0) sequences per client)");
  std::printf("%8s %26s %10s %14s\n", "clients", "replies/sec per client",
              "seconds", "MB received");
  const std::vector<int> sweep =
      smoke ? std::vector<int>{10, 20}
            : std::vector<int>{10, 20, 30, 40, 50, 75, 100, 200};
  for (int clients : sweep) {
    const Row row = RunOnce(clients);
    std::printf("%8d %26.1f %10.3f %14.2f\n", row.clients,
                row.replies_per_second_per_client, row.seconds,
                row.megabytes_received);
  }
  std::printf(
      "\npaper: 20-110 replies/sec per client thread; scales to ~30 client\n"
      "threads, then the quadratically-growing GET(0) payload dominates —\n"
      "throughput 1-2 orders of magnitude below Figure 2.\n");
  return 0;
}
