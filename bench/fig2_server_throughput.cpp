// Figure 2: "The performance of the Communix server."
//
// Paper setup: the server's request-processing routines are invoked from
// 1,000-100,000 simultaneous "ADD(sig),GET(0)" request sequences; the
// y-axis is requests per second. The paper's curve rises to ~9,000 req/s
// around 30k sequences, then degrades toward 100k as the database the
// GET(0) must iterate keeps growing.
//
// Reproduction: we invoke CommunixServer::AddSignature and ::VisitSince
// directly (no sockets), multiplexing N logical sessions over a bounded
// worker pool — 100k OS threads are neither possible nor what the paper
// measures (server computation). Each session performs one ADD of a
// random valid signature followed by one GET(0) that iterates the whole
// database, exactly the paper's worst case.
//
// Knobs:
//   --replicas=N                  read-scaling section: GET(0) scans via
//                                 the failover-aware cluster client over
//                                 a primary + N log-shipping followers,
//                                 vs the same scans against the primary
//                                 alone. On a 1-core host the wall-clock
//                                 ratio is flat; the structural counters
//                                 (GETs per node — the primary serves ~0
//                                 with replicas) are the evidence.
//   --smoke                       tiny sizes (CI)
//   --json=PATH                   trajectory file (default BENCH_fig2.json)
//
// Always-on sections (the read/catch-up performance tier):
//   replay     time for a fresh follower to catch up by kReplBatch
//              replay over loopback TCP, at 3,000 and 20,000 entries
//              (median/min/max of 3 runs, in smoke mode too)
//   scan_cost  pure GET(0) scan throughput at a fixed db size —
//              isolates the scan term of the sweep's sequences
//   net        repeat GET polls over the real TCP server: zero-copy
//              reply accounting (reply_bytes_shared vs _copied) and
//              gather-flush counters from the non-blocking reply path
//   serve_cost near-empty GETs over loopback, sequential and pipelined
//              16 deep: the server's voluntary context switches and CPU
//              microseconds per request (median of 3 runs)
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "communix/cluster/cluster_client.hpp"
#include "communix/cluster/log_shipper.hpp"
#include "communix/server.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"
#include "util/stopwatch.hpp"

namespace {

using communix::CommunixServer;
using communix::Rng;
using communix::Stopwatch;
using communix::UserId;
using communix::UserToken;
using communix::VirtualClock;

CommunixServer::Options ServerOptions() {
  CommunixServer::Options opts;
  // The paper's bench streams random signatures from synthetic load
  // generators; per-user daily quotas are not the measured effect. Use
  // one user id per session and a high quota.
  opts.per_user_daily_limit = 1'000'000;
  return opts;
}

struct Row {
  std::size_t sessions;
  double requests_per_second;
  double seconds;
  std::uint64_t db_size;
};

Row RunSweepPoint(std::size_t sessions) {
  VirtualClock clock;  // virtual day never ends: rate limits don't distort
  CommunixServer server(clock, ServerOptions());

  const std::size_t workers =
      std::min<std::size_t>(std::thread::hardware_concurrency() * 4,
                            std::max<std::size_t>(sessions, 1));
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> iterated{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);

  Stopwatch watch;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      Rng rng(0x9E37 + w);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sessions) break;
        const UserToken token =
            server.IssueToken(static_cast<UserId>(i + 1));
        // ADD(sig)
        (void)server.AddSignature(
            token, communix::bench::RandomSignature(
                       rng, static_cast<std::uint32_t>(i + 1)));
        // GET(0): iterate the entire database (paper's worst case).
        std::uint64_t seen = 0;
        server.VisitSince(0, [&](std::uint64_t,
                                 std::span<const std::uint8_t> bytes) {
          seen += bytes.size();
        });
        iterated.fetch_add(seen, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : pool) t.join();
  const double seconds = watch.ElapsedSeconds();

  Row row;
  row.sessions = sessions;
  row.seconds = seconds;
  row.requests_per_second = (2.0 * static_cast<double>(sessions)) / seconds;
  row.db_size = server.db_size();
  return row;
}

// ---------------------------------------------------------------------------
// --replicas: GET read fan-out across log-shipping followers.
//
// The paper's server degrades as GET(0) iterates an ever-larger database
// on one node; the cluster tier's answer is serving those scans from
// replicas. This section preloads the database, replicates it, then
// times whole-database scans issued through per-worker cluster clients:
// once against the primary alone, once fanned out across the followers.
// ---------------------------------------------------------------------------
void RunReplicaScaling(std::size_t replicas, bool smoke,
                       communix::bench::BenchJson& json) {
  namespace cluster = communix::cluster;
  namespace net = communix::net;
  const std::size_t preload = smoke ? 400 : 4000;
  const std::size_t workers = 4;
  const std::size_t scans_per_worker = smoke ? 25 : 200;

  VirtualClock clock;
  CommunixServer::Options popts;
  popts.per_user_daily_limit = 1'000'000;
  CommunixServer primary(clock, popts);
  net::InprocTransport primary_inproc(primary);

  CommunixServer::Options fopts = popts;
  fopts.role = communix::ServerRole::kFollower;
  std::vector<std::unique_ptr<CommunixServer>> followers;
  std::vector<std::unique_ptr<net::InprocTransport>> follower_inproc;
  cluster::LogShipper shipper(primary);
  for (std::size_t i = 0; i < replicas; ++i) {
    followers.push_back(std::make_unique<CommunixServer>(clock, fopts));
    follower_inproc.push_back(
        std::make_unique<net::InprocTransport>(*followers.back()));
    shipper.AddFollower("f" + std::to_string(i), *follower_inproc.back());
  }

  Rng rng(0x5CA1E);
  for (std::size_t i = 0; i < preload; ++i) {
    (void)primary.AddSignature(
        primary.IssueToken(static_cast<UserId>(i + 1)),
        communix::bench::RandomSignature(rng,
                                         static_cast<std::uint32_t>(i + 1)));
  }
  if (!shipper.PumpUntilSynced()) {
    std::fprintf(stderr, "replica preload failed to sync\n");
    return;
  }

  // Per-worker clients (a shared client would serialize the fan-out on
  // its own mutex); `with_replicas` toggles whether the followers are in
  // the endpoint set.
  const auto timed_scans = [&](bool with_replicas) {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    std::atomic<std::uint64_t> fetched{0};
    Stopwatch watch;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        std::vector<cluster::ClusterClient::Endpoint> reps;
        if (with_replicas) {
          for (std::size_t i = 0; i < followers.size(); ++i) {
            reps.push_back(cluster::ClusterClient::Endpoint{
                "f" + std::to_string(i), follower_inproc[i].get()});
          }
        }
        cluster::ClusterClient client(
            cluster::ClusterClient::Endpoint{"primary", &primary_inproc},
            std::move(reps));
        for (std::size_t g = 0; g < scans_per_worker; ++g) {
          auto scan = client.FetchSince(0);
          if (scan.ok()) {
            fetched.fetch_add(scan.value().size(), std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    const double seconds = watch.ElapsedSeconds();
    return static_cast<double>(workers * scans_per_worker) / seconds;
  };

  const std::uint64_t primary_gets_before =
      primary.GetStats().gets_served;
  const double single_rate = timed_scans(false);
  const std::uint64_t primary_gets_single =
      primary.GetStats().gets_served - primary_gets_before;
  const double fan_rate = timed_scans(true);
  const std::uint64_t primary_gets_fan =
      primary.GetStats().gets_served - primary_gets_before -
      primary_gets_single;

  communix::bench::PrintHeader(
      "GET(0) read fan-out: primary alone vs primary + " +
      std::to_string(replicas) + " log-shipping followers");
  std::printf("%22s %14s %16s\n", "deployment", "scans/sec", "GETs@primary");
  std::printf("%22s %14.0f %16llu\n", "single", single_rate,
              static_cast<unsigned long long>(primary_gets_single));
  std::printf("%22s %14.0f %16llu\n", "replicated", fan_rate,
              static_cast<unsigned long long>(primary_gets_fan));
  json.AddRow("replicas",
              {{"replicas", static_cast<double>(replicas)},
               {"db_size", static_cast<double>(primary.db_size())},
               {"scans", static_cast<double>(workers * scans_per_worker)},
               {"single_scans_per_second", single_rate},
               {"cluster_scans_per_second", fan_rate},
               {"primary_gets_single", static_cast<double>(primary_gets_single)},
               {"primary_gets_cluster", static_cast<double>(primary_gets_fan)}});
  for (std::size_t i = 0; i < followers.size(); ++i) {
    const auto fs = followers[i]->GetStats();
    const auto ship = shipper.GetFollowerStatus(i);
    std::printf("%20s%zu %14s %16llu\n", "follower-", i, "",
                static_cast<unsigned long long>(fs.gets_served));
    json.AddRow("replicas_follower",
                {{"replicas", static_cast<double>(replicas)},
                 {"follower", static_cast<double>(i)},
                 {"gets_served", static_cast<double>(fs.gets_served)},
                 {"entries_replicated",
                  static_cast<double>(fs.repl_entries_applied)},
                 {"lag", static_cast<double>(ship.lag)}});
  }
  std::printf(
      "\nstructural claim: with replicas, every GET(0) scan is one wire GET\n"
      "served by a follower (primary GETs ~0). Wall-clock scaling needs\n"
      "one core per node (this host: %u).\n",
      std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// replay: how long a fresh follower takes to catch up.
//
// A follower on another lineage is rebuilt by replaying the primary's
// log from index 0 in kReplBatch frames of 256 entries; that is the only
// catch-up path. Each run syncs a fresh follower, served by an
// in-process TcpServer as in the net series, from a preloaded primary
// over loopback TCP, so every frame pays a real round trip. The row
// records the median, min and max of 3 runs, nproc and the build type.
// ---------------------------------------------------------------------------
void RunReplaySeries(communix::bench::BenchJson& json) {
  namespace cluster = communix::cluster;
  namespace net = communix::net;
  constexpr int kRuns = 3;
  constexpr std::size_t kBatch = 256;

  communix::bench::PrintHeader(
      "Follower catch-up: fresh follower synced by kReplBatch replay over "
      "TCP");
  std::printf("%10s %10s %10s %10s\n", "db size", "median s", "min s",
              "max s");
  for (const std::size_t preload : {std::size_t{3'000}, std::size_t{20'000}}) {
    VirtualClock clock;
    CommunixServer::Options popts;
    popts.per_user_daily_limit = 1'000'000;
    CommunixServer primary(clock, popts);
    Rng rng(0xB007);
    for (std::size_t i = 0; i < preload; ++i) {
      (void)primary.AddSignature(
          primary.IssueToken(static_cast<UserId>(i + 1)),
          communix::bench::RandomSignature(
              rng, static_cast<std::uint32_t>(i + 1)));
    }
    CommunixServer::Options fopts = popts;
    fopts.role = communix::ServerRole::kFollower;

    std::vector<double> seconds;
    for (int run = 0; run < kRuns; ++run) {
      CommunixServer follower(clock, fopts);
      net::TcpServer tcp(follower);
      net::TcpClient to_follower;
      if (!tcp.Start().ok() ||
          !to_follower.Connect("127.0.0.1", tcp.port()).ok()) {
        std::fprintf(stderr, "replay series: TCP setup failed\n");
        return;
      }
      cluster::LogShipper::Options sopts;
      sopts.batch_limit = kBatch;
      cluster::LogShipper shipper(primary, sopts);
      shipper.AddFollower("f0", to_follower);
      Stopwatch watch;
      const bool synced = shipper.PumpUntilSynced();
      seconds.push_back(watch.ElapsedSeconds());
      const std::uint64_t shipped =
          shipper.GetFollowerStatus(0).entries_shipped;
      to_follower.Close();
      tcp.Stop();
      if (!synced || shipped != primary.db_size() ||
          follower.db_size() != primary.db_size()) {
        std::fprintf(stderr, "replay series: follower failed to sync\n");
        return;
      }
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[seconds.size() / 2];
    std::printf("%10llu %10.3f %10.3f %10.3f\n",
                static_cast<unsigned long long>(primary.db_size()), median,
                seconds.front(), seconds.back());
    json.AddRow("replay",
                {{"db_size", static_cast<double>(primary.db_size())},
                 {"batch_limit", static_cast<double>(kBatch)},
                 {"runs", static_cast<double>(kRuns)},
                 {"median_seconds", median},
                 {"min_seconds", seconds.front()},
                 {"max_seconds", seconds.back()},
                 {"nproc",
                  static_cast<double>(std::thread::hardware_concurrency())}},
                {{"build_type", COMMUNIX_BUILD_TYPE}, {"transport", "tcp"}});
  }
}

// ---------------------------------------------------------------------------
// scan_cost: the scan term of the sweep, isolated.
//
// Every GET(0) once paid one segment-pointer chase (an acquire load)
// *per entry* inside SignatureLog iteration. Visit() now hoists the chase
// to once per 1024-entry segment (signature_log.cpp); this section times
// pure whole-database scans — no concurrent ADDs — so any future
// regression of the scan term shows up here directly instead of buried
// in the mixed-workload sweep.
// ---------------------------------------------------------------------------
void RunScanCost(bool smoke, communix::bench::BenchJson& json) {
  const std::size_t preload = smoke ? 500 : 4000;
  const std::size_t scans = smoke ? 50 : 200;

  communix::bench::PrintHeader(
      "Scan cost: whole-database GET(0) iteration, no write load");
  std::printf("%12s %12s\n", "scans/sec", "db size");

  VirtualClock clock;
  CommunixServer server(clock, ServerOptions());
  Rng rng(0x5CAB);
  for (std::size_t i = 0; i < preload; ++i) {
    (void)server.AddSignature(
        server.IssueToken(static_cast<UserId>(i + 1)),
        communix::bench::RandomSignature(rng,
                                         static_cast<std::uint32_t>(i + 1)));
  }

  std::uint64_t bytes = 0;
  Stopwatch watch;
  for (std::size_t s = 0; s < scans; ++s) {
    server.VisitSince(0, [&](std::uint64_t, std::span<const std::uint8_t> b) {
      bytes += b.size();
    });
  }
  const double seconds = watch.ElapsedSeconds();
  const double rate = static_cast<double>(scans) / seconds;
  (void)bytes;

  std::printf("%12.0f %12llu\n", rate,
              static_cast<unsigned long long>(server.db_size()));
  json.AddRow("scan_cost", {{"db_size", static_cast<double>(server.db_size())},
                            {"scans_per_second", rate}});
}

// ---------------------------------------------------------------------------
// net: the zero-copy reply path over the real TCP server.
//
// Repeat GET(0) polls through an actual TcpServer + TcpClient pair:
// every reply carries its entries as byte runs pointing into the log's
// arena — the server serializes ~4 owned bytes (the count prefix) and
// hands the rest to the gather flush by reference. The structural
// evidence is the counter ratio: reply_bytes_shared is the whole feed
// per poll while reply_bytes_copied stays at the few-byte header, and
// the non-blocking writer reports its gather flushes (no backpressure,
// no disconnects on a healthy client).
// ---------------------------------------------------------------------------
void RunNetSeries(bool smoke, communix::bench::BenchJson& json) {
  namespace net = communix::net;
  const std::size_t preload = smoke ? 400 : 3000;
  const std::size_t polls = smoke ? 500 : 5000;

  VirtualClock clock;
  CommunixServer::Options opts;
  opts.per_user_daily_limit = 1'000'000;
  CommunixServer server(clock, opts);

  Rng rng(0x7EC9);
  for (std::size_t i = 0; i < preload; ++i) {
    (void)server.AddSignature(
        server.IssueToken(static_cast<UserId>(i + 1)),
        communix::bench::RandomSignature(rng,
                                         static_cast<std::uint32_t>(i + 1)));
  }

  net::TcpServer tcp(server);
  if (!tcp.Start().ok()) {
    std::fprintf(stderr, "net series: TCP server failed to start\n");
    return;
  }
  net::TcpClient client;
  if (!client.Connect("127.0.0.1", tcp.port()).ok()) {
    std::fprintf(stderr, "net series: TCP client failed to connect\n");
    tcp.Stop();
    return;
  }

  net::Request get;
  get.type = net::MsgType::kGetSignatures;
  communix::BinaryWriter w;
  w.WriteU64(0);
  get.payload = w.take();

  std::uint64_t reply_bytes = 0;
  Stopwatch watch;
  for (std::size_t p = 0; p < polls; ++p) {
    auto result = client.Call(get);
    if (!result.ok() || !result.value().ok()) {
      std::fprintf(stderr, "net series: GET poll failed\n");
      tcp.Stop();
      return;
    }
    reply_bytes += result.value().payload.size();
  }
  const double seconds = watch.ElapsedSeconds();
  const double rate = static_cast<double>(polls) / seconds;

  client.Close();
  const auto ss = server.GetStats();
  const auto ts = tcp.GetStats();
  tcp.Stop();

  const double copied_per_poll =
      static_cast<double>(ss.reply_bytes_copied) / static_cast<double>(polls);
  const double shared_per_poll =
      static_cast<double>(ss.reply_bytes_shared) / static_cast<double>(polls);

  communix::bench::PrintHeader(
      "Network tier: repeat GET polls over TCP, zero-copy replies");
  std::printf("%10s %12s %14s %14s %14s\n", "polls/sec", "reply KiB",
              "copied/poll", "shared/poll", "writev_flushes");
  std::printf("%10.0f %12.1f %14.1f %14.1f %14llu\n", rate,
              static_cast<double>(reply_bytes) / (polls * 1024.0),
              copied_per_poll, shared_per_poll,
              static_cast<unsigned long long>(ts.writev_flushes));
  json.AddRow("net",
              {{"db_size", static_cast<double>(server.db_size())},
               {"polls", static_cast<double>(polls)},
               {"polls_per_second", rate},
               {"reply_bytes_copied", static_cast<double>(ss.reply_bytes_copied)},
               {"reply_bytes_shared", static_cast<double>(ss.reply_bytes_shared)},
               {"copied_per_poll", copied_per_poll},
               {"shared_per_poll", shared_per_poll},
               {"writev_flushes", static_cast<double>(ts.writev_flushes)},
               {"backpressure_stalls",
                static_cast<double>(ts.backpressure_stalls)},
               {"slow_client_disconnects",
                static_cast<double>(ts.slow_client_disconnects)},
               {"peak_outbound_queue_bytes",
                static_cast<double>(ts.peak_outbound_queue_bytes)}});
  std::printf(
      "\nstructural claim: GET replies copy only the count prefix\n"
      "(copied/poll ~ bytes, not KiB); the feed itself leaves as runs\n"
      "into the log arena, handed to the gather flush by reference.\n");
}

// ---------------------------------------------------------------------------
// serve_cost: what the TCP tier costs the server per request.
//
// Near-empty GETs (an empty database, so each reply is its 4-byte count)
// over one loopback connection, sequential (depth 1) and pipelined 16
// deep. The server's threads are this process minus the client thread:
// getrusage(RUSAGE_SELF) minus RUSAGE_THREAD, for voluntary context
// switches (each one a thread blocking: an event loop serving on the
// thread that saw the socket ready blocks about once per sequential
// request) and CPU time (user + system). Median of 3 runs per depth, the
// commit, nproc and the build type.
// ---------------------------------------------------------------------------
struct Usage {
  double voluntary_switches = 0;
  double cpu_us = 0;
};

Usage UsageOf(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return {static_cast<double>(ru.ru_nvcsw),
          us(ru.ru_utime) + us(ru.ru_stime)};
}

/// Usage of every thread but the caller's.
Usage ServerUsage() {
  const Usage self = UsageOf(RUSAGE_SELF);
  const Usage client = UsageOf(RUSAGE_THREAD);
  return {self.voluntary_switches - client.voluntary_switches,
          self.cpu_us - client.cpu_us};
}

void RunServeCostSeries(bool smoke, communix::bench::BenchJson& json) {
  namespace net = communix::net;
  constexpr int kRuns = 3;
  const std::size_t requests = smoke ? 2'000 : 20'000;

  VirtualClock clock;
  CommunixServer server(clock, ServerOptions());
  net::Request get;
  get.type = net::MsgType::kGetSignatures;
  communix::BinaryWriter w;
  w.WriteU64(0);
  get.payload = w.take();

  communix::bench::PrintHeader(
      "Serve cost: near-empty GETs over loopback TCP, per request");
  std::printf("%6s %10s %14s %14s\n", "depth", "requests", "server vcsw",
              "server cpu us");
  for (const std::size_t depth : {std::size_t{1}, std::size_t{16}}) {
    std::vector<double> switches;
    std::vector<double> cpu_us;
    for (int run = 0; run < kRuns; ++run) {
      net::TcpServer tcp(server);
      net::TcpClient client;
      if (!tcp.Start().ok() ||
          !client.Connect("127.0.0.1", tcp.port()).ok()) {
        std::fprintf(stderr, "serve_cost series: TCP setup failed\n");
        return;
      }
      const auto burst = [&] {
        for (std::size_t i = 0; i < depth; ++i) {
          if (!client.Send(get).ok()) return false;
        }
        for (std::size_t i = 0; i < depth; ++i) {
          auto reply = client.Receive();
          if (!reply.ok() || !reply.value().ok()) return false;
        }
        return true;
      };
      bool ok = true;
      for (int i = 0; i < 50 && ok; ++i) ok = burst();  // warm-up
      const Usage before = ServerUsage();
      for (std::size_t done = 0; done < requests && ok; done += depth) {
        ok = burst();
      }
      const Usage after = ServerUsage();
      client.Close();
      tcp.Stop();
      if (!ok) {
        std::fprintf(stderr, "serve_cost series: a GET failed\n");
        return;
      }
      const double n = static_cast<double>(requests);
      switches.push_back(
          (after.voluntary_switches - before.voluntary_switches) / n);
      cpu_us.push_back((after.cpu_us - before.cpu_us) / n);
    }
    std::sort(switches.begin(), switches.end());
    std::sort(cpu_us.begin(), cpu_us.end());
    std::printf("%6zu %10zu %14.2f %14.2f\n", depth, requests,
                switches[kRuns / 2], cpu_us[kRuns / 2]);
    json.AddRow(
        "serve_cost",
        {{"depth", static_cast<double>(depth)},
         {"requests", static_cast<double>(requests)},
         {"runs", static_cast<double>(kRuns)},
         {"server_vcsw_per_request", switches[kRuns / 2]},
         {"server_vcsw_per_request_min", switches.front()},
         {"server_vcsw_per_request_max", switches.back()},
         {"server_cpu_us_per_request", cpu_us[kRuns / 2]},
         {"server_cpu_us_per_request_min", cpu_us.front()},
         {"server_cpu_us_per_request_max", cpu_us.back()},
         {"nproc", static_cast<double>(std::thread::hardware_concurrency())}},
        {{"build_type", COMMUNIX_BUILD_TYPE},
         {"commit", COMMUNIX_GIT_COMMIT},
         {"transport", "tcp"}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string replicas_value = "0";
  std::string json_path = "BENCH_fig2.json";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (communix::bench::FlagIs(argv[i], "--smoke")) {
      smoke = true;
    } else if (communix::bench::FlagValue(argv[i], "--replicas",
                                          &replicas_value) ||
               communix::bench::FlagValue(argv[i], "--json", &json_path)) {
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--replicas=N] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  char* end = nullptr;
  const unsigned long replicas_parsed =
      std::strtoul(replicas_value.c_str(), &end, 10);
  if (replicas_value.empty() || *end != '\0' || replicas_parsed > 64) {
    std::fprintf(stderr, "--replicas must be an integer in [0, 64]\n");
    return 2;
  }
  const std::size_t replicas = replicas_parsed;

  communix::bench::BenchJson json("fig2_server_throughput");

  communix::bench::PrintHeader(
      "Figure 2: Communix server throughput (ADD(sig),GET(0) sequences)");
  std::printf("%12s %16s %10s %10s\n", "sessions(k)", "requests/sec",
              "seconds", "db size");
  // The paper sweeps 1k..100k; GET(0) iteration cost is O(db), i.e. the
  // whole experiment is O(N^2) in the sweep point.
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{1, 5}
            : std::vector<std::size_t>{1, 5, 10, 20, 30, 40, 50, 75, 100};
  for (std::size_t thousands : sweep) {
    const Row row = RunSweepPoint(thousands * 1'000);
    std::printf("%12zu %16.0f %10.2f %10llu\n", thousands,
                row.requests_per_second, row.seconds,
                static_cast<unsigned long long>(row.db_size));
    json.AddRow("sweep",
                {{"sessions", static_cast<double>(row.sessions)},
                 {"requests_per_second", row.requests_per_second},
                 {"seconds", row.seconds},
                 {"db_size", static_cast<double>(row.db_size)}});
  }
  std::printf(
      "\npaper: scales to ~30k simultaneous sequences, peak ~9,000 req/s,\n"
      "degrading toward 100k as GET(0) iterates an ever-larger database.\n");

  if (replicas > 0) {
    RunReplicaScaling(replicas, smoke, json);
  }

  RunReplaySeries(json);
  RunScanCost(smoke, json);
  RunNetSeries(smoke, json);
  RunServeCostSeries(smoke, json);

  if (!json.WriteToFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
