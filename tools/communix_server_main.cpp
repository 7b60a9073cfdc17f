// communix_server — the deployable Communix server daemon.
//
// Serves ADD/GET/ISSUE_ID over TCP, persisting the signature database to
// disk every 0.5 s and on shutdown (SIGINT/SIGTERM). A periodic save
// appends to the DB file (format v4) the frames of the entries committed
// since the last one and rewrites the file only after a lineage change
// or a superseded mark. Nothing syncs: a kill loses at most the last
// tick's entries, and a load drops a final frame the kill cut short.
//
//   communix_server [--port N] [--db PATH] [--limit PER_USER_PER_DAY]
//                   [--role primary|follower] [--follower HOST:PORT]...
//                   [--slow-ns N]
//
// --role follower starts a replication follower: ADDs are refused and a
// primary's LogShipper feeds it via kReplBatch, however far behind it
// starts. The two-process deployment tests drive exactly this binary.
//
// --follower HOST:PORT (primary only, repeatable) runs the LogShipper
// inside this daemon against the named follower endpoint(s), so a
// two-process deployment needs no external shipping driver and the
// primary's kStats snapshot carries the cluster.shipper.* rows.
//
// --slow-ns N arms slow-request tracing: requests whose stage total
// reaches N nanoseconds are logged and served via the kStats trace
// sub-query (tools/communix_stats --traces).
//
// Every tier of the process — dimmunix runtime, server, store,
// cluster shipper, TCP transport — reports into ONE metrics registry,
// so a single kStats scrape (the new wire verb) sees the whole process.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "communix/cluster/log_shipper.hpp"
#include "communix/server.hpp"
#include "dimmunix/runtime.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

bool SplitHostPort(const std::string& spec, std::string* host,
                   std::uint16_t* port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return false;
  }
  *host = spec.substr(0, colon);
  const int p = std::atoi(spec.c_str() + colon + 1);
  if (p <= 0 || p > 65535) return false;
  *port = static_cast<std::uint16_t>(p);
  return true;
}

/// Attach/acquire/release/detach once so the runtime tier's counters are
/// live (nonzero) in the daemon's snapshot — a startup self-check that
/// the instrumentation path works in this binary, not just in tests.
void ExerciseRuntime(communix::dimmunix::DimmunixRuntime& runtime) {
  auto& ctx = runtime.AttachThread("startup-selfcheck");
  communix::dimmunix::Monitor m("selfcheck");
  if (runtime.Acquire(ctx, m).ok()) runtime.Release(ctx, m);
  runtime.DetachThread(ctx);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 7411;
  std::string db_path = "communix_server.db";
  std::size_t limit = 10;
  communix::ServerRole role = communix::ServerRole::kPrimary;
  std::vector<std::string> follower_specs;
  std::uint64_t slow_ns = 0;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(std::atoi(need_value("--port")));
    } else if (std::strcmp(argv[i], "--db") == 0) {
      db_path = need_value("--db");
    } else if (std::strcmp(argv[i], "--limit") == 0) {
      limit = static_cast<std::size_t>(std::atoi(need_value("--limit")));
    } else if (std::strcmp(argv[i], "--follower") == 0) {
      follower_specs.emplace_back(need_value("--follower"));
    } else if (std::strcmp(argv[i], "--slow-ns") == 0) {
      slow_ns = static_cast<std::uint64_t>(
          std::strtoull(need_value("--slow-ns"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--role") == 0) {
      const char* value = need_value("--role");
      if (std::strcmp(value, "primary") == 0) {
        role = communix::ServerRole::kPrimary;
      } else if (std::strcmp(value, "follower") == 0) {
        role = communix::ServerRole::kFollower;
      } else {
        std::fprintf(stderr, "--role must be primary or follower\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--db PATH] [--limit N] "
                   "[--role primary|follower] [--follower HOST:PORT]... "
                   "[--slow-ns N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!follower_specs.empty() && role != communix::ServerRole::kPrimary) {
    std::fprintf(stderr, "--follower is a primary-side flag\n");
    return 2;
  }

  communix::SetLogLevel(communix::LogLevel::kInfo);

  // One registry for the whole process: server, store probe, transport,
  // shipper and runtime all report here; kStats serves its snapshot.
  auto metrics = std::make_shared<communix::obs::MetricsRegistry>();

  communix::CommunixServer::Options options;
  options.per_user_daily_limit = limit;
  options.role = role;
  options.metrics = metrics;
  options.slow_request_ns = slow_ns;
  communix::CommunixServer server(communix::SystemClock::Instance(), options);

  // The runtime tier: the daemon carries a DimmunixRuntime (the paper's
  // client-side immunity engine) so its counters appear in the same
  // snapshot. Probe handle released before the runtime dies (declaration
  // order below).
  communix::dimmunix::DimmunixRuntime runtime(
      communix::SystemClock::Instance());
  const communix::obs::ProbeHandle runtime_probe =
      runtime.ExportStats(*metrics);
  ExerciseRuntime(runtime);

  if (std::filesystem::exists(db_path)) {
    if (auto s = server.LoadFromFile(db_path); !s.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", db_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("loaded %llu signatures from %s\n",
                static_cast<unsigned long long>(server.db_size()),
                db_path.c_str());
  }

  communix::net::TcpServer::Options tcp_options;
  tcp_options.port = port;
  tcp_options.metrics = metrics;
  communix::net::TcpServer tcp(server, tcp_options);
  if (auto s = tcp.Start(); !s.ok()) {
    std::fprintf(stderr, "cannot listen on %u: %s\n", port,
                 s.ToString().c_str());
    return 1;
  }

  // In-daemon shipping: transports must outlive the shipper; the probe
  // handle must be released before the shipper (reverse declaration
  // order of these locals handles both).
  std::vector<std::unique_ptr<communix::net::ReconnectingTcpClient>>
      follower_clients;
  std::optional<communix::cluster::LogShipper> shipper;
  communix::obs::ProbeHandle shipper_probe;
  if (!follower_specs.empty()) {
    shipper.emplace(server);
    for (const std::string& spec : follower_specs) {
      std::string host;
      std::uint16_t fport = 0;
      if (!SplitHostPort(spec, &host, &fport)) {
        std::fprintf(stderr, "--follower expects HOST:PORT, got %s\n",
                     spec.c_str());
        return 2;
      }
      follower_clients.push_back(
          std::make_unique<communix::net::ReconnectingTcpClient>(
              host, fport, communix::cluster::LogShipper::kFollowerDeadline));
      shipper->AddFollower(spec, *follower_clients.back());
    }
    shipper_probe = shipper->ExportStats(*metrics);
    shipper->Start();
  }

  std::printf("communix server listening on 127.0.0.1:%u (db: %s, "
              "limit: %zu/user/day, role: %s)\n",
              tcp.port(), db_path.c_str(), limit,
              role == communix::ServerRole::kFollower ? "follower"
                                                      : "primary");
  // The deployment harness reads this line through a pipe to learn the
  // bound port; without the flush it sits in the stdio buffer forever.
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  bool saving = true;  // the last tick's save succeeded
  while (!g_stop) {
    communix::SystemClock::Instance().SleepFor(500'000'000);  // 0.5 s
    // Every tick saves: the save appends what committed since the last
    // one, rewrites the file after a lineage change or a superseded
    // mark, and with nothing new only checks the file's length. Failures
    // count in store.persist.failures; the log names only the first one
    // and the recovery after it, not every tick.
    const communix::Status saved = server.SaveToFile(db_path);
    if (saved.ok() != saving) {
      saving = saved.ok();
      if (saving) {
        CX_LOG(kInfo, "server") << "saves to " << db_path << " succeed again";
      } else {
        CX_LOG(kError, "server")
            << "save to " << db_path << " failed: " << saved.ToString();
      }
    }
  }

  if (shipper.has_value()) {
    shipper_probe.Release();
    shipper->Stop();
  }
  tcp.Stop();
  if (auto s = server.SaveToFile(db_path); !s.ok()) {
    std::fprintf(stderr, "final save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto stats = server.GetStats();
  std::printf("shut down; %llu signatures persisted; accepted=%llu "
              "rejected(token/adjacent/rate)=%llu/%llu/%llu\n",
              static_cast<unsigned long long>(server.db_size()),
              static_cast<unsigned long long>(stats.adds_accepted),
              static_cast<unsigned long long>(stats.rejected_bad_token),
              static_cast<unsigned long long>(stats.rejected_adjacent),
              static_cast<unsigned long long>(stats.rejected_rate_limited));
  return 0;
}
