// StatsScrape: the unified observability surface against a REAL
// two-process deployment. A primary `communix_server` daemon (with its
// in-daemon shipper and slow-request tracing armed) feeds a follower
// daemon; the harness drives ADDs and a forced-slow GET over TCP, then
// scrapes both endpoints with the kStats verb — and with the actual
// `communix_stats` CLI — asserting one snapshot covers every tier
// (server, store, net, cluster, dimmunix runtime) and that the two
// processes' ledgers agree: follower entries applied == primary entries
// shipped. It also pins the store.persist.* rows: after the follower's
// first reset, further ADDs grow both DB files without a rewrite.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "communix/server.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "obs/snapshot_io.hpp"
#include "util/serde.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("sc.A", 6, F("sc.A", "s1", 100 + salt)),
              ChainStack("sc.A", 6, F("sc.A", "i1", 9100 + salt)),
              ChainStack("sc.B", 6, F("sc.B", "s2", 20300 + salt)),
              ChainStack("sc.B", 6, F("sc.B", "i2", 31400 + salt)));
}

std::string BuildDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path().string();
}

/// One `communix_server` daemon child (the two_process_shipper_test
/// pattern): stdout piped so the harness learns the bound port.
class ServerProcess {
 public:
  ~ServerProcess() { Terminate(); }

  bool Start(const std::vector<std::string>& extra_args) {
    const std::string binary = BuildDir() + "/communix_server";
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      return false;
    }
    if (pid_ == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : extra_args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      _exit(127);
    }
    ::close(pipe_fds[1]);
    stdout_fd_ = pipe_fds[0];
    return WaitForListeningLine();
  }

  void Terminate() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  std::uint16_t port() const { return port_; }

 private:
  bool WaitForListeningLine() {
    const char* marker = "listening on 127.0.0.1:";
    std::string captured;
    for (int rounds = 0; rounds < 200; ++rounds) {  // <= 10 s
      fd_set set;
      FD_ZERO(&set);
      FD_SET(stdout_fd_, &set);
      timeval tv{0, 50'000};
      const int ready = ::select(stdout_fd_ + 1, &set, nullptr, nullptr, &tv);
      if (ready <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      captured.append(buf, static_cast<std::size_t>(n));
      const auto pos = captured.find(marker);
      if (pos != std::string::npos) {
        const auto end = captured.find(' ', pos + std::strlen(marker));
        if (end == std::string::npos) continue;
        port_ = static_cast<std::uint16_t>(std::atoi(
            captured.substr(pos + std::strlen(marker)).c_str()));
        return port_ != 0;
      }
    }
    return false;
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One kStats scrape over a fresh connection.
std::optional<obs::MetricsSnapshot> Scrape(std::uint16_t port,
                                           std::uint32_t traces = 0) {
  net::ReconnectingTcpClient client("127.0.0.1", port);
  net::StatsRequest req;
  req.include_metrics = true;
  req.include_traces = traces > 0;
  req.max_traces = traces;
  auto result = client.Call(net::BuildStatsRequest(req));
  if (!result.ok() || !result.value().ok()) return std::nullopt;
  return net::ParseStatsReply(result.value());
}

/// Issues `count` tokens over `client` (users first_user...) and ADDs
/// one signature per user, MakeSig(salt + 7 * i).
void AddOverTcp(net::ReconnectingTcpClient& client, std::uint32_t first_user,
                std::uint32_t count, std::uint32_t salt) {
  for (std::uint32_t i = 0; i < count; ++i) {
    net::Request issue;
    issue.type = net::MsgType::kIssueId;
    BinaryWriter iw;
    iw.WriteU64(first_user + i);
    issue.payload = iw.take();
    auto token = client.Call(issue);
    ASSERT_TRUE(token.ok() && token.value().ok());
    ASSERT_EQ(token.value().payload.size(), 16u);

    net::Request add;
    add.type = net::MsgType::kAddSignature;
    BinaryWriter aw;
    aw.WriteRaw(std::span<const std::uint8_t>(token.value().payload.data(),
                                              16));
    const auto sig_bytes = MakeSig(salt + i * 7).ToBytes();
    aw.WriteRaw(std::span<const std::uint8_t>(sig_bytes.data(),
                                              sig_bytes.size()));
    add.payload = aw.take();
    auto added = client.Call(add);
    ASSERT_TRUE(added.ok() && added.value().ok()) << "ADD " << i;
  }
}

/// Scrapes `port` until its DB file holds `entries` entries (the daemon
/// saves every 0.5 s); nullopt after 10 s.
std::optional<obs::MetricsSnapshot> WaitForPersisted(std::uint16_t port,
                                                     std::uint64_t entries) {
  for (int i = 0; i < 200; ++i) {
    auto snap = Scrape(port);
    if (snap.has_value() && snap->Value("store.persist.entries") == entries) {
      return snap;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::nullopt;
}

/// Runs a command line, captures stdout, returns the exit status (or -1).
int RunCapture(const std::string& cmd, std::string* out) {
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::array<char, 1024> buf;
  while (true) {
    const std::size_t n = ::fread(buf.data(), 1, buf.size(), pipe);
    if (n == 0) break;
    out->append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(StatsScrape, TwoProcessDeploymentYieldsOneConsistentSnapshot) {
  const std::string dir = ::testing::TempDir() + "/communix_stats_scrape_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  // Follower first (to learn its port), then the primary with the
  // in-daemon shipper aimed at it and slow tracing armed at 1ns so
  // every request is a "slow" one.
  ServerProcess follower;
  ASSERT_TRUE(follower.Start({"--port", "0", "--db", dir + "/f.db", "--role",
                              "follower"}))
      << "follower daemon failed to start";
  ServerProcess primary;
  ASSERT_TRUE(primary.Start({"--port", "0", "--db", dir + "/p.db",
                             "--follower",
                             "127.0.0.1:" + std::to_string(follower.port()),
                             "--slow-ns", "1"}))
      << "primary daemon failed to start";

  // Drive traffic over the wire: tokens via ISSUE_ID, then ADDs and the
  // forced-slow GET.
  constexpr std::uint32_t kAdds = 6;
  {
    net::ReconnectingTcpClient client("127.0.0.1", primary.port());
    AddOverTcp(client, 7000, kAdds, 0);
    net::Request get;
    get.type = net::MsgType::kGetSignatures;
    BinaryWriter gw;
    gw.WriteU64(0);
    get.payload = gw.take();
    auto got = client.Call(get);
    ASSERT_TRUE(got.ok() && got.value().ok());
    EXPECT_GT(got.value().payload_size(), 4u);
  }

  // Wait for the in-daemon shipper (woken by each commit) to drain into
  // the follower, observing progress through the follower's own kStats.
  std::optional<obs::MetricsSnapshot> fsnap;
  for (int i = 0; i < 200; ++i) {  // <= 10 s
    fsnap = Scrape(follower.port());
    if (fsnap.has_value() &&
        fsnap->Value("server.repl_entries_applied") >= kAdds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(fsnap.has_value());
  ASSERT_GE(fsnap->Value("server.repl_entries_applied"), kAdds)
      << "shipper never drained into the follower";

  // ---- one primary snapshot covers all five tiers ------------------------
  const auto psnap = Scrape(primary.port(), /*traces=*/16);
  ASSERT_TRUE(psnap.has_value());
  EXPECT_EQ(psnap->version, obs::kSnapshotVersion);
  EXPECT_GT(psnap->captured_unix_ns, 0u);
  // Serving tier.
  EXPECT_EQ(psnap->Value("server.adds_accepted"), kAdds);
  EXPECT_EQ(psnap->Value("server.adds_processed"), kAdds);
  EXPECT_GE(psnap->Value("server.gets_served"), 1u);
  // Store tier (probe-exported).
  EXPECT_TRUE(psnap->Has("store.epoch"));
  EXPECT_EQ(psnap->Value("store.db_size"), kAdds);
  // Transport tier: our requests were flushed back to us.
  EXPECT_GT(psnap->Value("net.writev_flushes"), 0u);
  // Cluster tier: the in-daemon shipper's probe.
  EXPECT_EQ(psnap->Value("cluster.shipper.followers"), 1u);
  EXPECT_GE(psnap->Value("cluster.shipper.handshakes"), 1u);
  EXPECT_EQ(psnap->Value("cluster.shipper.total_lag"), 0u);
  EXPECT_GE(psnap->Value("cluster.shipper.rounds"), 1u);
  const auto* ack_lag = psnap->FindHistogram("cluster.shipper.ack_lag_ns");
  ASSERT_NE(ack_lag, nullptr);
  EXPECT_GE(ack_lag->count, 1u);
  // Runtime tier: the daemon's startup self-check ran one lock cycle.
  EXPECT_GE(psnap->Value("dimmunix.acquisitions"), 1u);
  EXPECT_TRUE(psnap->Has("dimmunix.fast_path_releases"));
  // The GET read histogram is in the same snapshot.
  const auto* read = psnap->FindHistogram("server.get.read_ns");
  ASSERT_NE(read, nullptr);
  EXPECT_GE(read->count, 1u);

  // ---- cross-process consistency -----------------------------------------
  EXPECT_EQ(fsnap->Value("server.repl_entries_applied"),
            psnap->Value("cluster.shipper.entries_shipped"))
      << "the two processes' replication ledgers must agree";

  // ---- the forced-slow GET shows up with per-stage timings ---------------
  ASSERT_FALSE(psnap->traces.empty()) << "slow ring empty despite --slow-ns 1";
  const obs::TraceRecord* get_trace = nullptr;
  for (const auto& t : psnap->traces) {
    EXPECT_NE(t.verb, static_cast<std::uint8_t>(net::MsgType::kStats))
        << "the monitoring poll must never trace itself";
    if (t.verb == static_cast<std::uint8_t>(net::MsgType::kGetSignatures)) {
      get_trace = &t;
    }
  }
  ASSERT_NE(get_trace, nullptr) << "the slow GET must appear in the ring";
  EXPECT_GT(get_trace->total_ns, 0u);
  EXPECT_GT(get_trace->start_unix_ns, 0u);
  std::uint64_t stage_sum = 0;
  for (const auto ns : get_trace->stage_ns) stage_sum += ns;
  EXPECT_EQ(stage_sum, get_trace->total_ns)
      << "total is exactly the sum of the per-stage timings";
  EXPECT_GT(get_trace->stage_ns[static_cast<std::size_t>(obs::Stage::kFlush)],
            0u)
      << "a TCP-served reply has a measured flush stage";

  // ---- the real communix_stats CLI against the live deployment ----------
  const std::string cli = BuildDir() + "/communix_stats";
  const std::string endpoint = "127.0.0.1:" + std::to_string(primary.port());
  std::string out;
  EXPECT_EQ(RunCapture(cli + " " + endpoint + " --get server.adds_accepted",
                       &out),
            0);
  EXPECT_EQ(out, std::to_string(kAdds) + "\n");
  out.clear();
  EXPECT_EQ(RunCapture(cli + " " + endpoint + " --json --traces 4", &out), 0);
  const auto cli_snap = obs::SnapshotFromJson(out);
  ASSERT_TRUE(cli_snap.has_value())
      << "--json output must round-trip through SnapshotFromJson";
  EXPECT_EQ(cli_snap->Value("server.adds_accepted"), kAdds);
  EXPECT_FALSE(cli_snap->traces.empty());
  out.clear();
  EXPECT_EQ(RunCapture(cli + " " + endpoint + " --get no.such.metric", &out),
            3);

  // ---- what the DB files hold: store.persist.* ---------------------------
  // Both daemons save every tick. Once each file holds the whole log (the
  // follower's after its first reset, a lineage change it rewrites for),
  // further ADDs reach both files as appended frames: the entries gauge
  // rises and no save rewrites.
  const auto p_saved = WaitForPersisted(primary.port(), kAdds);
  const auto f_saved = WaitForPersisted(follower.port(), kAdds);
  ASSERT_TRUE(p_saved.has_value() && f_saved.has_value())
      << "the daemons never persisted their logs";
  EXPECT_GE(f_saved->Value("server.repl_resets"), 1u);
  for (const obs::MetricsSnapshot* snap : {&*p_saved, &*f_saved}) {
    for (const char* name :
         {"store.persist.entries", "store.persist.superseded",
          "store.persist.bytes_written", "store.persist.rewrites",
          "store.persist.failures"}) {
      EXPECT_TRUE(snap->Has(name)) << name;
    }
    EXPECT_EQ(snap->Value("store.persist.superseded"), 0u);
    EXPECT_EQ(snap->Value("store.persist.failures"), 0u);
    EXPECT_GE(snap->Value("store.persist.rewrites"), 1u);
    const auto* save_ns = snap->FindHistogram("store.persist.save_ns");
    ASSERT_NE(save_ns, nullptr);
    EXPECT_GE(save_ns->count, 1u);
  }
  {
    net::ReconnectingTcpClient client("127.0.0.1", primary.port());
    AddOverTcp(client, 7100, kAdds, 5000);
  }
  const auto p_grown = WaitForPersisted(primary.port(), 2 * kAdds);
  const auto f_grown = WaitForPersisted(follower.port(), 2 * kAdds);
  ASSERT_TRUE(p_grown.has_value() && f_grown.has_value())
      << "further ADDs never reached the DB files";
  EXPECT_EQ(p_grown->Value("store.persist.rewrites"),
            p_saved->Value("store.persist.rewrites"))
      << "the primary's saves appended";
  EXPECT_EQ(f_grown->Value("store.persist.rewrites"),
            f_saved->Value("store.persist.rewrites"))
      << "the follower's saves appended";
  EXPECT_GT(p_grown->Value("store.persist.bytes_written"),
            p_saved->Value("store.persist.bytes_written"));
  EXPECT_GT(f_grown->Value("store.persist.bytes_written"),
            f_saved->Value("store.persist.bytes_written"));

  primary.Terminate();
  follower.Terminate();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace communix
