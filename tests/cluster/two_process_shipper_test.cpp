// Real multi-process deployment of the replication tier: the primary
// (in this process) ships to follower daemons running the actual
// `communix_server` binary, over reconnecting TCP transports — the
// deployment the inproc cluster tests approximate. Pins that
//   * ShipRound's pipelined path (all Sends before any Receive) runs
//     over real sockets, not just PipelinedInprocTransport;
//   * a follower SIGTERM + restart on the same port/db costs O(lag):
//     the restarted daemon resumes from its persisted epoch + length
//     (no reset, no re-ship of entries it already has);
//   * the follower's GET(0) byte stream over TCP matches the primary's;
//   * a SIGKILL of both daemons after a storm of ADDs and a superseded
//     mark loses nothing their store.persist.* gauges reported as on
//     disk: each restarts on its own file with its epoch and at least
//     those entries (the primary's mark included), and shipping
//     converges;
//   * a follower that accepts and never answers wedges nothing: the
//     primary still answers kStats at once, and a SIGTERM'd primary
//     exits within the shipper's follower deadline with its ADDs saved.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/select.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "communix/cluster/log_shipper.hpp"
#include "communix/server.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace communix {
namespace {

using cluster::LogShipper;
using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("tp.A", 6, F("tp.A", "s1", 100 + salt)),
              ChainStack("tp.A", 6, F("tp.A", "i1", 9100 + salt)),
              ChainStack("tp.B", 6, F("tp.B", "s2", 20300 + salt)),
              ChainStack("tp.B", 6, F("tp.B", "i2", 31400 + salt)));
}

void Feed(CommunixServer& primary, std::uint32_t count,
          std::uint32_t salt = 0) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const UserId user = 4000 + salt + i;
    ASSERT_TRUE(primary
                    .AddSignature(primary.IssueToken(user),
                                  MakeSig(salt + i * 7))
                    .ok());
  }
}

/// Directory holding this test binary — the communix_server daemon is
/// built next to it.
std::string BuildDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path().string();
}

/// One `communix_server` daemon child, stdout captured through a pipe so
/// the harness can learn the bound port from the "listening on" line.
class ServerProcess {
 public:
  ~ServerProcess() { Terminate(); }

  /// Spawns the daemon; blocks until it reports its listening port.
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

  /// SIGTERM, then waits up to `limit` for the daemon to exit. True if it
  /// exited with status 0 in time; otherwise it is SIGKILLed.
  bool TerminateWithin(std::chrono::milliseconds limit) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + limit;
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// Graceful shutdown: SIGTERM (the daemon saves its db), then reap.
  /// SIGKILL instead stops it wherever it is, without a final save.
  void Terminate(int signal = SIGTERM) {
    if (pid_ > 0) {
      ::kill(pid_, signal);
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
  bool running() const { return pid_ > 0; }

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
      if (n <= 0) return false;  // daemon died (e.g. bind failure)
      captured.append(buf, static_cast<std::size_t>(n));
      const auto pos = captured.find(marker);
      if (pos != std::string::npos) {
        const auto end = captured.find(' ', pos + std::strlen(marker));
        if (end == std::string::npos) continue;  // line still partial
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

/// ReconnectingTcpClient with the shipper-half event log the inproc
/// pipelining test uses — same pin, real sockets.
class RecordingTcpTransport final : public net::PipelinedClientTransport {
 public:
  RecordingTcpTransport(std::string tag, std::uint16_t port,
                        std::vector<std::string>& events)
      : tag_(std::move(tag)), inner_("127.0.0.1", port), events_(events) {}

  Status Send(const net::Request& request) override {
    events_.push_back("send " + tag_);
    return inner_.Send(request);
  }
  Result<net::Response> Receive() override {
    events_.push_back("recv " + tag_);
    return inner_.Receive();
  }
  Result<net::Response> Call(const net::Request& request) override {
    events_.push_back("call " + tag_);
    return inner_.Call(request);
  }
  net::ReconnectingTcpClient& inner() { return inner_; }

 private:
  std::string tag_;
  net::ReconnectingTcpClient inner_;
  std::vector<std::string>& events_;
};

/// GET(0) over a fresh TCP connection, returning the reply payload.
std::vector<std::uint8_t> TcpGetAll(std::uint16_t port) {
  net::TcpClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", port).ok());
  net::Request get;
  get.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(0);
  get.payload = w.take();
  auto result = client.Call(get);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_TRUE(result.value().ok()) << result.value().error;
  return result.value().payload;
}

/// The primary's GET(0) byte stream (flattened across reply segments).
std::vector<std::uint8_t> LocalGetAll(CommunixServer& server) {
  net::Request get;
  get.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(0);
  get.payload = w.take();
  return server.Handle(get).FlattenedPayload();
}

TEST(TwoProcessShipper, PipelinedRoundsAndKillRestoreOverRealTcp) {
  const std::string dir = ::testing::TempDir() + "/communix_two_process_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string db1 = dir + "/f1.db";
  const std::string db2 = dir + "/f2.db";

  ServerProcess f1;
  ServerProcess f2;
  ASSERT_TRUE(f1.Start({"--port", "0", "--db", db1, "--role", "follower"}))
      << "follower 1 daemon failed to start";
  ASSERT_TRUE(f2.Start({"--port", "0", "--db", db2, "--role", "follower"}))
      << "follower 2 daemon failed to start";
  const std::uint16_t f1_port = f1.port();

  VirtualClock clock;
  CommunixServer::Options primary_opts;
  primary_opts.role = ServerRole::kPrimary;
  primary_opts.per_user_daily_limit = 1000;
  CommunixServer primary(clock, primary_opts);

  std::vector<std::string> events;
  RecordingTcpTransport t1("f1", f1.port(), events);
  RecordingTcpTransport t2("f2", f2.port(), events);

  LogShipper::Options opts;
  opts.batch_limit = 64;
  LogShipper shipper(primary, opts);
  const std::size_t id1 = shipper.AddFollower("f1", t1);
  const std::size_t id2 = shipper.AddFollower("f2", t2);

  // Round 1: handshakes (synchronous Calls) + one pipelined data round.
  // The pin from the inproc test, now over real sockets: every frame
  // goes out before any reply is read.
  Feed(primary, 8);
  const std::size_t shipped = shipper.ShipRound();
  EXPECT_EQ(shipped, 16u) << "8 entries x 2 followers";
  std::vector<std::string> data_events;
  for (const auto& e : events) {
    if (e.rfind("call ", 0) != 0) data_events.push_back(e);
  }
  EXPECT_EQ(data_events, (std::vector<std::string>{"send f1", "send f2",
                                                   "recv f1", "recv f2"}));
  ASSERT_TRUE(shipper.PumpUntilSynced());
  EXPECT_EQ(shipper.GetFollowerStatus(id1).lag, 0u);
  EXPECT_EQ(shipper.GetFollowerStatus(id2).lag, 0u);

  // Cross-process equality: the follower's GET(0) over TCP is
  // byte-identical to the primary's (the replication tier ships full
  // store metadata precisely so the byte streams match).
  const auto primary_bytes = LocalGetAll(primary);
  EXPECT_EQ(TcpGetAll(f1.port()), primary_bytes);
  EXPECT_EQ(TcpGetAll(f2.port()), primary_bytes);

  // ---- kill-restore: O(lag) recovery -------------------------------------
  const auto before = shipper.GetFollowerStatus(id1);
  f1.Terminate();  // SIGTERM: the daemon persists its db (epoch included)

  // Entries added while the follower is down = the lag it must recover.
  Feed(primary, 5, /*salt=*/500);
  const std::size_t lag = 5;

  // Rounds against the dead follower fail and drop the session (the
  // healthy follower keeps shipping).
  (void)shipper.ShipRound();
  EXPECT_FALSE(shipper.GetFollowerStatus(id1).cursor.has_value());
  ASSERT_TRUE(shipper.PumpUntilSynced(50) == false ||
              shipper.GetFollowerStatus(id2).lag == 0);
  EXPECT_EQ(shipper.GetFollowerStatus(id2).lag, 0u);

  // Restart on the same port + db. The reconnecting transport heals on
  // the next round; the daemon resumes from its persisted epoch/length.
  ServerProcess f1b;
  ASSERT_TRUE(f1b.Start({"--port", std::to_string(f1_port), "--db", db1,
                         "--role", "follower"}))
      << "follower 1 daemon failed to restart on port " << f1_port;
  ASSERT_TRUE(shipper.PumpUntilSynced());

  const auto after = shipper.GetFollowerStatus(id1);
  EXPECT_EQ(after.lag, 0u);
  EXPECT_EQ(after.resets, before.resets)
      << "persisted epoch adopted on restart: no catch-up reset";
  EXPECT_EQ(after.entries_shipped, before.entries_shipped + lag)
      << "recovery cost is O(lag), not O(db)";
  EXPECT_GT(after.drops, before.drops) << "the dead rounds dropped cleanly";

  EXPECT_EQ(TcpGetAll(f1b.port()), LocalGetAll(primary));

  f1b.Terminate();
  f2.Terminate();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// One kStats scrape over a fresh connection.
std::optional<obs::MetricsSnapshot> Scrape(std::uint16_t port) {
  net::ReconnectingTcpClient client("127.0.0.1", port);
  auto result = client.Call(net::BuildStatsRequest(net::StatsRequest{}));
  if (!result.ok() || !result.value().ok()) return std::nullopt;
  return net::ParseStatsReply(result.value());
}

/// Scrapes `port` until `done` holds for its snapshot; nullopt after 20 s.
std::optional<obs::MetricsSnapshot> ScrapeUntil(
    std::uint16_t port,
    const std::function<bool(const obs::MetricsSnapshot&)>& done) {
  for (int i = 0; i < 400; ++i) {
    auto snap = Scrape(port);
    if (snap.has_value() && done(*snap)) return snap;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::nullopt;
}

/// A 16-byte token for `user`, issued by the daemon `client` talks to.
std::vector<std::uint8_t> IssueOverTcp(net::TcpClient& client, UserId user) {
  net::Request issue;
  issue.type = net::MsgType::kIssueId;
  BinaryWriter w;
  w.WriteU64(user);
  issue.payload = w.take();
  auto token = client.Call(issue);
  EXPECT_TRUE(token.ok() && token.value().ok());
  return token.ok() ? token.value().payload : std::vector<std::uint8_t>{};
}

/// Storm ADDs at the daemon on `port`: `batches` kAddBatch frames of
/// `per_batch` signatures, one user per frame. All must be accepted.
void StormOverTcp(std::uint16_t port, std::uint32_t batches,
                  std::uint32_t per_batch, std::uint32_t salt) {
  net::TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  for (std::uint32_t b = 0; b < batches; ++b) {
    const auto token = IssueOverTcp(client, 9000 + salt + b);
    ASSERT_EQ(token.size(), 16u);
    std::vector<std::vector<std::uint8_t>> sigs;
    for (std::uint32_t i = 0; i < per_batch; ++i) {
      sigs.push_back(MakeSig(salt + (b * per_batch + i) * 7).ToBytes());
    }
    auto reply = client.Call(net::BuildAddBatchRequest(
        std::span<const std::uint8_t>(token.data(), token.size()),
        std::span<const std::vector<std::uint8_t>>(sigs.data(), sigs.size())));
    ASSERT_TRUE(reply.ok() && reply.value().ok());
    const auto codes = net::ParseAddBatchResponse(reply.value());
    ASSERT_TRUE(codes.has_value());
    for (const ErrorCode code : *codes) ASSERT_EQ(code, ErrorCode::kOk);
  }
}

/// The entries of a GET reply payload: everything after its u32 count.
std::vector<std::uint8_t> EntryBytes(const std::vector<std::uint8_t>& get) {
  return get.size() < 4 ? std::vector<std::uint8_t>{}
                        : std::vector<std::uint8_t>(get.begin() + 4, get.end());
}

TEST(TwoProcessShipper, SigkillKeepsWhatThePersistGaugesReported) {
  const std::string dir = ::testing::TempDir() + "/communix_sigkill_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string fdb = dir + "/f.db";
  const std::string pdb = dir + "/p.db";
  const auto primary_args = [&](std::uint16_t port, std::uint16_t fport) {
    return std::vector<std::string>{
        "--port", std::to_string(port), "--db", pdb, "--limit", "1000",
        "--follower", "127.0.0.1:" + std::to_string(fport)};
  };

  ServerProcess follower;
  ASSERT_TRUE(follower.Start({"--port", "0", "--db", fdb, "--role",
                              "follower"}));
  const std::uint16_t fport = follower.port();
  ServerProcess primary;
  ASSERT_TRUE(primary.Start(primary_args(0, fport)));
  const std::uint16_t pport = primary.port();

  // Storm ADDs, and once they are on disk one superseded mark: nothing
  // grows the log after the mark, so only a save on every tick gets it
  // to disk.
  constexpr std::uint32_t kBatches = 12;
  constexpr std::uint32_t kPerBatch = 25;
  constexpr std::uint64_t kEntries = kBatches * kPerBatch;
  StormOverTcp(pport, kBatches, kPerBatch, 0);
  ASSERT_TRUE(ScrapeUntil(pport, [&](const obs::MetricsSnapshot& s) {
                return s.Value("store.persist.entries") == kEntries;
              }).has_value())
      << "the primary never persisted the storm";
  {
    net::TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", pport).ok());
    net::MarkSupersededRequest mark;
    mark.token = IssueOverTcp(client, 8999);
    mark.content_ids = {MakeSig(7 * 7).ContentId()};
    auto reply = client.Call(net::BuildMarkSupersededRequest(mark));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(net::ParseMarkSupersededReply(reply.value()), 1u);
  }

  const auto p_before = ScrapeUntil(pport, [&](const obs::MetricsSnapshot& s) {
    return s.Value("store.persist.entries") == kEntries &&
           s.Value("store.persist.superseded") == 1;
  });
  const auto f_before = ScrapeUntil(fport, [&](const obs::MetricsSnapshot& s) {
    return s.Value("store.db_size") == kEntries &&
           s.Value("store.persist.entries") == kEntries;
  });
  ASSERT_TRUE(p_before.has_value()) << "the primary never persisted its mark";
  ASSERT_TRUE(f_before.has_value()) << "the follower never persisted its log";
  const auto p_get = TcpGetAll(pport);
  const auto f_get = TcpGetAll(fport);

  primary.Terminate(SIGKILL);
  follower.Terminate(SIGKILL);
  ServerProcess follower2;
  ASSERT_TRUE(follower2.Start({"--port", std::to_string(fport), "--db", fdb,
                               "--role", "follower"}))
      << "the follower failed to restart on its file";
  ServerProcess primary2;
  ASSERT_TRUE(primary2.Start(primary_args(pport, fport)))
      << "the primary failed to restart on its file";

  // Each daemon loaded its file: its epoch, at least what its gauges
  // reported, and a byte-identical prefix of its GET(0) before the kill.
  struct Side {
    const char* name;
    std::uint16_t port;
    const obs::MetricsSnapshot& before;
    const std::vector<std::uint8_t>& get;
  };
  for (const Side& side : {Side{"primary", pport, *p_before, p_get},
                           Side{"follower", fport, *f_before, f_get}}) {
    SCOPED_TRACE(side.name);
    const auto after = Scrape(side.port);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->Value("store.epoch"), side.before.Value("store.epoch"));
    EXPECT_GE(after->Value("store.db_size"),
              side.before.Value("store.persist.entries"));
    EXPECT_GE(after->Value("store.superseded"),
              side.before.Value("store.persist.superseded"));
    const auto entries = EntryBytes(TcpGetAll(side.port));
    const auto was = EntryBytes(side.get);
    ASSERT_LE(entries.size(), was.size());
    EXPECT_TRUE(std::equal(entries.begin(), entries.end(), was.begin()))
        << "GET(0) after the restart is not a prefix of the one before";
  }

  // The restarted shipper converges: follower applied == primary shipped.
  StormOverTcp(pport, 2, kPerBatch, 100000);
  const auto p_after = ScrapeUntil(pport, [&](const obs::MetricsSnapshot& s) {
    return s.Value("cluster.shipper.total_lag") == 0 &&
           s.Value("store.db_size") == kEntries + 2 * kPerBatch;
  });
  ASSERT_TRUE(p_after.has_value());
  const auto f_after = ScrapeUntil(fport, [&](const obs::MetricsSnapshot& s) {
    return s.Value("server.repl_entries_applied") ==
           p_after->Value("cluster.shipper.entries_shipped");
  });
  ASSERT_TRUE(f_after.has_value())
      << "follower applied != primary shipped after the restart";
  EXPECT_EQ(TcpGetAll(fport), TcpGetAll(pport));

  primary2.Terminate();
  follower2.Terminate();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// SIGKILLs a daemon still running at scope exit, so a failed check
/// cannot leave the test waiting on a primary that ignores SIGTERM.
struct KillOnExit {
  ServerProcess& process;
  ~KillOnExit() {
    if (process.running()) process.Terminate(SIGKILL);
  }
};

/// A follower endpoint that completes TCP handshakes (the kernel queues
/// each connection on its backlog) and never reads or answers.
class SilentFollower {
 public:
  SilentFollower() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(fd_, 16) == 0 &&
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~SilentFollower() {
    for (const int fd : accepted_) ::close(fd);
    ::close(fd_);
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

  /// True once a connection has delivered request bytes, which stay
  /// unread: the sender's step is in flight and will get no reply.
  bool AwaitRequest(int timeout_ms) {
    pollfd listening{fd_, POLLIN, 0};
    if (::poll(&listening, 1, timeout_ms) != 1) return false;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) return false;
    accepted_.push_back(conn);
    pollfd request{conn, POLLIN, 0};
    return ::poll(&request, 1, timeout_ms) == 1;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> accepted_;
};

TEST(TwoProcessShipper, SilentFollowerLeavesStatsServed) {
  const std::string dir = ::testing::TempDir() + "/communix_silent_stats_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SilentFollower silent;
  ServerProcess primary;
  const KillOnExit kill_on_exit{primary};
  ASSERT_TRUE(primary.Start({"--port", "0", "--db", dir + "/p.db",
                             "--follower", silent.endpoint()}));
  ASSERT_TRUE(silent.AwaitRequest(10'000))
      << "the primary's shipper never sent its handshake";

  // The shipper waits on the silent follower now. A scrape must not: the
  // client's own deadline turns a wedged primary into a failure here.
  net::TcpClient client(std::chrono::milliseconds(2000));
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.port()).ok());
  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Call(net::BuildStatsRequest(net::StatsRequest{}));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const auto snap = net::ParseStatsReply(reply.value());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->Value("cluster.shipper.followers"), 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "kStats waited on the shipper's follower I/O";

  // At the follower deadline the handshake fails and drops the session.
  EXPECT_TRUE(ScrapeUntil(primary.port(), [](const obs::MetricsSnapshot& s) {
                return s.Value("cluster.shipper.drops") >= 1;
              }).has_value())
      << "the silent follower's session was never dropped";
  std::filesystem::remove_all(dir);
}

TEST(TwoProcessShipper, SilentFollowerDoesNotHoldShutdown) {
  const std::string dir = ::testing::TempDir() +
                          "/communix_silent_shutdown_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string pdb = dir + "/p.db";
  SilentFollower silent;
  ServerProcess primary;
  const KillOnExit kill_on_exit{primary};
  ASSERT_TRUE(primary.Start({"--port", "0", "--db", pdb, "--limit", "1000",
                             "--follower", silent.endpoint()}));
  ASSERT_TRUE(silent.AwaitRequest(10'000))
      << "the primary's shipper never sent its handshake";
  constexpr std::uint32_t kBatches = 2;
  constexpr std::uint32_t kPerBatch = 5;
  StormOverTcp(primary.port(), kBatches, kPerBatch, 0);

  // Stop joins the shipper, whose step ends at the follower deadline at
  // the latest; then the final save runs.
  EXPECT_TRUE(primary.TerminateWithin(LogShipper::kFollowerDeadline +
                                      std::chrono::seconds(1)))
      << "the SIGTERM'd primary did not exit cleanly in time";
  VirtualClock clock;
  CommunixServer reloaded(clock);
  ASSERT_TRUE(reloaded.LoadFromFile(pdb).ok());
  EXPECT_EQ(reloaded.db_size(), kBatches * kPerBatch)
      << "the DB file lacks ADDs the primary accepted";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace communix
