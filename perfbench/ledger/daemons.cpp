#include "ledger/daemons.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace ledger {

using communix::ErrorCode;
using communix::Result;
using communix::Status;

namespace {

bool ReadPortLine(const std::string& log_path, std::uint16_t* port) {
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string marker = "listening on 127.0.0.1:";
    const auto at = line.find(marker);
    if (at != std::string::npos) {
      *port = static_cast<std::uint16_t>(
          std::stoi(line.substr(at + marker.size())));
      return true;
    }
  }
  return false;
}

}  // namespace

Status SpawnDaemon(const std::string& exe, const std::vector<std::string>& args,
                   const std::string& log_path, Daemon* out) {
  std::vector<std::string> argv_store;
  argv_store.push_back(exe);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return Status::Error(ErrorCode::kUnavailable, "fork failed");
  if (pid == 0) {
    // Never outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = ::open("/dev/null", O_WRONLY);
    if (log >= 0) ::dup2(log, STDOUT_FILENO);
    if (null >= 0) ::dup2(null, STDERR_FILENO);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  out->pid = pid;
  out->args = args;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ReadPortLine(log_path, &out->port)) return Status::Ok();
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      out->pid = -1;
      return Status::Error(ErrorCode::kUnavailable,
                           "daemon exited during startup: " + exe);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  StopDaemons({out});
  return Status::Error(ErrorCode::kUnavailable, "daemon never listened");
}

void StopDaemons(const std::vector<Daemon*>& daemons) {
  for (Daemon* d : daemons) {
    if (d->pid > 0) ::kill(d->pid, SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (Daemon* d : daemons) {
    while (d->pid > 0) {
      int status = 0;
      const pid_t r = ::waitpid(d->pid, &status, WNOHANG);
      if (r == d->pid || (r < 0 && errno != EINTR)) {
        d->pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(d->pid, SIGKILL);
        ::waitpid(d->pid, &status, 0);
        d->pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

Status Cluster::Start(const std::string& server_exe, const std::string& dir,
                      bool slow_trace) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Error(ErrorCode::kUnavailable, "cannot create " + dir);
  std::vector<std::string> common;
  if (slow_trace) common = {"--slow-ns", "1"};

  std::vector<std::string> fargs = {"--port", "0", "--db", dir + "/follower.db",
                                    "--role", "follower"};
  fargs.insert(fargs.end(), common.begin(), common.end());
  if (auto s = SpawnDaemon(server_exe, fargs, dir + "/follower.log", &follower_);
      !s.ok()) {
    return s;
  }
  std::vector<std::string> pargs = {
      "--port", "0", "--db", dir + "/primary.db", "--follower",
      "127.0.0.1:" + std::to_string(follower_.port)};
  pargs.insert(pargs.end(), common.begin(), common.end());
  if (auto s = SpawnDaemon(server_exe, pargs, dir + "/primary.log", &primary_);
      !s.ok()) {
    Stop();
    return s;
  }
  return Status::Ok();
}

void Cluster::Stop() { StopDaemons({&primary_, &follower_}); }

std::string Cluster::FlagsSummary() const {
  std::ostringstream out;
  out << "primary:";
  for (const auto& a : primary_.args) out << ' ' << a;
  out << "; follower:";
  for (const auto& a : follower_.args) out << ' ' << a;
  return out.str();
}

Result<communix::obs::MetricsSnapshot> Scrape(
    communix::net::TcpClient& client) {
  auto resp =
      client.Call(communix::net::BuildStatsRequest(communix::net::StatsRequest{}));
  if (!resp.ok()) return resp.status();
  if (!resp.value().ok()) {
    return Status::Error(resp.value().code, resp.value().error);
  }
  auto snap = communix::net::ParseStatsReply(resp.value());
  if (!snap) return Status::Error(ErrorCode::kDataLoss, "bad kStats reply");
  return *snap;
}

Result<std::uint64_t> ProbeLogSize(communix::net::ClientTransport& t) {
  auto resp = t.Call(communix::net::BuildReplPullRequest(
      communix::net::ReplPullRequest(0, 0, 0)));
  if (!resp.ok()) return resp.status();
  const auto reply = communix::net::ParseReplPullReply(resp.value());
  if (!reply) return Status::Error(ErrorCode::kDataLoss, "bad kReplPull reply");
  return reply->log_size;
}

Status WaitCaughtUp(std::uint16_t primary_port, std::uint16_t follower_port,
                    int timeout_ms, std::uint64_t* length) {
  communix::net::TcpClient p;
  communix::net::TcpClient f;
  if (auto s = p.Connect("127.0.0.1", primary_port); !s.ok()) return s;
  if (auto s = f.Connect("127.0.0.1", follower_port); !s.ok()) return s;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto pl = ProbeLogSize(p);
    const auto fl = ProbeLogSize(f);
    if (!pl.ok()) return pl.status();
    if (!fl.ok()) return fl.status();
    if (pl.value() == fl.value()) {
      *length = pl.value();
      return Status::Ok();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Error(ErrorCode::kUnavailable,
                       "follower did not catch up with the primary");
}

}  // namespace ledger
