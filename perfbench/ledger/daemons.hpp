// Real communix_server daemons for the ledger: one follower plus one
// primary that ships to it from its in-daemon LogShipper, each a child
// process started from the benchmark's own build. Also the blocking
// out-of-window helpers that talk to them: kStats scrapes and limit-0
// kReplPull probes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace ledger {

struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::vector<std::string> args;  // flags after the executable
};

/// A running primary + follower pair. Stops both on destruction.
class Cluster {
 public:
  Cluster() = default;
  ~Cluster() { Stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts the follower, then the primary shipping to it, with their
  /// databases and logs under `dir` (created, emptied first).
  communix::Status Start(const std::string& server_exe, const std::string& dir,
                         bool slow_trace);
  /// SIGTERM both, wait for them to exit (SIGKILL after a deadline).
  void Stop();

  const Daemon& primary() const { return primary_; }
  const Daemon& follower() const { return follower_; }
  /// The daemon flags, for the result row.
  std::string FlagsSummary() const;

 private:
  Daemon primary_;
  Daemon follower_;
};

/// Starts `exe args...` with stdout to `log_path` and stderr discarded,
/// and waits for its "listening on 127.0.0.1:PORT" line.
communix::Status SpawnDaemon(const std::string& exe,
                             const std::vector<std::string>& args,
                             const std::string& log_path, Daemon* out);

/// Sends SIGTERM to every daemon, then reaps them (SIGKILL after 5 s).
void StopDaemons(const std::vector<Daemon*>& daemons);

/// One kStats metrics snapshot over a connected blocking client.
communix::Result<communix::obs::MetricsSnapshot> Scrape(
    communix::net::TcpClient& client);

/// One limit-0 kReplPull probe: the endpoint's committed log length.
communix::Result<std::uint64_t> ProbeLogSize(communix::net::ClientTransport& t);

/// Polls both daemons until the follower's log length equals the
/// primary's (or `timeout_ms` passes).
communix::Status WaitCaughtUp(std::uint16_t primary_port,
                              std::uint16_t follower_port, int timeout_ms,
                              std::uint64_t* length);

}  // namespace ledger
