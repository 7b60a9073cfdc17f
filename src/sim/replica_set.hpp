// Replicated-deployment harness (cluster tier).
//
// Bundles one primary CommunixServer, N follower servers, the log
// shipper, and a failover-aware ClusterClient over in-process transports
// with per-edge fail points — so the cluster DoS scenarios, the client
// routing tests and the equivalence property test all run against a
// realistic replicated topology without sockets:
//
//      workload ──> ClusterClient ──┬──> primary  <── LogShipper reads feed
//                                   ├──> follower 0   <── kReplBatch
//                                   └──> follower 1   <── kReplBatch
//
// Every edge (client->node, shipper->follower) runs through its own
// FailPointTransport, so tests can model a connection loss on one edge
// (client fails over, shipper drops its feed cursor) independently of
// the node itself dying (KillPrimary / KillFollower cut every edge).
// Replication is pumped manually (Pump/PumpUntilSynced) for determinism;
// StartShipping runs the background daemon for wall-clock scenarios.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "communix/cluster/cluster_client.hpp"
#include "communix/cluster/log_shipper.hpp"
#include "communix/server.hpp"
#include "net/inproc.hpp"
#include "util/clock.hpp"

namespace communix::sim {

/// Forwards to an underlying transport while "up"; fails every call with
/// kUnavailable while "down" (the connection-loss model). The flag is
/// atomic so tests can cut an edge while the shipper daemon
/// (StartShipping) is calling through it from its own thread.
class FailPointTransport final : public net::ClientTransport {
 public:
  explicit FailPointTransport(net::ClientTransport& target)
      : target_(target) {}

  Result<net::Response> Call(const net::Request& request) override {
    if (down_.load(std::memory_order_acquire)) {
      return Status::Error(ErrorCode::kUnavailable, "connection lost");
    }
    return target_.Call(request);
  }

  void set_down(bool down) { down_.store(down, std::memory_order_release); }
  bool down() const { return down_.load(std::memory_order_acquire); }

 private:
  net::ClientTransport& target_;
  std::atomic<bool> down_{false};
};

struct ReplicaSetOptions {
  std::size_t followers = 2;
  /// Template for every node (role is overridden per node; the epoch is
  /// left to each store — followers adopt the primary's via catch-up).
  CommunixServer::Options server;
  cluster::LogShipper::Options shipper;
  /// Client-side knobs (heal-probe backoff).
  cluster::ClusterClient::Options client;
};

class ReplicaSet {
 public:
  ReplicaSet(Clock& clock, const ReplicaSetOptions& options);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  CommunixServer& primary() { return *primary_; }
  CommunixServer& follower(std::size_t i) { return *followers_.at(i); }
  std::size_t follower_count() const { return followers_.size(); }
  cluster::LogShipper& shipper() { return *shipper_; }
  cluster::ClusterClient& client() { return *client_; }

  /// One manual replication round (each follower ships at most one
  /// batch). Returns entries shipped.
  std::size_t Pump() { return shipper_->ShipRound(); }
  bool PumpUntilSynced() { return shipper_->PumpUntilSynced(); }

  /// Background shipping for wall-clock scenarios.
  void StartShipping() { shipper_->Start(); }
  void StopShipping() { shipper_->Stop(); }

  /// Cuts / restores every edge to the node (client reads fail over; the
  /// shipper drops the follower's feed cursor on its next round).
  void SetPrimaryDown(bool down);
  void SetFollowerDown(std::size_t i, bool down);

  /// True when every follower's database is byte-identical to the
  /// primary's current committed prefix (same length, same bytes).
  bool FollowersConverged() const;

 private:
  std::unique_ptr<CommunixServer> primary_;
  std::vector<std::unique_ptr<CommunixServer>> followers_;

  // Raw inproc transports, then one fail point per consumer edge.
  std::unique_ptr<net::InprocTransport> primary_inproc_;
  std::vector<std::unique_ptr<net::InprocTransport>> follower_inproc_;
  std::unique_ptr<FailPointTransport> client_to_primary_;
  std::vector<std::unique_ptr<FailPointTransport>> client_to_follower_;
  std::vector<std::unique_ptr<FailPointTransport>> shipper_to_follower_;

  std::unique_ptr<cluster::LogShipper> shipper_;
  std::unique_ptr<cluster::ClusterClient> client_;
};

}  // namespace communix::sim
