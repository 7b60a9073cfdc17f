#include "sim/replica_set.hpp"

#include <algorithm>

namespace communix::sim {

ReplicaSet::ReplicaSet(Clock& clock, const ReplicaSetOptions& options) {
  CommunixServer::Options primary_opts = options.server;
  primary_opts.role = ServerRole::kPrimary;
  primary_ = std::make_unique<CommunixServer>(clock, primary_opts);
  primary_inproc_ = std::make_unique<net::InprocTransport>(*primary_);
  client_to_primary_ = std::make_unique<FailPointTransport>(*primary_inproc_);

  shipper_ = std::make_unique<cluster::LogShipper>(*primary_, options.shipper);

  std::vector<cluster::ClusterClient::Endpoint> replica_endpoints;
  for (std::size_t i = 0; i < options.followers; ++i) {
    CommunixServer::Options follower_opts = options.server;
    follower_opts.role = ServerRole::kFollower;
    followers_.push_back(
        std::make_unique<CommunixServer>(clock, follower_opts));
    follower_inproc_.push_back(
        std::make_unique<net::InprocTransport>(*followers_.back()));
    client_to_follower_.push_back(
        std::make_unique<FailPointTransport>(*follower_inproc_.back()));
    shipper_to_follower_.push_back(
        std::make_unique<FailPointTransport>(*follower_inproc_.back()));
    shipper_->AddFollower("follower-" + std::to_string(i),
                          *shipper_to_follower_.back());
    replica_endpoints.push_back(cluster::ClusterClient::Endpoint{
        "follower-" + std::to_string(i), client_to_follower_.back().get()});
  }

  client_ = std::make_unique<cluster::ClusterClient>(
      cluster::ClusterClient::Endpoint{"primary", client_to_primary_.get()},
      std::move(replica_endpoints), options.client);
}

void ReplicaSet::SetPrimaryDown(bool down) {
  client_to_primary_->set_down(down);
}

void ReplicaSet::SetFollowerDown(std::size_t i, bool down) {
  client_to_follower_.at(i)->set_down(down);
  shipper_to_follower_.at(i)->set_down(down);
}

bool ReplicaSet::FollowersConverged() const {
  const std::uint64_t size = primary_->db_size();
  for (const auto& f : followers_) {
    if (f->db_size() != size) return false;
    if (f->epoch() != primary_->epoch()) return false;
    bool identical = true;
    f->VisitEntries(0, size,
                    [&](std::uint64_t i, const store::EntryView& e) {
                      primary_->VisitEntries(
                          i, i + 1,
                          [&](std::uint64_t, const store::EntryView& p) {
                            identical &= std::ranges::equal(p.bytes, e.bytes) &&
                                         p.sender == e.sender &&
                                         p.added_at == e.added_at;
                          });
                    });
    if (!identical) return false;
  }
  return true;
}

}  // namespace communix::sim
