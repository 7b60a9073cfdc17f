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

ShardedDeployment::ShardedDeployment(Clock& clock,
                                     const ShardedDeploymentOptions& options) {
  std::vector<cluster::MultiGroupClient::Group> client_groups;
  for (std::size_t g = 0; g < options.groups; ++g) {
    ReplicaSetOptions group_opts = options.group_options;
    group_opts.server.group_id = g + 1;
    groups_.push_back(std::make_unique<ReplicaSet>(clock, group_opts));
    client_groups.push_back(cluster::MultiGroupClient::Group{
        g + 1, &groups_.back()->client()});
  }

  map_.version = 1;
  for (std::size_t g = 0; g < options.groups; ++g) {
    map_.group_ids.push_back(g + 1);
  }
  map_.pins = options.pins;
  InstallEverywhere(map_);

  client_ = std::make_unique<cluster::MultiGroupClient>(
      std::move(client_groups), options.router_client);
  client_->InstallShardMap(map_);
}

void ShardedDeployment::InstallEverywhere(const cluster::ShardMap& map) {
  // Followers get the map too: kShardMap is served by any role, so a
  // client can refresh from whatever replica answers.
  for (auto& group : groups_) {
    group->primary().InstallShardMap(map);
    for (std::size_t f = 0; f < group->follower_count(); ++f) {
      group->follower(f).InstallShardMap(map);
    }
  }
}

std::size_t ShardedDeployment::GroupIndexFor(CommunityId community) const {
  const std::uint64_t gid = map_.GroupFor(community);
  return gid == 0 ? 0 : static_cast<std::size_t>(gid - 1);
}

std::uint64_t ShardedDeployment::BumpShardMap(
    std::vector<std::pair<CommunityId, std::uint64_t>> pins) {
  ++map_.version;
  map_.pins = std::move(pins);
  InstallEverywhere(map_);
  return map_.version;
}

std::size_t ShardedDeployment::Pump() {
  std::size_t shipped = 0;
  for (auto& group : groups_) shipped += group->Pump();
  return shipped;
}

bool ShardedDeployment::PumpUntilSynced() {
  for (auto& group : groups_) {
    if (!group->PumpUntilSynced()) return false;
  }
  return true;
}

bool ShardedDeployment::FollowersConverged() const {
  for (const auto& group : groups_) {
    if (!group->FollowersConverged()) return false;
  }
  return true;
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
