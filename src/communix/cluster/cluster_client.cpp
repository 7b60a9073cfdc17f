#include "communix/cluster/cluster_client.hpp"

#include <algorithm>

#include "util/serde.hpp"

namespace communix::cluster {

namespace {

bool IsWrite(net::MsgType type) {
  return type == net::MsgType::kAddSignature ||
         type == net::MsgType::kAddBatch ||
         type == net::MsgType::kReplBatch ||
         type == net::MsgType::kMarkSuperseded;
}

}  // namespace

ClusterClient::ClusterClient(Endpoint primary, std::vector<Endpoint> replicas,
                             Options options)
    : heal_probe_period_(std::max<std::size_t>(options.heal_probe_period, 1)) {
  slots_.push_back(Slot{std::move(primary), false, 0});
  for (Endpoint& e : replicas) {
    slots_.push_back(Slot{std::move(e), false, 0});
  }
}

Result<net::Response> ClusterClient::CallSlotLocked(
    Slot& slot, const net::Request& request) {
  auto result = slot.endpoint.transport->Call(request);
  if (!result.ok()) {
    if (!slot.down) ++failovers_;  // count down-transitions, not retries
    slot.down = true;
    slot.epoch = 0;  // a node that comes back may have a new lineage
  } else if (slot.down) {
    slot.down = false;
  }
  return result;
}

void ClusterClient::ProbeEpochLocked(Slot& slot) {
  // A down endpoint is not re-probed here — over TCP each probe of a
  // dead node is a connect timeout, and the read path must not pay one
  // per call while a node stays dead. HealOneDownEndpointLocked owns
  // revival (bounded: one down endpoint per successful read).
  if (slot.epoch != 0 || slot.down) return;
  auto result = CallSlotLocked(
      slot, net::BuildReplPullRequest(net::ReplPullRequest{0, 0, 0}));
  if (!result.ok() || !result.value().ok()) return;
  const auto reply = net::ParseReplPullReply(result.value());
  if (reply) slot.epoch = reply->epoch;
}

void ClusterClient::RefreshPrimaryEpochLocked(std::size_t fresh) {
  Slot& primary = slots_[0];
  const std::uint64_t cached = primary.epoch;
  primary.epoch = 0;
  ProbeEpochLocked(primary);
  if (primary.epoch == 0 || primary.epoch == cached) return;
  known_log_size_.store(0, std::memory_order_release);
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (i != fresh) slots_[i].epoch = 0;
  }
}

void ClusterClient::HealOneDownEndpointLocked() {
  const std::size_t n = slots_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots_[(heal_rr_ + i) % n];
    if (!slot.down) continue;
    heal_rr_ = (heal_rr_ + i + 1) % n;
    ReviveLocked(slot);
    return;
  }
}

void ClusterClient::ReviveLocked(Slot& slot) {
  // Probe the transport directly: a heal attempt against a still-dead
  // node is not a new failover event, and success both clears the mark
  // and refreshes the (possibly new) epoch.
  ++heal_probes_;
  auto result = slot.endpoint.transport->Call(
      net::BuildReplPullRequest(net::ReplPullRequest{0, 0, 0}));
  if (result.ok() && result.value().ok()) {
    slot.down = false;
    const auto reply = net::ParseReplPullReply(result.value());
    slot.epoch = reply ? reply->epoch : 0;
  }
}

void ClusterClient::MaybeHealLocked() {
  bool any_down = false;
  for (const Slot& s : slots_) any_down = any_down || s.down;
  if (!any_down) {
    reads_since_heal_ = 0;
    return;
  }
  if (++reads_since_heal_ < heal_probe_period_) return;
  reads_since_heal_ = 0;
  HealOneDownEndpointLocked();
}

bool ClusterClient::GetCoverage(const net::Request& request,
                                const net::Response& resp,
                                std::uint64_t* coverage, std::uint64_t* from,
                                std::uint32_t* count) {
  if (request.type != net::MsgType::kGetSignatures || !resp.ok()) {
    return false;
  }
  BinaryReader req_r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
  *from = req_r.ReadU64();
  if (!req_r.AtEnd()) return false;
  BinaryReader resp_r(std::span<const std::uint8_t>(resp.payload.data(),
                                                    resp.payload.size()));
  *count = resp_r.ReadU32();
  if (!resp_r.ok()) return false;
  *coverage = *from + *count;
  return true;
}

Result<net::Response> ClusterClient::Call(const net::Request& request) {
  std::lock_guard lock(mu_);

  if (IsWrite(request.type)) {
    // The primary alone assigns the global log order; a write that
    // cannot reach it fails rather than silently landing elsewhere
    // (followers would refuse it anyway).
    auto result = CallSlotLocked(slots_[0], request);
    if (result.ok()) ++writes_to_primary_;
    return result;
  }

  // Read fan-out order: up replicas round-robin, then the primary, then
  // down endpoints last (their success is what heals them).
  const std::size_t n_rep = slots_.size() - 1;
  std::vector<std::size_t> order;
  order.reserve(slots_.size() + n_rep + 1);
  for (std::size_t i = 0; i < n_rep; ++i) {
    const std::size_t idx = 1 + (rr_ + i) % n_rep;
    if (!slots_[idx].down) order.push_back(idx);
  }
  if (n_rep > 0) ++rr_;
  if (!slots_[0].down) order.push_back(0);
  for (std::size_t i = 0; i < n_rep; ++i) {
    const std::size_t idx = 1 + (rr_ + i) % n_rep;
    if (slots_[idx].down) order.push_back(idx);
  }
  if (slots_[0].down) order.push_back(0);

  const bool is_get = request.type == net::MsgType::kGetSignatures;
  std::optional<net::Response> best;   // highest-coverage regressing reply
  std::uint64_t best_coverage = 0;
  Status last_error =
      Status::Error(ErrorCode::kUnavailable, "no cluster endpoint reachable");

  for (const std::size_t idx : order) {
    Slot& slot = slots_[idx];
    if (is_get && idx != 0) {
      // Byte-stability guard: a replica on another lineage would serve a
      // *different* log — never read the database from it.
      ProbeEpochLocked(slots_[0]);
      // Down replicas come last in the order, so reaching one means no
      // endpoint ahead of it could serve the read: worth a revival probe.
      if (slot.down) ReviveLocked(slot);
      ProbeEpochLocked(slot);
      if (slot.epoch != 0 && slots_[0].epoch != 0 &&
          slot.epoch != slots_[0].epoch) {
        // The cached epoch may predate a catch-up reset that adopted the
        // primary's lineage; re-probe once before writing the replica off.
        slot.epoch = 0;
        ProbeEpochLocked(slot);
        // Or the primary's cached epoch may predate a Compact() that the
        // replica has already followed: re-probe the primary as well.
        if (slot.epoch != 0 && slot.epoch != slots_[0].epoch) {
          RefreshPrimaryEpochLocked(idx);
        }
        if (slot.epoch == 0 || slot.epoch != slots_[0].epoch) {
          ++epoch_skips_;
          continue;
        }
      }
      if (slot.down) continue;  // the probe just failed; nothing to read
    }
    auto result = CallSlotLocked(slot, request);
    if (!result.ok()) {
      last_error = result.status();
      continue;
    }
    std::uint64_t coverage = 0;
    std::uint64_t from = 0;
    std::uint32_t count = 0;
    if (is_get &&
        GetCoverage(request, result.value(), &coverage, &from, &count)) {
      const std::uint64_t known =
          known_log_size_.load(std::memory_order_relaxed);
      if (from < known && coverage < known) {
        // This endpoint lags behind what we've already shown the caller:
        // a fresh scan served from it would regress. Keep it as a last
        // resort and try the next endpoint.
        ++stale_read_retries_;
        if (!best || coverage > best_coverage) {
          best = result.value();
          best_coverage = coverage;
        }
        continue;
      }
      // Advance the floor only on non-empty replies: count > 0 proves
      // the server's committed length really is `coverage`, whereas an
      // empty reply to GET(from) past the log's end would inflate the
      // floor to a length no endpoint holds (e.g. a daemon polling with
      // a pre-reset cursor after a lineage rebuild shrank the log).
      if (count > 0 && coverage > known) {
        known_log_size_.store(coverage, std::memory_order_release);
      }
    }
    (idx == 0 ? reads_to_primary_ : reads_to_replicas_) += 1;
    MaybeHealLocked();
    return result;
  }

  if (best) {
    // Every live endpoint lagged (primary dead, replicas behind): serve
    // the longest prefix available rather than failing, and record that
    // the monotonic floor was not met. The floor itself is untouched.
    ++short_reads_;
    return *best;
  }
  return last_error;
}

Result<std::vector<std::vector<std::uint8_t>>> ClusterClient::FetchSince(
    std::uint64_t from) {
  net::Request request;
  request.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(from);
  request.payload = w.take();

  auto result = Call(request);
  if (!result.ok()) return result.status();
  const net::Response& resp = result.value();
  if (!resp.ok()) return Status::Error(resp.code, resp.error);

  BinaryReader r(std::span<const std::uint8_t>(resp.payload.data(),
                                               resp.payload.size()));
  const std::uint32_t count = r.ReadU32();
  std::vector<std::vector<std::uint8_t>> sigs;
  for (std::uint32_t i = 0; i < count; ++i) {
    sigs.push_back(r.ReadBytes());
    if (!r.ok()) {
      return Status::Error(ErrorCode::kDataLoss, "corrupt GET reply");
    }
  }
  return sigs;
}

ClusterClient::Stats ClusterClient::GetStats() const {
  std::lock_guard lock(mu_);
  Stats out;
  out.writes_to_primary = writes_to_primary_;
  out.reads_to_replicas = reads_to_replicas_;
  out.reads_to_primary = reads_to_primary_;
  out.failovers = failovers_;
  out.stale_read_retries = stale_read_retries_;
  out.short_reads = short_reads_;
  out.epoch_skips = epoch_skips_;
  out.heal_probes = heal_probes_;
  return out;
}

std::vector<bool> ClusterClient::EndpointUp() const {
  std::lock_guard lock(mu_);
  std::vector<bool> up;
  up.reserve(slots_.size());
  for (const Slot& s : slots_) up.push_back(!s.down);
  return up;
}

obs::ProbeHandle ClusterClient::ExportStats(
    obs::MetricsRegistry& registry) const {
  return registry.RegisterProbe([this](obs::ProbeSink& sink) {
    const Stats s = GetStats();
    sink.EmitCounter("cluster.client.writes_to_primary", s.writes_to_primary);
    sink.EmitCounter("cluster.client.reads_to_replicas", s.reads_to_replicas);
    sink.EmitCounter("cluster.client.reads_to_primary", s.reads_to_primary);
    sink.EmitCounter("cluster.client.failovers", s.failovers);
    sink.EmitCounter("cluster.client.stale_read_retries",
                     s.stale_read_retries);
    sink.EmitCounter("cluster.client.short_reads", s.short_reads);
    sink.EmitCounter("cluster.client.epoch_skips", s.epoch_skips);
    sink.EmitCounter("cluster.client.heal_probes", s.heal_probes);
    std::uint64_t up = 0;
    for (const bool b : EndpointUp()) up += b ? 1 : 0;
    sink.EmitGauge("cluster.client.endpoints_up", up);
  });
}

}  // namespace communix::cluster
