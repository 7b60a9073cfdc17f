#include "communix/cluster/log_shipper.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace communix::cluster {

LogShipper::LogShipper(CommunixServer& primary, Options options)
    : primary_(primary),
      options_(options),
      repl_token_(primary.IssueToken(kReplicationPeerId)),
      ack_lag_(primary.metrics()->GetHistogram("cluster.shipper.ack_lag_ns")) {}

LogShipper::~LogShipper() { Stop(); }

std::size_t LogShipper::AddFollower(std::string name,
                                    net::ClientTransport& transport) {
  std::lock_guard lock(mu_);
  Session s;
  s.name = std::move(name);
  s.transport = &transport;
  sessions_.push_back(std::move(s));
  {
    std::lock_guard published(published_mu_);
    published_.push_back(sessions_.back());
  }
  return sessions_.size() - 1;
}

std::size_t LogShipper::follower_count() const {
  std::lock_guard lock(published_mu_);
  return published_.size();
}

void LogShipper::PublishLocked() {
  std::lock_guard lock(published_mu_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    published_[i] = sessions_[i];
  }
}

Status LogShipper::DropSessionLocked(Session& s, Status cause) {
  // A broken session's cursor is released on the spot: shipping state is
  // soft, and the re-handshake restores it from the follower's own log.
  s.cursor.reset();
  s.pending_reset = false;
  s.retry_at = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(options_.ship_period_ms);
  ++s.drops;
  CX_LOG(kInfo, "cluster") << "dropped feed to " << s.name << ": "
                           << cause.ToString();
  return cause;
}

Status LogShipper::HandshakeLocked(Session& s) {
  // Anti-entropy handshake: probe the follower's (epoch, length).
  const std::shared_ptr<const store::SignatureLog> log = primary_.log();
  const std::uint64_t epoch = log->epoch();
  const net::ReplPullRequest probe{epoch, 0, 0};
  auto called = s.transport->Call(net::BuildReplPullRequest(probe));
  if (!called.ok()) return DropSessionLocked(s, called.status());
  const net::Response& resp = called.value();
  if (!resp.ok()) {
    return DropSessionLocked(s, Status::Error(resp.code, resp.error));
  }
  const auto reply = net::ParseReplPullReply(resp);
  if (!reply) {
    return DropSessionLocked(
        s, Status::Error(ErrorCode::kDataLoss, "bad REPL_PULL reply"));
  }
  ++s.handshakes;
  s.epoch = epoch;
  // Resume only when the follower is a *prefix* of our log: same
  // epoch AND not ahead of us. A follower that acknowledged more
  // entries than we hold outran a primary restarted from a stale
  // snapshot — the logs forked under one epoch, and the only safe
  // repair is a full rebuild.
  if (reply->epoch == epoch && reply->log_size <= log->size()) {
    s.cursor = reply->log_size;  // resume where the follower stands
    s.pending_reset = false;
  } else {
    s.cursor = 0;  // divergent lineage: restart under our epoch
    s.pending_reset = true;
  }
  return Status::Ok();
}

Status LogShipper::EnsureSessionLocked(Session& s) {
  if (s.cursor.has_value() && s.epoch != primary_.epoch()) {
    // The primary changed lineage (Compact, LoadFromFile) since this
    // cursor was set, so it indexes the old log. A caught-up follower
    // would otherwise keep the old epoch until the next ADD.
    s.cursor.reset();
    s.pending_reset = false;
  }
  if (s.cursor.has_value()) return Status::Ok();
  return HandshakeLocked(s);
}

bool LogShipper::Synced(const Progress& p, std::uint64_t size,
                        std::uint64_t epoch) {
  return p.cursor.has_value() && !p.pending_reset && p.epoch == epoch &&
         *p.cursor == size;
}

std::uint64_t LogShipper::Lag(const Progress& p, std::uint64_t size,
                              std::uint64_t epoch) {
  const bool live =
      p.cursor.has_value() && !p.pending_reset && p.epoch == epoch;
  return live ? size - std::min<std::uint64_t>(*p.cursor, size) : size;
}

std::optional<LogShipper::PreparedStep> LogShipper::PrepareSendLocked(
    Session& s) {
  // One log snapshot: the frame's epoch and entries name the same log.
  const std::shared_ptr<const store::SignatureLog> log = primary_.log();
  const std::uint64_t size = log->size();
  if (*s.cursor > size) {
    // Fork seen from a live session: the primary's log shrank under us
    // (stale-snapshot reload). Rebuild the follower.
    s.cursor = 0;
    s.pending_reset = true;
  }
  if (*s.cursor >= size && !s.pending_reset) return std::nullopt;

  net::ReplBatchRequest batch;
  batch.token.assign(repl_token_.begin(), repl_token_.end());
  batch.epoch = log->epoch();
  batch.reset = s.pending_reset;
  batch.from_index = *s.cursor;
  const std::uint64_t upto =
      std::min<std::uint64_t>(size, *s.cursor + options_.batch_limit);
  log->Visit(
      *s.cursor, upto,
      [&](std::uint64_t, const store::EntryView& entry) {
        batch.entries.push_back(net::ReplEntry{
            entry.sender, entry.added_at,
            std::vector<std::uint8_t>(entry.bytes.begin(),
                                      entry.bytes.end())});
      });
  PreparedStep step;
  step.request = net::BuildReplBatchRequest(batch);
  step.epoch = batch.epoch;
  step.from_index = batch.from_index;
  step.reset = batch.reset;
  if (!batch.entries.empty()) step.first_added_at = batch.entries[0].added_at;
  return step;
}

Result<std::size_t> LogShipper::ProcessReplyLocked(Session& s,
                                                   const PreparedStep& step,
                                                   const net::Response& resp) {
  if (!resp.ok()) {
    // kFailedPrecondition covers follower restarts (epoch changed under
    // us) and gaps; both heal through a fresh handshake.
    return DropSessionLocked(s, Status::Error(resp.code, resp.error));
  }
  const auto reply = net::ParseReplBatchReply(resp);
  if (!reply || reply->epoch != step.epoch) {
    return DropSessionLocked(
        s, Status::Error(ErrorCode::kDataLoss, "bad shipping reply"));
  }
  // The follower is now on the frame's lineage.
  s.epoch = step.epoch;
  if (reply->log_size < step.from_index) {
    return DropSessionLocked(
        s, Status::Error(ErrorCode::kDataLoss, "bad REPL_BATCH reply"));
  }
  if (s.pending_reset) {
    s.pending_reset = false;
    ++s.resets;
  }
  // The follower's committed length is the durable cursor; trusting it
  // (rather than from_index + count) keeps retransmissions idempotent.
  const std::uint64_t shipped = reply->log_size - *s.cursor;
  s.cursor = reply->log_size;
  s.entries_shipped += shipped;
  if (step.first_added_at.has_value()) {
    // Committed on the primary -> applied on the follower, for the
    // batch's oldest entry.
    const TimePoint now = primary_.clock().Now();
    ack_lag_->Report(
        now > *step.first_added_at
            ? static_cast<std::uint64_t>(now - *step.first_added_at)
            : 0);
  }
  return static_cast<std::size_t>(shipped);
}

Result<std::size_t> LogShipper::ShipOnceLocked(Session& s) {
  if (Status hs = EnsureSessionLocked(s); !hs.ok()) return hs;
  const auto step = PrepareSendLocked(s);
  if (!step) return std::size_t{0};  // caught up
  auto called = s.transport->Call(step->request);
  if (!called.ok()) return DropSessionLocked(s, called.status());
  return ProcessReplyLocked(s, *step, called.value());
}

Result<std::size_t> LogShipper::ShipOnce(std::size_t id) {
  std::lock_guard lock(mu_);
  auto shipped = ShipOnceLocked(sessions_.at(id));
  PublishLocked();
  return shipped;
}

std::size_t LogShipper::ShipRound() { return RunRound(false).entries; }

LogShipper::RoundOutcome LogShipper::RunRound(bool backoff) {
  std::lock_guard lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  RoundOutcome outcome;
  std::size_t frames = 0;
  // A frame moves its follower forward when it ships entries or makes
  // the follower adopt the primary's lineage.
  const auto account = [&](const PreparedStep& step, Result<std::size_t> r) {
    if (!r.ok()) return;
    outcome.entries += r.value();
    if (r.value() > 0 || step.reset) outcome.progressed = true;
  };

  // Phase 1: handshake sessionless followers (rare, synchronous) and
  // prepare this round's outbound frame for everyone else. Followers on
  // plain Call transports ship synchronously here.
  struct Outbound {
    std::size_t session;
    PreparedStep step;
    net::PipelinedClientTransport* transport;
    bool sent = false;
  };
  std::vector<Outbound> pipelined;
  pipelined.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = sessions_[i];
    if (backoff && !s.cursor.has_value() && now < s.retry_at) continue;
    if (!EnsureSessionLocked(s).ok()) continue;
    auto step = PrepareSendLocked(s);
    if (!step) continue;  // caught up
    ++frames;
    auto* pipe = dynamic_cast<net::PipelinedClientTransport*>(s.transport);
    if (pipe == nullptr) {
      auto called = s.transport->Call(step->request);
      if (!called.ok()) {
        (void)DropSessionLocked(s, called.status());
        continue;
      }
      account(*step, ProcessReplyLocked(s, *step, called.value()));
      continue;
    }
    pipelined.push_back(Outbound{i, std::move(*step), pipe});
  }

  // Phase 2: every pipelined frame goes out before any reply is read —
  // the followers apply their frames concurrently, so the round costs
  // one round trip plus the slowest apply, not the sum.
  for (Outbound& out : pipelined) {
    const Status sent = out.transport->Send(out.step.request);
    if (!sent.ok()) {
      (void)DropSessionLocked(sessions_[out.session], sent);
      continue;
    }
    out.sent = true;
  }

  // Phase 3: collect replies in send order (one outstanding request per
  // transport, so Receive pairs with this round's Send).
  for (Outbound& out : pipelined) {
    if (!out.sent) continue;
    auto called = out.transport->Receive();
    if (!called.ok()) {
      (void)DropSessionLocked(sessions_[out.session], called.status());
      continue;
    }
    account(out.step, ProcessReplyLocked(sessions_[out.session], out.step,
                                         called.value()));
  }

  if (frames > 0) rounds_.fetch_add(1, std::memory_order_relaxed);
  PublishLocked();
  const std::shared_ptr<const store::SignatureLog> log = primary_.log();
  const std::uint64_t size = log->size();
  const std::uint64_t epoch = log->epoch();
  outcome.behind = std::any_of(
      sessions_.begin(), sessions_.end(),
      [&](const Session& s) { return !Synced(s, size, epoch); });
  return outcome;
}

bool LogShipper::PumpUntilSynced(std::size_t max_rounds) {
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (!RunRound(false).behind) return true;
  }
  return false;
}

void LogShipper::Start() {
  if (running_.exchange(true)) return;
  daemon_ = std::thread([this] { DaemonLoop(); });
}

void LogShipper::Stop() {
  if (!running_.exchange(false)) return;
  primary_.InterruptCommitWaiters();
  if (daemon_.joinable()) daemon_.join();
}

void LogShipper::DaemonLoop() {
  using SteadyClock = std::chrono::steady_clock;
  const auto stopped = [this] { return !running_.load(); };
  while (running_.load()) {
    // Read before the round reads the log: a commit the round misses
    // moves the sequence past `seen`, so the wait below returns at once.
    const std::uint64_t seen = primary_.commit_seq();
    // Commits that land while this round's frames are in flight share
    // the next round: one outstanding frame per follower is the only
    // coalescing, so a commit to an idle shipper ships at once.
    const RoundOutcome round = RunRound(true);
    if (round.behind && round.progressed) continue;  // drain, no timer
    // Synced: park until the next commit. Behind without progress (a
    // follower unreachable or refusing frames): retry after the period.
    // A dropped follower also sits out the period while others drain.
    const auto deadline =
        round.behind ? SteadyClock::now() +
                           std::chrono::milliseconds(options_.ship_period_ms)
                     : SteadyClock::time_point::max();
    primary_.WaitForCommit(seen, deadline, stopped);
  }
}

LogShipper::FollowerStatus LogShipper::GetFollowerStatus(
    std::size_t id) const {
  const std::shared_ptr<const store::SignatureLog> log = primary_.log();
  const std::uint64_t size = log->size();
  const std::uint64_t epoch = log->epoch();
  std::lock_guard lock(published_mu_);
  const Progress& p = published_.at(id);
  FollowerStatus out;
  out.name = p.name;
  out.cursor = p.cursor;
  out.lag = Lag(p, size, epoch);
  out.entries_shipped = p.entries_shipped;
  out.handshakes = p.handshakes;
  out.resets = p.resets;
  out.drops = p.drops;
  return out;
}

std::size_t LogShipper::active_feed_cursors() const {
  std::lock_guard lock(published_mu_);
  return static_cast<std::size_t>(
      std::count_if(published_.begin(), published_.end(),
                    [](const Progress& p) { return p.cursor.has_value(); }));
}

obs::ProbeHandle LogShipper::ExportStats(obs::MetricsRegistry& registry) const {
  return registry.RegisterProbe([this](obs::ProbeSink& sink) {
    const std::shared_ptr<const store::SignatureLog> log = primary_.log();
    const std::uint64_t size = log->size();
    const std::uint64_t epoch = log->epoch();
    std::uint64_t shipped = 0, handshakes = 0, resets = 0, drops = 0;
    std::uint64_t lag = 0, cursors = 0, followers = 0;
    const std::uint64_t rounds = rounds_.load(std::memory_order_relaxed);
    {
      std::lock_guard lock(published_mu_);
      followers = published_.size();
      for (const Progress& p : published_) {
        shipped += p.entries_shipped;
        handshakes += p.handshakes;
        resets += p.resets;
        drops += p.drops;
        lag += Lag(p, size, epoch);
        if (p.cursor.has_value()) ++cursors;
      }
    }
    sink.EmitCounter("cluster.shipper.entries_shipped", shipped);
    sink.EmitCounter("cluster.shipper.handshakes", handshakes);
    sink.EmitCounter("cluster.shipper.resets", resets);
    sink.EmitCounter("cluster.shipper.drops", drops);
    sink.EmitCounter("cluster.shipper.rounds", rounds);
    sink.EmitGauge("cluster.shipper.followers", followers);
    sink.EmitGauge("cluster.shipper.active_feed_cursors", cursors);
    sink.EmitGauge("cluster.shipper.total_lag", lag);
  });
}

}  // namespace communix::cluster
