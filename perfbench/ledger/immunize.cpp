// The community path of every workload: user A's plugin uploads deadlock
// signatures to the primary; peer users poll the follower, let their
// agent validate and install what arrived, and then make one guarded
// acquisition along the new signature's outer stack. Time-to-immunity
// runs from UploadSignature's start to the end of that acquisition, and
// counts only when the acquisition really consulted an installed
// signature (the runtime's candidate-hit counters moved).
#include <algorithm>
#include <chrono>
#include <thread>

#include "communix/agent.hpp"
#include "communix/client.hpp"
#include "communix/plugin.hpp"
#include "dimmunix/runtime.hpp"
#include "ledger/daemons.hpp"
#include "ledger/run.hpp"
#include "ledger/traffic.hpp"
#include "net/tcp.hpp"
#include "sim/attacker.hpp"
#include "sim/stacks.hpp"
#include "util/clock.hpp"

namespace ledger {

using communix::CommunixAgent;
using communix::CommunixClient;
using communix::CommunixPlugin;
using communix::LocalRepository;
using communix::SigState;
using communix::Status;
using communix::SystemClock;
using communix::dimmunix::DimmunixRuntime;
using communix::dimmunix::Monitor;
using communix::dimmunix::Signature;
using communix::dimmunix::ThreadContext;

namespace {

std::atomic<std::uint64_t> g_next_span_id{1};

/// Sleeps to just short of `t`, then spins: a timer wake-up can be late
/// by far more than the requests being timed take.
void SleepUntil(Nanos t) {
  constexpr Nanos kSpin = 200'000;
  const Nanos now = NowNs();
  if (t - kSpin > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - kSpin - now));
  }
  while (NowNs() < t) {
  }
}

}  // namespace

std::uint64_t SpanLog::Add(const char* name, Nanos start, Nanos end,
                           std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::uint64_t id = g_next_span_id.fetch_add(1);
  spans_.push_back(Span{id, parent, name, start, end});
  return id;
}

std::unique_ptr<CommunityApp> BuildCommunityApp(std::uint64_t seed) {
  auto out = std::make_unique<CommunityApp>();
  communix::bytecode::SyntheticSpec spec;
  spec.name = "community-app";
  spec.target_loc = 60'000;
  spec.sync_blocks = 300;
  spec.analyzable_sync_blocks = 160;
  spec.nested_sync_blocks = 64;
  spec.classes = 60;
  spec.driver_chain_length = 10;
  spec.seed = seed;
  out->app = communix::bytecode::GenerateApp(spec);
  const Nanos t0 = NowNs();
  out->nesting =
      communix::bytecode::NestingAnalysis(out->app.program).AnalyzeAll();
  out->nesting_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (const std::int32_t site : out->app.nested_sites) {
    out->site_paths.push_back(
        communix::sim::CanonicalStackFrames(out->app, site));
    out->site_lines.push_back(out->app.program.lock_site(site).line);
  }
  return out;
}

struct Community::Peer {
  DimmunixRuntime runtime{SystemClock::Instance()};
  LocalRepository repo;
  std::unique_ptr<CommunixClient> client;
  std::unique_ptr<CommunixAgent> agent;
  std::vector<std::unique_ptr<Monitor>> monitors;  // one per nested site
};

Community::Community(const CommunityApp& app, std::uint16_t primary_port,
                     std::uint16_t follower_port, int peers,
                     std::uint64_t seed)
    : app_(app),
      primary_port_(primary_port),
      follower_port_(follower_port),
      seed_(seed) {
  for (int p = 0; p < peers; ++p) peers_.push_back(std::make_unique<Peer>());
}

Community::~Community() = default;

Status Community::Setup() {
  if (auto s = primary_conn_.Connect("127.0.0.1", primary_port_); !s.ok()) {
    return s;
  }
  if (auto s = follower_conn_.Connect("127.0.0.1", follower_port_); !s.ok()) {
    return s;
  }
  for (auto& peer : peers_) {
    peer->client = std::make_unique<CommunixClient>(
        SystemClock::Instance(), follower_conn_, peer->repo);
    peer->agent = std::make_unique<CommunixAgent>(
        peer->runtime, app_.app.program, peer->repo, app_.nesting,
        CommunixAgent::Options{});
    for (std::size_t i = 0; i < app_.site_paths.size(); ++i) {
      peer->monitors.push_back(
          std::make_unique<Monitor>("site" + std::to_string(i)));
    }
    // Warm-up: download and inspect everything already in the database.
    const auto polled = peer->client->PollOnce();
    if (!polled.ok()) return polled.status();
    (void)peer->agent->ProcessNewSignatures();
  }
  return Status::Ok();
}

void Community::RunUploader(Nanos start, Nanos end, double rate, bool probe,
                            SpanLog* spans) {
  uploader_done_.store(false);
  communix::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 0xA11CE + next_user_);
  PoissonGaps gaps(rate, seed_ + 0x5EED + next_user_);
  const communix::IdAuthority authority;
  DimmunixRuntime user_a(SystemClock::Instance());
  const auto& sites = app_.app.nested_sites;
  Nanos next = start + gaps.Next();
  for (;;) {
    // Half valid app signatures, half foreign fakes. A valid one is one
    // of a fixed set of bugs (nested-site pairs (i, i+1)) in a fresh
    // manifestation (outer and inner stack depths), so every upload is
    // new content while the peers' histories stay bounded by the bug
    // count: later manifestations generalize into the first (§III-D).
    // The signature is built before its due time, so the measured
    // latency is the upload's alone.
    Signature sig;
    int site = -1;
    if (rng.NextBool(0.5) && sites.size() >= 2) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto a = static_cast<int>(rng.NextBounded(sites.size()));
        const auto b = static_cast<int>((a + 1) % sites.size());
        const std::size_t outer = 5 + rng.NextBounded(4);
        const std::size_t inner = 2 + rng.NextBounded(10);
        auto entries = communix::sim::MakeCriticalPathSignature(
                           app_.app, sites[a], sites[b], outer)
                           .entries();
        for (auto& e : entries) e.inner.TrimToDepth(inner);
        sig = Signature(std::move(entries));
        std::lock_guard lock(mu_);
        if (uploads_.count(sig.ContentId()) == 0) {
          site = a;
          break;
        }
      }
    }
    if (site < 0) sig = communix::sim::MakeRandomFakeSignature(rng);
    const communix::UserToken token =
        authority.Issue(communix::MakeUserId(9, next_user_++));
    CommunixPlugin plugin(user_a, app_.app.program, primary_conn_, token);
    const Signature hashed = plugin.AttachHashes(sig);
    const std::uint64_t cid = hashed.ContentId();

    if (next >= end) break;
    SleepUntil(next);
    const Nanos due = next;
    next += gaps.Next();
    const Nanos t1 = NowNs();
    {
      std::lock_guard lock(mu_);
      Upload& up = uploads_[cid];
      up.t0 = t1;
      up.site = site;
      up.bug_key = hashed.BugKey();
    }
    if (adds_sent != nullptr) adds_sent->fetch_add(1);
    const Status s = plugin.UploadSignature(sig);
    const Nanos t2 = NowNs();
    ++primary_requests_;
    ++result_.uploads;
    result_.upload_ms.Add(static_cast<double>(t2 - t1) / 1e6);
    result_.upload_lag_ms.Add(static_cast<double>(t1 - due) / 1e6);
    spans->Add("plugin.upload", t1, t2);
    if (s.ok()) {
      std::lock_guard lock(mu_);
      uploads_[cid].accepted = true;
    } else {
      ++result_.upload_failures;
    }
    result_.sent.emplace_back(token, hashed.ToBytes());
    if (probe) {
      const auto len = ProbeLogSize(primary_conn_);
      ++primary_requests_;
      if (len.ok()) result_.primary_lengths.push_back({NowNs(), len.value()});
    }
  }
  uploader_done_.store(true);
}

bool Community::AllImmune() {
  std::lock_guard lock(mu_);
  for (const auto& [cid, up] : uploads_) {
    if (up.accepted && up.site >= 0 &&
        up.immune_peers < static_cast<int>(peers_.size())) {
      return false;
    }
  }
  return true;
}

void Community::RunPeers(Nanos start, Nanos end, Nanos period, Nanos drain,
                         bool probe, SpanLog* spans) {
  std::vector<ThreadContext*> ctx;
  for (auto& peer : peers_) {
    ctx.push_back(&peer->runtime.AttachThread("peer"));
  }
  Nanos next = start;
  for (;;) {
    const Nanos now = NowNs();
    if (now >= end) {
      if (uploader_done_.load() && AllImmune()) break;
      if (now >= end + drain) break;
    }
    SleepUntil(next);
    next += period;
    if (probe) {
      const auto len = ProbeLogSize(follower_conn_);
      ++follower_requests_;
      if (len.ok()) result_.follower_lengths.push_back({NowNs(), len.value()});
      if (follower_ring != nullptr) follower_ring->ScrapeOnce(follower_conn_);
    }
    for (std::size_t p = 0; p < peers_.size(); ++p) {
      Peer& peer = *peers_[p];
      const std::size_t before = peer.repo.size();
      const Nanos t1 = NowNs();
      const auto polled = peer.client->PollOnce();
      const Nanos t2 = NowNs();
      ++follower_requests_;
      ++result_.polls;
      result_.poll_ms.Add(static_cast<double>(t2 - t1) / 1e6);
      const std::uint64_t poll_span = spans->Add("client.poll", t1, t2);
      if (!polled.ok()) {
        ++result_.poll_failures;
        continue;
      }
      if (probe) {
        result_.poll_counts.push_back(static_cast<std::uint32_t>(polled.value()));
      }
      if (polled.value() == 0) continue;
      ++result_.useful_polls;
      const Nanos t3 = NowNs();
      const auto report = peer.agent->ProcessNewSignatures();
      const Nanos t4 = NowNs();
      result_.scan_ms.Add(static_cast<double>(t4 - t3) / 1e6);
      const std::uint64_t scan_span =
          spans->Add("agent.scan", t3, t4, poll_span);
      result_.examined += report.examined;
      result_.accepted += report.accepted;
      result_.merged += report.merged;

      for (std::size_t idx = before; idx < peer.repo.size(); ++idx) {
        if (peer.repo.state(idx) != SigState::kAccepted) continue;
        const auto bytes = peer.repo.bytes(idx);
        const auto sig = Signature::FromBytes(
            std::span<const std::uint8_t>(bytes.data(), bytes.size()));
        if (!sig) continue;
        Nanos t0 = 0;
        int site = -1;
        {
          std::lock_guard lock(mu_);
          const auto it = uploads_.find(sig->ContentId());
          if (it == uploads_.end()) continue;
          t0 = it->second.t0;
          site = it->second.site;
        }
        if (site < 0) continue;
        // One acquisition along the signature's outer stack.
        ThreadContext& c = *ctx[p];
        for (const auto& f : app_.site_paths[site]) c.PushFrame(f);
        c.SetLine(app_.site_lines[site]);
        const auto s0 = peer.runtime.GetStats();
        const Nanos ta = NowNs();
        const Status acquired = peer.runtime.Acquire(c, *peer.monitors[site]);
        const Nanos tb = NowNs();
        if (acquired.ok()) peer.runtime.Release(c, *peer.monitors[site]);
        for (std::size_t i = 0; i < app_.site_paths[site].size(); ++i) {
          c.PopFrame();
        }
        const auto s1 = peer.runtime.GetStats();
        spans->Add("dimmunix.acquire", ta, tb, scan_span);
        if (s1.instantiation_scans + s1.scans_skipped >
            s0.instantiation_scans + s0.scans_skipped) {
          result_.immunity_ms.Add(static_cast<double>(tb - t0) / 1e6);
          result_.acquire_us.Add(static_cast<double>(tb - ta) / 1e3);
          std::lock_guard lock(mu_);
          ++uploads_[sig->ContentId()].immune_peers;
        } else {
          ++result_.unconsulted;
        }
      }
    }
  }
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    peers_[p]->runtime.DetachThread(*ctx[p]);
  }
}

void Community::CheckHistories() {
  std::lock_guard lock(mu_);
  result_.missing_immunity = 0;
  result_.missing_history = 0;
  double history_total = 0;
  for (auto& peer : peers_) {
    const auto history = peer->runtime.SnapshotHistory();
    history_total += static_cast<double>(history.size());
    for (const auto& [cid, up] : uploads_) {
      if (!up.accepted || up.site < 0) continue;
      if (history.FindByBugKey(up.bug_key).empty()) ++result_.missing_history;
    }
    const auto stats = peer->runtime.GetStats();
    result_.index_republishes += stats.index_republishes;
    result_.index_entries_reused += stats.index_entries_reused;
  }
  for (const auto& [cid, up] : uploads_) {
    if (up.accepted && up.site >= 0 &&
        up.immune_peers < static_cast<int>(peers_.size())) {
      ++result_.missing_immunity;
    }
  }
  result_.history_size =
      peers_.empty() ? 0 : history_total / static_cast<double>(peers_.size());
}

}  // namespace ledger
