// ledger — the Communix community benchmark.
//
//   ledger --workload poll-feed|upload-storm|immunize --seed N --seconds S
//          --trace 0|1 --server PATH/communix_server --work DIR
//          [--setups N] [--get-rate R] [--add-rate R]
//
// Starts a real follower daemon and a primary that ships to it, loads
// the workload's seeded traffic over at most four connections from at
// most four threads, checks every reply, and prints one JSON result as
// its last line. --trace 0 reports the end-to-end metrics; --trace 1
// runs the workload twice (untraced, then with --slow-ns 1 daemons and
// in-process spans) and reports the per-layer breakdown. See
// perfbench/README.md for every metric's definition.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "communix/ids.hpp"
#include "communix/store/signature_store.hpp"
#include "dimmunix/signature.hpp"
#include "ledger/catalogue.hpp"
#include "ledger/daemons.hpp"
#include "ledger/procfs.hpp"
#include "ledger/run.hpp"
#include "ledger/stats.hpp"
#include "ledger/traffic.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace ledger {
namespace {

using communix::ErrorCode;
using communix::Status;
using communix::UserToken;
using communix::obs::MetricsSnapshot;

constexpr std::size_t kPollFeedDaemons = 20'000;
constexpr double kOpenShare = 0.7;  // of --seconds; the rest is capacity
// How long the peers may keep polling after the window for the last
// uploads to immunize them, and how long the quiesce waits for the
// replication counters to agree. Both end as soon as their condition
// holds, so they cost nothing on a healthy run; they are long so that a
// host stall is not mistaken for a lost signature.
constexpr Nanos kDrain = 20'000'000'000;
constexpr Nanos kQuiesce = 20'000'000'000;
constexpr double kCapacityFrames = 150'000;  // storm frames, capacity phase
constexpr Nanos kCapacityBucket = 100'000'000;
constexpr std::size_t kMaxReplayReads = 20'000;

constexpr double kUploadRate = 300;          // user-A uploads per second
constexpr int kPeers = 3;                      // peer users
constexpr Nanos kPeerPeriod = 2'000'000;       // peer poll cadence

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work;
  int setups = 3;
  double get_rate = -1;  // overrides for offered-load sweeps
  double add_rate = -1;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "ledger: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--server") a.server = v;
    else if (flag == "--work") a.work = v;
    else if (flag == "--setups") a.setups = std::max(1, std::atoi(v.c_str()));
    else if (flag == "--get-rate") a.get_rate = std::atof(v.c_str());
    else if (flag == "--add-rate") a.add_rate = std::atof(v.c_str());
    else Die("unknown flag " + flag);
  }
  if (a.server.empty() || a.work.empty()) Die("--server and --work are required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

/// What a workload offers. Every workload runs all traffic classes —
/// GETs and storm ADDs to the primary, and the community path (user-A
/// uploads to the primary, peers polling the follower and immunizing) —
/// in different proportions, so every metric is measured on every
/// workload.
///
/// Each daemon has exactly one connection that reads its log (GET) at a
/// time: the GET lane reads the primary, the peers read the follower.
/// Two connections GETting the same cursor from one daemon while its log
/// grows can be served a corrupted reply by the sharded store's read
/// cache (perfbench/README.md, "A read-cache race"), which would make
/// runs fail at random rather than measure anything.
struct Profile {
  std::string name;
  std::size_t preload = 0;  // signatures in the database before timing
  bool zipf_gets = false;   // poll-feed lags (else near-head GETs)
  double get_rate = 0;      // open-loop GETs per second
  double add_rate = 0;      // open-loop storm ADD frames per second
  // Capacity phase: closed loop at these depths; a share > 0 holds that
  // class to its share of all completions.
  int peak_get_depth = 0;
  double peak_get_share = 0;
  int peak_add_depth = 0;
  double peak_add_share = 0;
};

Profile MakeProfile(const std::string& workload) {
  Profile p;
  p.name = workload;
  if (workload == "poll-feed") {
    p.preload = 10'000;
    p.zipf_gets = true;
    p.get_rate = 1'000;
    p.add_rate = 500;  // keeps the primary awake; ADDs stay ~1% of bytes
    p.peak_get_depth = 16;
    p.peak_add_depth = 2;
    p.peak_add_share = 0.03;
  } else if (workload == "upload-storm") {
    p.get_rate = 1'000;
    p.add_rate = 5'000;
    p.peak_add_depth = 32;
    p.peak_get_depth = 2;
    p.peak_get_share = 0.05;
  } else if (workload == "immunize") {
    // A steady balanced background (near-head polls, a trickle of
    // storm ADDs) keeps both daemons awake, so request latencies do not
    // hinge on idle-CPU wake-ups; the immunity path is the workload.
    p.get_rate = 6'000;
    p.add_rate = 2'000;
    p.peak_get_depth = 8;
    p.peak_get_share = 0.6;
    p.peak_add_depth = 16;
  } else {
    Die("unknown workload '" + workload + "'");
  }
  return p;
}

// ---- one set-up ------------------------------------------------------------

struct World {
  Cluster cluster;
  std::unique_ptr<CommunityApp> app;
  std::unique_ptr<StormPlan> plan;
  std::unique_ptr<Community> community;
  std::unique_ptr<GetTraffic> gets;
  std::unique_ptr<AddTraffic> adds;
  std::atomic<std::uint64_t> adds_sent{0};
  std::uint64_t head = 0;  // caught-up log length before timing
  std::vector<std::pair<UserToken, std::vector<std::vector<std::uint8_t>>>>
      preloaded;  // for the replays
};

Status Setup(const Args& args, const Profile& p, bool trace, int rep,
             World* w) {
  const std::string dir = args.work + "/" + p.name + "-" +
                          std::to_string(args.seed) + "-" +
                          (trace ? "traced-" : "") + std::to_string(rep);
  if (auto s = w->cluster.Start(args.server, dir, trace); !s.ok()) return s;
  const std::uint16_t pport = w->cluster.primary().port;
  const std::uint16_t fport = w->cluster.follower().port;
  w->app = BuildCommunityApp(args.seed);

  const communix::IdAuthority authority;
  if (p.preload > 0) {
    // 10 distinct bugs per user (the daily quota), one ADD_BATCH each.
    FixedBatch preload;
    for (std::size_t u = 0; u * 10 < p.preload; ++u) {
      const UserToken token = authority.Issue(communix::MakeUserId(7, u));
      std::vector<std::vector<std::uint8_t>> sigs;
      for (std::size_t k = 0; k < 10 && u * 10 + k < p.preload; ++k) {
        sigs.push_back(BugSignature("preload", u * 10 + k).ToBytes());
      }
      preload.bodies.push_back(
          communix::net::BuildAddBatchRequest(
              std::span<const std::uint8_t>(token.data(), token.size()),
              std::span<const std::vector<std::uint8_t>>(sigs.data(),
                                                         sigs.size()))
              .Serialize());
      w->preloaded.emplace_back(token, std::move(sigs));
    }
    Source src = preload.Closed(16);
    if (auto s = RunFixed(pport, {&src}, 120, nullptr); !s.ok()) return s;
    if (preload.bad > 0) {
      return Status::Error(ErrorCode::kInternal, "preload ADDs refused");
    }
  }

  StormSpec spec;
  spec.seed = args.seed;
  spec.first_user = communix::MakeUserId(3, 1);
  spec.catalogue = 5'000;
  // Enough users for the open-loop window plus a fixed capacity-phase
  // budget: the capacity phase ends early when the plan runs dry, so
  // what it adds to the database (and to the follower's catch-up) does
  // not grow with the daemons' speed.
  const double add_rate = args.add_rate >= 0 ? args.add_rate : p.add_rate;
  const double frames = add_rate * args.seconds * kOpenShare * 1.2 +
                        kCapacityFrames;
  w->plan = std::make_unique<StormPlan>(
      spec, static_cast<std::size_t>(frames / 3.0) + 64);
  w->adds = std::make_unique<AddTraffic>(w->plan.get(), &w->adds_sent);
  // Warm-up ADDs from their own users: each a new bug, all accepted.
  FixedBatch warm_adds;
  for (std::size_t u = 0; u < 200; ++u) {
    warm_adds.bodies.push_back(AddRequestBody(
        authority.Issue(communix::MakeUserId(8, u)),
        BugSignature("warmup-" + std::to_string(rep), u).ToBytes()));
  }
  Source add_src = warm_adds.Closed(8);
  if (auto s = RunFixed(pport, {&add_src}, 30, nullptr); !s.ok()) return s;
  if (warm_adds.bad > 0) {
    return Status::Error(ErrorCode::kInternal, "warm-up ADDs refused");
  }
  if (auto s = WaitCaughtUp(pport, fport, 60'000, &w->head); !s.ok()) return s;

  w->community =
      std::make_unique<Community>(*w->app, pport, fport, kPeers, args.seed);
  w->community->adds_sent = &w->adds_sent;
  if (auto s = w->community->Setup(); !s.ok()) return s;

  w->gets = std::make_unique<GetTraffic>(p.zipf_gets, kPollFeedDaemons,
                                         w->head, args.seed * 31 + 7,
                                         &w->adds_sent);
  // Warm the primary's read path (and its 2Q cache) with GETs of the
  // workload's shape from their own stream.
  GetTraffic warm_gets(p.zipf_gets, kPollFeedDaemons, w->head,
                       args.seed * 31 + 8, &w->adds_sent);
  Source get_src = warm_gets.Closed(8, 0);
  LaneResult warm;
  (void)RunFixed(pport, {&get_src}, 0.3, &warm);
  if (warm.transport_error || warm_gets.failures > 0) {
    return Status::Error(ErrorCode::kInternal, "warm-up GETs failed");
  }
  w->adds_sent = 0;
  w->gets->set_floor(w->head);
  return Status::Ok();
}

// ---- one measured instance --------------------------------------------------

struct DaemonReading {
  MetricsSnapshot snap;
  ProcSample proc;
};

Status Read(std::uint16_t port, int pid, DaemonReading* out) {
  communix::net::TcpClient c;
  if (auto s = c.Connect("127.0.0.1", port); !s.ok()) return s;
  auto snap = Scrape(c);
  if (!snap.ok()) return snap.status();
  out->snap = std::move(snap.value());
  const auto proc = ReadProc(pid);
  if (!proc) return Status::Error(ErrorCode::kUnavailable, "cannot read /proc");
  out->proc = *proc;
  return Status::Ok();
}

double Delta(const DaemonReading& before, const DaemonReading& after,
             const char* name) {
  return static_cast<double>(after.snap.Value(name)) -
         static_cast<double>(before.snap.Value(name));
}

/// (count, sum_ns) of a registry histogram over the window.
std::pair<double, double> HistDelta(const DaemonReading& before,
                                    const DaemonReading& after,
                                    const char* name) {
  const auto* a = after.snap.FindHistogram(name);
  const auto* b = before.snap.FindHistogram(name);
  if (a == nullptr || b == nullptr) return {0, 0};
  return {static_cast<double>(a->count - b->count),
          static_cast<double>(a->sum_ns - b->sum_ns)};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Outcome {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::uint64_t> failures;  // by check
  std::map<std::string, std::size_t> samples;     // by metric
  std::set<std::string> unsupported;  // percentiles past their sample
  std::uint64_t attempted = 0;
  std::string flags;
  std::vector<Span> spans;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// A percentile of `s` under the reporting rule (ReportQ), with its
  /// sample count.
  void SetQ(const std::string& name, const Sample& s, double q,
            const std::string& unit, bool lower_is_better = true,
            bool chunked = false) {
    const Percentile p = ReportQ(s, q, lower_is_better, chunked);
    Set(name, p.value, unit);
    samples[name] = p.n;
    if (!p.supported) unsupported.insert(name);
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [k, v] : failures) n += v;
    return n;
  }
};

/// Ship lag: for each observed primary length, the time until a
/// follower observation covers it; also the largest entry gap seen.
void ShipLag(const CommunityResult& r, Sample* lag_ms,
             std::uint64_t* max_entries) {
  const auto& ps = r.primary_lengths;
  const auto& fs = r.follower_lengths;
  std::size_t j = 0;
  for (const auto& p : ps) {
    while (j < fs.size() && fs[j].at < p.at) ++j;
    std::size_t k = j;
    while (k < fs.size() && fs[k].length < p.length) ++k;
    if (k < fs.size()) lag_ms->Add(static_cast<double>(fs[k].at - p.at) / 1e6);
  }
  *max_entries = 0;
  std::size_t i = 0;
  for (const auto& f : fs) {
    while (i + 1 < ps.size() && ps[i + 1].at <= f.at) ++i;
    if (!ps.empty() && ps[i].at <= f.at && ps[i].length > f.length) {
      *max_entries = std::max(*max_entries, ps[i].length - f.length);
    }
  }
}

/// In-process replays of the recorded streams (traced runs, after the
/// window): token decode, signature decode, store ADD on 1 and nproc
/// threads, and ReadSince over the recorded GET cursors.
void Replays(const World& w, const std::vector<std::uint32_t>& counts,
             Outcome* out) {
  struct Add {
    const UserToken* token;
    const std::vector<std::uint8_t>* sig;
  };
  std::vector<Add> stream;
  for (const auto& [token, sigs] : w.preloaded) {
    for (const auto& s : sigs) stream.push_back({&token, &s});
  }
  for (const auto& f : w.adds->recorded) {
    for (const auto& s : f->sigs) stream.push_back({&f->token, &s});
  }
  for (const auto& [token, sig] : w.community->result().sent) {
    stream.push_back({&token, &sig});
  }

  const communix::IdAuthority authority;
  Sample decode_ns, sig_us;
  struct Decoded {
    communix::UserId user;
    communix::dimmunix::Signature sig;
  };
  std::vector<Decoded> decoded;
  for (const Add& a : stream) {
    const Nanos t0 = NowNs();
    const auto user = authority.Decode(*a.token);
    const Nanos t1 = NowNs();
    auto sig = communix::dimmunix::Signature::FromBytes(*a.sig);
    const Nanos t2 = NowNs();
    decode_ns.Add(static_cast<double>(t1 - t0));
    sig_us.Add(static_cast<double>(t2 - t1) / 1e3);
    if (user && sig) decoded.push_back({*user, std::move(*sig)});
  }
  out->SetQ("server.token_decode.p50_ns", decode_ns, 0.5, "ns");
  out->SetQ("server.sig_decode.p50_us", sig_us, 0.5, "us");

  const std::int64_t day = communix::SystemClock::Instance().Now() /
                           communix::kNanosPerDay;
  const communix::store::Limits limits{10, true, 0};
  auto replay_one = [&](communix::store::SignatureStore& store,
                        const Decoded& d) {
    return store.Add(d.user, day, communix::store::TopFrameSet(d.sig),
                     d.sig.ContentId(), d.sig, 0, limits);
  };
  auto single = communix::store::SignatureStore::Create({});
  Sample add_us;
  for (const Decoded& d : decoded) {
    const Nanos t0 = NowNs();
    (void)replay_one(*single, d);
    add_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  out->SetQ("store.replay.add.p50_us", add_us, 0.5, "us");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  auto shared = communix::store::SignatureStore::Create({});
  const Nanos t0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nproc; ++t) {
      threads.emplace_back([&, t] {
        // Users are partitioned across threads, so per-user order holds.
        for (const Decoded& d : decoded) {
          if (d.user % nproc == t) (void)replay_one(*shared, d);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->Set("store.replay.add_rps_nproc",
           Ratio(static_cast<double>(decoded.size()), elapsed_s), "1/s");

  // Each recorded GET is replayed as a read of the same number of
  // entries back from the replayed log's head.
  Sample read_us;
  const std::uint64_t size = single->size();
  for (std::size_t i = 0; i < counts.size() && i < kMaxReplayReads; ++i) {
    const std::uint64_t from = size - std::min<std::uint64_t>(counts[i], size);
    const Nanos r0 = NowNs();
    (void)single->ReadSince(from);
    read_us.Add(static_cast<double>(NowNs() - r0) / 1e3);
  }
  out->SetQ("store.replay.read_since.p50_us", read_us, 0.5, "us");
}

/// Byte-compares sampled GET replies (served from the read cache) with
/// the same range of the primary's log, read back with entry-bearing
/// kReplPull requests (the replication principal's credential; GET
/// itself cannot stop at the sampled reply's end).
std::uint64_t CompareSamples(std::uint16_t primary_port,
                             const std::vector<GetSample>& samples) {
  if (samples.empty()) return 0;
  communix::net::TcpClient c;
  if (!c.Connect("127.0.0.1", primary_port).ok()) return samples.size();
  const auto epoch_probe = c.Call(communix::net::BuildReplPullRequest(
      communix::net::ReplPullRequest(0, 0, 0)));
  const auto probe = epoch_probe.ok()
                         ? communix::net::ParseReplPullReply(epoch_probe.value())
                         : std::nullopt;
  if (!probe) return samples.size();
  const UserToken peer =
      communix::IdAuthority().Issue(communix::kReplicationPeerId);
  std::uint64_t bad = 0;
  for (const GetSample& s : samples) {
    std::uint32_t count = 0;
    std::memcpy(&count, s.payload.data(), 4);
    communix::BinaryWriter expected;
    bool ok = true;
    for (std::uint64_t at = s.from; ok && at < s.from + count;) {
      communix::net::ReplPullRequest pull(
          probe->epoch, at,
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              4096, s.from + count - at)));
      pull.token.assign(peer.begin(), peer.end());
      const auto resp = c.Call(communix::net::BuildReplPullRequest(pull));
      const auto reply = resp.ok()
                             ? communix::net::ParseReplPullReply(resp.value())
                             : std::nullopt;
      ok = reply && !reply->reset && reply->start_index == at &&
           !reply->entries.empty();
      if (!ok) break;
      for (const auto& e : reply->entries) {
        expected.WriteBytes(std::span<const std::uint8_t>(e.sig_bytes.data(),
                                                          e.sig_bytes.size()));
      }
      at += reply->entries.size();
    }
    const auto& bytes = expected.data();
    ok = ok && bytes.size() == s.payload.size() - 4 &&
         std::memcmp(bytes.data(), s.payload.data() + 4, bytes.size()) == 0;
    bad += ok ? 0 : 1;
  }
  return bad;
}

/// Progress line on stderr: how long each phase of an instance took.
void Phase(const char* name, Nanos* last) {
  const Nanos now = NowNs();
  std::fprintf(stderr, "ledger: %-9s %.2f s\n", name,
               static_cast<double>(now - *last) / 1e9);
  *last = now;
}

Status RunInstance(const Args& args, const Profile& p, bool trace, int setups,
                   Outcome* out) {
  Nanos phase = NowNs();
  // ---- set-up, repeated; the last one is measured ----
  Sample setup_s;
  std::unique_ptr<World> w;
  for (int rep = 0; rep < setups; ++rep) {
    w.reset();
    w = std::make_unique<World>();
    const Nanos t0 = NowNs();
    if (auto s = Setup(args, p, trace, rep, w.get()); !s.ok()) return s;
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Phase("setup", &phase);
  // The median of the repeated set-ups (not a percentile of a sample).
  out->Set("setup_s", setup_s.Q(0.5), "s");
  out->Set("agent.nesting_analysis_s", w->app->nesting_s, "s");
  out->flags = w->cluster.FlagsSummary();
  const Daemon& primary = w->cluster.primary();
  const Daemon& follower = w->cluster.follower();

  SpanLog lane_spans_get(trace), lane_spans_add(trace), upload_spans(trace),
      peer_spans(trace);
  GetTraffic& gets = *w->gets;
  AddTraffic& adds = *w->adds;
  gets.spans = &lane_spans_get;
  gets.set_record(trace);
  adds.spans = &lane_spans_add;
  adds.set_record(trace);
  RingScraper primary_ring, follower_ring;

  DaemonReading pb, fb, pa, fa;
  if (auto s = Read(primary.port, primary.pid, &pb); !s.ok()) return s;
  if (auto s = Read(follower.port, follower.pid, &fb); !s.ok()) return s;

  // ---- open-loop window ----
  const double open_s = args.seconds * kOpenShare;
  const double peak_s = args.seconds - open_s;
  const double get_rate = args.get_rate >= 0 ? args.get_rate : p.get_rate;
  const double add_rate = args.add_rate >= 0 ? args.add_rate : p.add_rate;
  Community& community = *w->community;
  LaneResult get_lane, add_lane;
  Conn get_conn, add_conn;
  std::vector<Source> get_sources = {gets.OpenLoop(get_rate, args.seed * 3 + 1)};
  std::vector<Source> add_sources = {adds.OpenLoop(add_rate, args.seed * 5 + 2)};
  if (trace) {
    // The primary's ring rides the ADD lane; the follower's is scraped
    // by the peers on their tick (the follower's only connection).
    add_sources.push_back(primary_ring.Periodic(2'000'000));
    community.follower_ring = &follower_ring;
  }
  if (auto s = get_conn.Connect("127.0.0.1", primary.port); !s.ok()) return s;
  if (auto s = add_conn.Connect("127.0.0.1", primary.port); !s.ok()) return s;
  auto pointers = [](std::vector<Source>& v) {
    std::vector<Source*> out;
    for (auto& s : v) out.push_back(&s);
    return out;
  };
  const Nanos start = NowNs() + 20'000'000;
  const Nanos end = start + static_cast<Nanos>(open_s * 1e9);
  LaneOptions lane;
  lane.start = start;
  lane.end = end;
  {
    std::thread get_thread(
        [&] { get_lane = RunLane(get_conn, pointers(get_sources), lane); });
    std::thread uploader([&] {
      community.RunUploader(start, end, kUploadRate, trace, &upload_spans);
    });
    std::thread peers([&] {
      community.RunPeers(start, end, kPeerPeriod, kDrain, trace, &peer_spans);
    });
    add_lane = RunLane(add_conn, pointers(add_sources), lane);
    get_thread.join();
    uploader.join();
    peers.join();
  }
  const Nanos window_end = NowNs();
  Phase("window", &phase);
  // Latencies, immunity and memory come from the open-loop window only.
  const CommunityResult window = community.result();
  const auto primary_mem = ReadProc(primary.pid);
  const auto follower_mem = ReadProc(follower.pid);
  if (!primary_mem || !follower_mem) {
    return Status::Error(ErrorCode::kUnavailable, "cannot read /proc");
  }

  // ---- capacity phase (closed loop) ----
  Sample bucket_rps;
  {
    const Nanos pstart = NowNs() + 10'000'000;
    const Nanos pend = pstart + static_cast<Nanos>(peak_s * 1e9);
    std::atomic<std::uint64_t> total{0};
    LaneOptions pl;
    pl.start = pstart;
    pl.end = pend;
    pl.total_done = &total;
    pl.bucket = kCapacityBucket;
    std::vector<Source> gs = {gets.Closed(p.peak_get_depth, p.peak_get_share)};
    std::vector<Source> as = {adds.Closed(p.peak_add_depth, p.peak_add_share)};
    // The open-loop connections are closed first: at most four at once.
    get_conn.Close();
    add_conn.Close();
    Conn gc, ac;
    if (!gc.Connect("127.0.0.1", primary.port).ok() ||
        !ac.Connect("127.0.0.1", primary.port).ok()) {
      return Status::Error(ErrorCode::kUnavailable, "capacity connect");
    }
    LaneResult gr, ar;
    std::thread gt([&] { gr = RunLane(gc, pointers(gs), pl); });
    ar = RunLane(ac, pointers(as), pl);
    gt.join();
    // The rate of every whole interval before either lane went quiet
    // (the storm plan may run dry early); the median of those rates is
    // what a short host stall cannot move.
    const Nanos quiet = std::min(gr.last_done, ar.last_done);
    for (std::size_t b = 0; b < std::max(gr.buckets.size(), ar.buckets.size());
         ++b) {
      if (pstart + static_cast<Nanos>(b + 1) * kCapacityBucket > quiet) break;
      const std::uint64_t n = (b < gr.buckets.size() ? gr.buckets[b] : 0) +
                              (b < ar.buckets.size() ? ar.buckets[b] : 0);
      bucket_rps.Add(static_cast<double>(n) * 1e9 / kCapacityBucket);
    }
    out->failures["timeouts"] += gr.timeouts + ar.timeouts;
    out->failures["transport"] += gr.transport_error + ar.transport_error;
  }
  out->SetQ("peak_rps", bucket_rps, 0.5, "1/s", /*lower_is_better=*/false);

  Phase("capacity", &phase);
  // ---- quiesce, read the daemons again ----
  std::uint64_t length = 0;
  if (auto s = WaitCaughtUp(primary.port, follower.port, 30'000, &length);
      !s.ok()) {
    out->failures["replication_converged"] += 1;
  }
  for (const Nanos deadline = NowNs() + kQuiesce;;) {
    if (auto s = Read(primary.port, primary.pid, &pa); !s.ok()) return s;
    if (auto s = Read(follower.port, follower.pid, &fa); !s.ok()) return s;
    if (Delta(fb, fa, "server.repl_entries_applied") ==
            Delta(pb, pa, "cluster.shipper.entries_shipped") ||
        NowNs() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Phase("quiesce", &phase);
  // ---- correctness checks ----
  CommunityResult& cr = community.result();
  community.CheckHistories();
  out->failures["timeouts"] += get_lane.timeouts + add_lane.timeouts;
  out->failures["transport"] += get_lane.transport_error + add_lane.transport_error;
  out->failures["get_replies"] += gets.failures;
  out->failures["add_statuses"] += adds.tally.status_violations;
  out->failures["uploads"] += cr.upload_failures;
  out->failures["polls"] += cr.poll_failures;
  out->failures["immunity_unconsulted"] += cr.unconsulted;
  out->failures["immunity_missing"] += cr.missing_immunity;
  out->failures["history_missing"] += cr.missing_history;
  out->failures["get_bytes"] += CompareSamples(primary.port, gets.samples);

  const std::uint64_t uploads_ok = cr.uploads - cr.upload_failures;
  const StormTally& tally = adds.tally;
  const double processed = Delta(pb, pa, "server.adds_processed");
  const double accepted = Delta(pb, pa, "server.adds_accepted");
  const double expect_processed =
      static_cast<double>(tally.sigs_sent - tally.forged_sigs + cr.uploads);
  const double expect_accepted =
      static_cast<double>(tally.ExpectedAccepted() + uploads_ok);
  const double outcomes =
      accepted + Delta(pb, pa, "server.adds_duplicate") +
      Delta(pb, pa, "server.rejected_rate_limited") +
      Delta(pb, pa, "server.rejected_adjacent") +
      Delta(pb, pa, "server.rejected_tenant_quota") +
      Delta(pb, pa, "server.rejected_malformed");
  out->failures["stats_processed"] += processed != expect_processed;
  out->failures["stats_accepted"] += accepted != expect_accepted;
  out->failures["stats_outcomes"] += outcomes != processed;
  out->failures["stats_bad_token"] +=
      Delta(pb, pa, "server.rejected_bad_token") !=
      static_cast<double>(tally.forged_sigs);
  const double shipped = Delta(pb, pa, "cluster.shipper.entries_shipped");
  const double applied = Delta(fb, fa, "server.repl_entries_applied");
  out->failures["repl_ledger"] += applied != shipped;

  const std::uint64_t get_attempts = gets.completed + get_lane.timeouts;
  const std::uint64_t add_attempts = adds.completed + add_lane.timeouts;
  out->attempted = get_attempts + add_attempts + cr.uploads + cr.polls;

  Phase("checks", &phase);
  // ---- end-to-end metrics ----
  const Sample& gets_ms = gets.latency.latency_ms;
  const Sample& adds_ms = adds.latency.latency_ms;
  out->SetQ("get.p50_ms", gets_ms, 0.5, "ms", true, true);
  out->SetQ("add.p50_ms", adds_ms, 0.5, "ms", true, true);
  // Tails: reported with every run but not bounded (their run-to-run
  // spread on a small shared VM exceeds any useful bound; README).
  for (const double q : {0.90, 0.99}) {
    const std::string pct = q == 0.90 ? "p90" : "p99";
    out->SetQ("e2e.get." + pct + "_ms", gets_ms, q, "ms", true, true);
    out->SetQ("e2e.add." + pct + "_ms", adds_ms, q, "ms", true, true);
  }
  out->SetQ("immunity.p50_ms", window.immunity_ms, 0.5, "ms", true, true);
  out->SetQ("immunity.p95_ms", window.immunity_ms, 0.95, "ms", true, true);
  out->Set("rss_mb",
           static_cast<double>(primary_mem->status.vm_hwm_kb +
                               follower_mem->status.vm_hwm_kb) / 1024.0,
           "MB");
  out->samples["setup"] = setup_s.n();

  // ---- per-layer metrics ----
  const double window_s = static_cast<double>(window_end - start) / 1e9;
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint8_t>> seen;
  std::vector<communix::obs::TraceRecord> traces;
  for (const auto* ring : {&primary_ring, &follower_ring}) {
    for (const auto& t : ring->traces) {
      if (seen.insert({t.start_unix_ns, t.total_ns, t.verb}).second) {
        traces.push_back(t);
      }
    }
  }
  auto stage = [&](communix::obs::Stage st, int verb_a, int verb_b) {
    Sample s;
    for (const auto& t : traces) {
      if (verb_a >= 0 && t.verb != verb_a && t.verb != verb_b) continue;
      s.Add(static_cast<double>(t.stage_ns[static_cast<std::size_t>(st)]) /
            1e3);
    }
    return s;
  };
  using communix::obs::Stage;
  const Sample accept_us = stage(Stage::kAccept, -1, -1);
  const Sample queue_us = stage(Stage::kQueueWait, -1, -1);
  const Sample flush_us = stage(Stage::kFlush, -1, -1);
  const Sample parse_us = stage(Stage::kParse, -1, -1);
  const Sample serialize_us = stage(Stage::kSerialize, -1, -1);
  const Sample get_store_us = stage(Stage::kStoreOp, 2, 2);
  const Sample add_store_us = stage(Stage::kStoreOp, 1, 4);
  out->samples["traces"] = traces.size();
  out->SetQ("net.accept.p50_us", accept_us, 0.5, "us");
  out->SetQ("net.accept.p99_us", accept_us, 0.99, "us");
  out->SetQ("net.queue_wait.p99_us", queue_us, 0.99, "us");
  out->SetQ("net.flush.p50_us", flush_us, 0.5, "us");
  out->SetQ("net.flush.p99_us", flush_us, 0.99, "us");
  out->SetQ("server.parse.p50_us", parse_us, 0.5, "us");
  out->SetQ("server.serialize.p50_us", serialize_us, 0.5, "us");
  out->SetQ("store.op.get.p50_us", get_store_us, 0.5, "us");
  out->SetQ("store.op.get.p99_us", get_store_us, 0.99, "us");
  out->SetQ("store.op.add.p50_us", add_store_us, 0.5, "us");
  out->SetQ("store.op.add.p99_us", add_store_us, 0.99, "us");

  auto both = [&](const char* name) {
    return Delta(pb, pa, name) + Delta(fb, fa, name);
  };
  const double gets_served = both("server.gets_served");
  const std::uint64_t primary_requests = get_attempts + add_attempts +
                                         community.primary_requests() +
                                         primary_ring.scrapes;
  const std::uint64_t follower_requests =
      community.follower_requests() + follower_ring.scrapes;
  out->Set("net.flushes_per_reply",
           Ratio(both("net.writev_flushes"),
                 static_cast<double>(primary_requests + follower_requests) +
                     Delta(fb, fa, "server.repl_batches_applied") +
                     Delta(pb, pa, "server.repl_pulls_served") +
                     Delta(fb, fa, "server.repl_pulls_served")),
           "count");
  out->Set("net.copied_bytes_per_get",
           Ratio(both("server.reply_bytes_copied"), gets_served), "B");
  out->Set("net.shared_bytes_per_get",
           Ratio(both("server.reply_bytes_shared"), gets_served), "B");
  out->Set("net.backpressure_stalls", both("net.backpressure_stalls"), "count");
  out->Set("server.add_accept_ratio", Ratio(accepted, processed), "ratio");

  const double hits = both("store.cache.hits");
  const double misses = both("store.cache.misses");
  out->Set("store.cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  double path_total = 0;
  std::map<std::string, std::pair<double, double>> paths;
  for (const char* h : {"server.get.cache_hit_ns", "server.get.cache_extend_ns",
                        "server.get.cold_scan_ns"}) {
    const auto a = HistDelta(pb, pa, h);
    const auto b = HistDelta(fb, fa, h);
    paths[h] = {a.first + b.first, a.second + b.second};
    path_total += a.first + b.first;
  }
  out->Set("store.get.cold_scan_share",
           Ratio(paths["server.get.cold_scan_ns"].first, path_total), "ratio");
  auto mean_us = [&](const char* h) {
    return Ratio(paths[h].second, paths[h].first) / 1e3;
  };
  out->Set("store.get.cache_hit.mean_us", mean_us("server.get.cache_hit_ns"), "us");
  out->Set("store.get.cache_extend.mean_us",
           mean_us("server.get.cache_extend_ns"), "us");
  out->Set("store.get.cold_scan.mean_us", mean_us("server.get.cold_scan_ns"), "us");

  const double measured_s = static_cast<double>(NowNs() - start) / 1e9;
  out->Set("daemon.primary.cpu_ms_per_kreq",
           Ratio(CpuMs(pa.proc.stat) - CpuMs(pb.proc.stat),
                 static_cast<double>(primary_requests) / 1e3),
           "ms");
  out->Set("daemon.follower.cpu_ms_per_kreq",
           Ratio(CpuMs(fa.proc.stat) - CpuMs(fb.proc.stat),
                 static_cast<double>(follower_requests) / 1e3),
           "ms");
  out->Set("daemon.db_write_mb_per_s",
           static_cast<double>((pa.proc.io.write_bytes - pb.proc.io.write_bytes) +
                               (fa.proc.io.write_bytes - fb.proc.io.write_bytes)) /
               1e6 / measured_s,
           "MB/s");

  Sample lag_ms;
  std::uint64_t max_entries = 0;
  ShipLag(window, &lag_ms, &max_entries);
  out->SetQ("cluster.ship_lag.p50_ms", lag_ms, 0.5, "ms");
  out->SetQ("cluster.ship_lag.p99_ms", lag_ms, 0.99, "ms");
  out->Set("cluster.ship_lag.max_entries", static_cast<double>(max_entries),
           "count");
  out->Set("cluster.entries_shipped_per_accepted", Ratio(shipped, accepted),
           "ratio");
  out->Set("cluster.shipper.drops", Delta(pb, pa, "cluster.shipper.drops"),
           "count");

  out->SetQ("client.poll.p50_ms", window.poll_ms, 0.5, "ms");
  out->SetQ("client.poll.p95_ms", window.poll_ms, 0.95, "ms");
  out->Set("client.useful_poll_ratio",
           Ratio(static_cast<double>(window.useful_polls),
                 static_cast<double>(window.polls)),
           "ratio");
  out->SetQ("plugin.upload.p50_ms", window.upload_ms, 0.5, "ms");
  out->SetQ("agent.scan.p50_ms", window.scan_ms, 0.5, "ms");
  out->SetQ("agent.scan.p95_ms", window.scan_ms, 0.95, "ms");
  out->Set("agent.accept_ratio",
           Ratio(static_cast<double>(cr.accepted),
                 static_cast<double>(cr.examined)),
           "ratio");
  out->Set("agent.merge_ratio",
           Ratio(static_cast<double>(cr.merged),
                 static_cast<double>(cr.accepted)),
           "ratio");
  out->SetQ("dimmunix.guarded_acquire.p50_us", window.acquire_us, 0.5, "us");
  out->Set("dimmunix.index_republishes_per_sig",
           Ratio(static_cast<double>(cr.index_republishes),
                 static_cast<double>(cr.accepted)),
           "count");
  out->Set("dimmunix.entries_reused_per_republish",
           Ratio(static_cast<double>(cr.index_entries_reused),
                 static_cast<double>(cr.index_republishes)),
           "count");
  out->Set("dimmunix.history_size", cr.history_size, "count");

  Sample send_lag = gets.latency.send_lag_ms;
  send_lag.Append(adds.latency.send_lag_ms);
  send_lag.Append(window.upload_lag_ms);
  out->SetQ("bench.send_lag.p99_ms", send_lag, 0.99, "ms");
  out->Set("bench.window_s", window_s, "s");

  if (trace) {
    std::vector<std::uint32_t> counts = gets.reply_counts;
    counts.insert(counts.end(), cr.poll_counts.begin(), cr.poll_counts.end());
    Replays(*w, counts, out);
    Phase("replays", &phase);
    for (const SpanLog* log :
         {&lane_spans_get, &lane_spans_add, &upload_spans, &peer_spans}) {
      out->spans.insert(out->spans.end(), log->spans().begin(),
                        log->spans().end());
    }
  }
  w->cluster.Stop();
  Phase("teardown", &phase);
  return Status::Ok();
}

std::string Json(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The metric names each report carries, in BENCHMARK.json order.
const char* const kEndToEnd[] = {"setup_s",         "get.p50_ms",
                                 "add.p50_ms",      "peak_rps",
                                 "immunity.p50_ms", "immunity.p95_ms",
                                 "rss_mb"};
// Unbounded end-to-end tails; a traced run reports its untraced twin's.
const char* const kTails[] = {"e2e.get.p90_ms", "e2e.get.p99_ms",
                              "e2e.add.p90_ms", "e2e.add.p99_ms"};
const char* const kPerLayer[] = {
    "net.accept.p50_us", "net.accept.p99_us", "net.queue_wait.p99_us",
    "net.flush.p50_us", "net.flush.p99_us", "net.flushes_per_reply",
    "net.copied_bytes_per_get", "net.shared_bytes_per_get",
    "net.backpressure_stalls", "server.parse.p50_us",
    "server.serialize.p50_us", "server.token_decode.p50_ns",
    "server.sig_decode.p50_us", "server.add_accept_ratio",
    "store.op.get.p50_us", "store.op.get.p99_us", "store.op.add.p50_us",
    "store.op.add.p99_us", "store.cache.hit_ratio",
    "store.get.cold_scan_share", "store.get.cache_hit.mean_us",
    "store.get.cache_extend.mean_us", "store.get.cold_scan.mean_us",
    "store.replay.add.p50_us", "store.replay.add_rps_nproc",
    "store.replay.read_since.p50_us", "daemon.primary.cpu_ms_per_kreq",
    "daemon.follower.cpu_ms_per_kreq", "daemon.db_write_mb_per_s",
    "cluster.ship_lag.p50_ms", "cluster.ship_lag.p99_ms",
    "cluster.ship_lag.max_entries", "cluster.entries_shipped_per_accepted",
    "cluster.shipper.drops", "client.poll.p50_ms", "client.poll.p95_ms",
    "client.useful_poll_ratio", "plugin.upload.p50_ms", "agent.scan.p50_ms",
    "agent.scan.p95_ms", "agent.accept_ratio", "agent.merge_ratio",
    "agent.nesting_analysis_s", "dimmunix.guarded_acquire.p50_us",
    "dimmunix.index_republishes_per_sig",
    "dimmunix.entries_reused_per_republish", "dimmunix.history_size",
    "bench.send_lag.p99_ms", "bench.tracing_overhead_pct",
    "bench.error_rate", "e2e.get.p90_ms", "e2e.get.p99_ms",
    "e2e.add.p90_ms", "e2e.add.p99_ms"};

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id,parent,name,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start << ','
        << s.end << '\n';
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Timed waits (ppoll, sleeps) wake as close to their deadline as the
  // kernel allows instead of within the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const Profile profile = MakeProfile(args.workload);

  Outcome main_run;
  Outcome reference;  // untraced twin of a traced run
  if (!args.trace) {
    if (auto s = RunInstance(args, profile, false, args.setups, &main_run);
        !s.ok()) {
      Die("run failed: " + s.ToString());
    }
  } else {
    if (auto s = RunInstance(args, profile, false, 1, &reference); !s.ok()) {
      Die("untraced reference run failed: " + s.ToString());
    }
    if (auto s = RunInstance(args, profile, true, 1, &main_run); !s.ok()) {
      Die("traced run failed: " + s.ToString());
    }
    auto pct = [&](const char* m) {
      const double base = reference.metrics[m].first;
      return base > 0 ? (main_run.metrics[m].first / base - 1.0) * 100.0 : 0.0;
    };
    main_run.Set("bench.tracing_overhead_pct",
                 (pct("get.p50_ms") + pct("add.p50_ms")) / 2.0, "%");
    for (const char* m : kTails) {
      main_run.metrics[m] = reference.metrics[m];
      main_run.samples[m] = reference.samples[m];
      if (reference.unsupported.count(m) > 0) main_run.unsupported.insert(m);
    }
    const std::string spans = args.work + "/spans-" + args.workload + "-" +
                              std::to_string(args.seed) + ".csv";
    WriteSpans(spans, main_run.spans);
    std::fprintf(stderr, "ledger: %zu spans written to %s\n",
                 main_run.spans.size(), spans.c_str());
  }
  // A bounded end-to-end percentile without sample support is not a
  // valid measurement.
  for (const char* m : kEndToEnd) {
    main_run.failures["percentile_support"] += main_run.unsupported.count(m);
  }
  const std::uint64_t failed = main_run.failed() + reference.failed();
  const std::uint64_t attempted = main_run.attempted + reference.attempted;
  for (const Outcome* o : {&reference, &main_run}) {
    for (const auto& [check, n] : o->failures) {
      if (n > 0) {
        std::fprintf(stderr, "ledger: check %s failed %llu time(s)\n",
                     check.c_str(), static_cast<unsigned long long>(n));
      }
    }
  }
  main_run.Set("bench.error_rate",
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               "ratio");

  // Detail line: every metric measured, sample counts, check breakdown.
  std::ostringstream detail;
  detail << "{\"workload\": " << JsonString(args.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << Json(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"daemon_flags\": " << JsonString(main_run.flags)
         << ", \"samples\": {";
  bool first = true;
  for (const auto& [k, v] : main_run.samples) {
    detail << (first ? "" : ", ") << JsonString(k) << ": " << v;
    first = false;
  }
  detail << "}, \"unsupported\": [";
  first = true;
  for (const auto& k : main_run.unsupported) {
    detail << (first ? "" : ", ") << JsonString(k);
    first = false;
  }
  detail << "], \"failures\": {";
  first = true;
  for (const auto& [k, v] : main_run.failures) {
    detail << (first ? "" : ", ") << JsonString(k) << ": " << v;
    first = false;
  }
  detail << "}, \"all_metrics\": {";
  first = true;
  for (const auto& [k, v] : main_run.metrics) {
    detail << (first ? "" : ", ") << JsonString(k) << ": " << Json(v.first);
    first = false;
  }
  detail << "}}";
  std::printf("# detail %s\n", detail.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
         << ", \"failed\": " << failed << ", \"metrics\": {";
  first = true;
  auto emit = [&](const char* name) {
    const auto it = main_run.metrics.find(name);
    if (it == main_run.metrics.end()) Die(std::string("metric not measured: ") + name);
    result << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
           << Json(it->second.first) << ", \"unit\": "
           << JsonString(it->second.second) << "}";
    first = false;
  };
  if (args.trace) {
    for (const char* m : kPerLayer) emit(m);
  } else {
    for (const char* m : kEndToEnd) emit(m);
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
