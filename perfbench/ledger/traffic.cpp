#include "ledger/traffic.hpp"

#include <algorithm>
#include <cstring>

#include "net/message.hpp"
#include "util/serde.hpp"

namespace ledger {

using communix::ErrorCode;
using communix::Status;
using communix::net::Response;

namespace {

constexpr std::size_t kMaxSamples = 40;
constexpr std::size_t kMaxSampleBytes = 48u << 20;
constexpr std::uint64_t kSampleEvery = 101;
constexpr Nanos kTimeout = 20'000'000'000;

std::vector<std::uint8_t> GetBody(std::uint64_t from) {
  communix::BinaryWriter w;
  w.WriteU64(from);
  communix::net::Request req;
  req.type = communix::net::MsgType::kGetSignatures;
  req.payload = w.take();
  return req.Serialize();
}

/// A kStats request for the slow-trace ring only.
communix::net::Request RingRequest() {
  communix::net::StatsRequest req;
  req.include_metrics = false;
  req.include_traces = true;
  req.max_traces = 64;
  return communix::net::BuildStatsRequest(req);
}

}  // namespace

GetTraffic::GetTraffic(bool zipf, std::size_t daemons, std::uint64_t head,
                       std::uint64_t seed,
                       const std::atomic<std::uint64_t>* adds_sent)
    : rng_(seed),
      floor_(head),
      adds_sent_(adds_sent),
      base_len_(head),
      head_(head) {
  if (!zipf) {
    lag_.assign(1, 0);
    return;
  }
  // Each daemon lags the head by a fixed Zipf-distributed amount: most
  // sit at or near it (near-empty replies the read cache serves), a tail
  // is far behind and fetches multi-megabyte suffixes. Lags are counted
  // from the head as it is at each poll, so the reply-size mix stays the
  // same however fast uploads grow the log during the run.
  const ZipfSampler lag(head + 1, 1.5);
  lag_.resize(daemons);
  for (auto& l : lag_) l = lag.Sample(rng_);
}

bool GetTraffic::Make(std::uint64_t* tag, std::vector<std::uint8_t>* scratch,
                      std::span<const std::uint8_t>* body) {
  const std::uint64_t lag = lag_[rng_.NextBounded(lag_.size())];
  const std::uint64_t from = head_ > lag ? head_ - lag : 0;
  *tag = from;
  *scratch = GetBody(from);
  *body = *scratch;
  return true;
}

void GetTraffic::OnReply(const InFlight& f, Nanos done,
                         std::span<const std::uint8_t> frame, bool timed) {
  const std::uint64_t from = f.tag;
  ++completed;
  if (timed) latency.Record(f.due, f.sent, done);
  if (spans != nullptr) spans->Add("net.get", f.sent, done);
  ErrorCode code = ErrorCode::kDataLoss;
  std::span<const std::uint8_t> payload;
  std::uint32_t count = 0;
  if (!SplitReply(frame, &code, &payload) || code != ErrorCode::kOk ||
      payload.size() < 4) {
    ++failures;
    return;
  }
  std::memcpy(&count, payload.data(), 4);
  if (record_) reply_counts.push_back(count);
  // The primary had at least floor_ entries before the window and at
  // most what it could have accepted since.
  const std::uint64_t lower = floor_ > from ? floor_ - from : 0;
  const std::uint64_t upper_len = base_len_ + adds_sent_->load();
  const std::uint64_t upper = upper_len > from ? upper_len - from : 0;
  if (count < lower || count > upper) ++failures;
  head_ = std::max(head_, from + count);
  if (completed % kSampleEvery == 0 && samples.size() < kMaxSamples &&
      sample_bytes_ + payload.size() <= kMaxSampleBytes) {
    sample_bytes_ += payload.size();
    samples.push_back(
        GetSample{from, std::vector<std::uint8_t>(payload.begin(), payload.end())});
  }
}

Source GetTraffic::OpenLoop(double rate, std::uint64_t seed) {
  Source s;
  s.rate = rate;
  s.seed = seed;
  s.make = [this](Nanos, std::uint64_t* tag, std::vector<std::uint8_t>* scratch,
                  std::span<const std::uint8_t>* body) {
    return Make(tag, scratch, body);
  };
  s.on_reply = [this](const InFlight& f, Nanos done,
                      std::span<const std::uint8_t> frame) {
    OnReply(f, done, frame, true);
  };
  return s;
}

Source GetTraffic::Closed(int depth, double share) {
  Source s;
  s.depth = depth;
  s.max_share = share;
  s.make = [this](Nanos, std::uint64_t* tag, std::vector<std::uint8_t>* scratch,
                  std::span<const std::uint8_t>* body) {
    return Make(tag, scratch, body);
  };
  s.on_reply = [this](const InFlight& f, Nanos done,
                      std::span<const std::uint8_t> frame) {
    OnReply(f, done, frame, false);
  };
  return s;
}

bool AddTraffic::Make(std::uint64_t* tag, std::span<const std::uint8_t>* body) {
  auto frame = plan_->Next();
  if (frame == nullptr) return false;
  *tag = frames++;
  adds_sent_->fetch_add(frame->sigs.size());
  *body = frame->body;
  if (record_) recorded.push_back(frame);
  inflight_.push_back(std::move(frame));
  return true;
}

void AddTraffic::OnReply(Response&& r, Nanos due, Nanos sent, Nanos done,
                         bool timed) {
  const auto frame = std::move(inflight_.front());
  inflight_.pop_front();
  ++completed;
  if (timed) latency.Record(due, sent, done);
  if (spans != nullptr) spans->Add("net.add", sent, done);
  std::vector<ErrorCode> codes;
  if (frame->batch) {
    auto parsed = r.ok() ? communix::net::ParseAddBatchResponse(r)
                         : std::nullopt;
    if (parsed) codes = std::move(*parsed);
  } else {
    codes.push_back(r.code);
  }
  tally.Check(*frame, codes);
}

Source AddTraffic::OpenLoop(double rate, std::uint64_t seed) {
  Source s;
  s.rate = rate;
  s.seed = seed;
  s.make = [this](Nanos, std::uint64_t* tag, std::vector<std::uint8_t>*,
                  std::span<const std::uint8_t>* body) {
    return Make(tag, body);
  };
  s.on_reply = [this](const InFlight& f, Nanos done,
                      std::span<const std::uint8_t> frame) {
    OnReply(DecodeReply(frame), f.due, f.sent, done, true);
  };
  return s;
}

Source AddTraffic::Closed(int depth, double share) {
  Source s;
  s.depth = depth;
  s.max_share = share;
  s.make = [this](Nanos, std::uint64_t* tag, std::vector<std::uint8_t>*,
                  std::span<const std::uint8_t>* body) {
    return Make(tag, body);
  };
  s.on_reply = [this](const InFlight& f, Nanos done,
                      std::span<const std::uint8_t> frame) {
    OnReply(DecodeReply(frame), f.due, f.sent, done, false);
  };
  return s;
}

Source FixedBatch::Closed(int depth) {
  Source s;
  s.depth = depth;
  s.make = [this](Nanos, std::uint64_t*, std::vector<std::uint8_t>*,
                  std::span<const std::uint8_t>* body) {
    if (next >= bodies.size()) return false;
    *body = bodies[next++];
    return true;
  };
  s.on_reply = [this](const InFlight&, Nanos,
                      std::span<const std::uint8_t> frame) {
    const Response r = DecodeReply(frame);
    if (!r.ok()) {
      ++bad;
      return;
    }
    // Batch replies carry per-signature codes; plain ADDs an empty body.
    if (r.payload.size() >= 4) {
      const auto codes = communix::net::ParseAddBatchResponse(r);
      if (!codes) {
        ++bad;
        return;
      }
      for (const ErrorCode c : *codes) bad += c != ErrorCode::kOk;
    }
  };
  return s;
}

void RingScraper::ScrapeOnce(communix::net::ClientTransport& t) {
  ++scrapes;
  const auto resp = t.Call(RingRequest());
  if (!resp.ok()) return;
  const auto snap = communix::net::ParseStatsReply(resp.value());
  if (snap) traces.insert(traces.end(), snap->traces.begin(), snap->traces.end());
}

Source RingScraper::Periodic(Nanos period) {
  Source s;
  s.period = period;
  s.make = [](Nanos, std::uint64_t*, std::vector<std::uint8_t>* scratch,
              std::span<const std::uint8_t>* body) {
    *scratch = RingRequest().Serialize();
    *body = *scratch;
    return true;
  };
  s.on_reply = [this](const InFlight&, Nanos,
                      std::span<const std::uint8_t> frame) {
    ++scrapes;
    const auto snap = communix::net::ParseStatsReply(DecodeReply(frame));
    if (snap) traces.insert(traces.end(), snap->traces.begin(), snap->traces.end());
  };
  return s;
}

Status RunFixed(std::uint16_t port, std::vector<Source*> sources,
                double seconds, LaneResult* out) {
  Conn conn;
  if (auto s = conn.Connect("127.0.0.1", port); !s.ok()) return s;
  LaneOptions options;
  options.start = NowNs();
  options.end = options.start + static_cast<Nanos>(seconds * 1e9);
  options.timeout = kTimeout;
  LaneResult result = RunLane(conn, std::move(sources), options);
  const bool failed = result.transport_error || result.timeouts > 0;
  if (out != nullptr) *out = std::move(result);
  if (failed) {
    return Status::Error(ErrorCode::kUnavailable, "lane transport error");
  }
  return Status::Ok();
}

}  // namespace ledger
