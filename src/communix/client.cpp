#include "communix/client.hpp"

#include "util/logging.hpp"
#include "util/serde.hpp"

namespace communix {

CommunixClient::CommunixClient(Clock& clock, net::ClientTransport& transport,
                               LocalRepository& repo, Options options)
    : clock_(clock), transport_(transport), repo_(repo), options_(options) {}

CommunixClient::~CommunixClient() { Stop(); }

Result<std::size_t> CommunixClient::PollOnce() {
  net::Request request;
  request.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(repo_.next_server_index());
  request.payload = w.take();

  auto result = transport_.Call(request);
  if (!result.ok()) return result.status();
  const net::Response& resp = result.value();
  if (!resp.ok()) return Status::Error(resp.code, resp.error);

  BinaryReader r(std::span<const std::uint8_t>(resp.payload.data(),
                                               resp.payload.size()));
  const std::uint32_t count = r.ReadU32();
  // Every entry carries at least its 4-byte length, so a count the
  // remaining bytes cannot hold is corrupt; checking it first keeps a
  // hostile count from sizing the allocation below.
  if (!r.ok() || count > r.remaining() / 4) {
    return Status::Error(ErrorCode::kDataLoss, "corrupt GET reply");
  }
  std::vector<std::vector<std::uint8_t>> sigs;
  sigs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    sigs.push_back(r.ReadBytes());
    if (!r.ok()) {
      return Status::Error(ErrorCode::kDataLoss, "corrupt GET reply");
    }
  }
  const std::size_t n = sigs.size();
  repo_.Append(std::move(sigs));
  polls_.fetch_add(1, std::memory_order_relaxed);
  return n;
}

void CommunixClient::Start() {
  if (running_.exchange(true)) return;
  daemon_ = std::thread([this] { DaemonLoop(); });
}

void CommunixClient::Stop() {
  if (!running_.exchange(false)) return;
  if (daemon_.joinable()) daemon_.join();
}

void CommunixClient::DaemonLoop() {
  while (running_.load()) {
    clock_.SleepFor(options_.poll_period);
    if (!running_.load()) break;
    auto result = PollOnce();
    if (!result.ok()) {
      CX_LOG(kInfo, "client") << "poll failed: "
                              << result.status().ToString();
    }
  }
}

}  // namespace communix
