#include "ledger/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>

namespace ledger {

using communix::ErrorCode;
using communix::Status;

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status Conn::Connect(const std::string& host, std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Error(ErrorCode::kUnavailable, "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::Error(ErrorCode::kInvalidArgument, "bad host " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return Status::Error(ErrorCode::kUnavailable,
                         "connect: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return Status::Ok();
}

void Conn::Queue(std::span<const std::uint8_t> body) {
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  const auto len = static_cast<std::uint32_t>(body.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  out_.insert(out_.end(), prefix, prefix + 4);
  out_.insert(out_.end(), body.begin(), body.end());
}

bool Conn::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

communix::net::Response DecodeReply(std::span<const std::uint8_t> frame) {
  auto resp = communix::net::Response::Deserialize(frame);
  if (resp) return std::move(*resp);
  communix::net::Response bad;
  bad.code = ErrorCode::kDataLoss;
  bad.error = "undecodable reply frame";
  return bad;
}

bool SplitReply(std::span<const std::uint8_t> frame, ErrorCode* code,
                std::span<const std::uint8_t>* payload) {
  // u8 code, u32 error length + bytes, u32 payload length + bytes.
  if (frame.size() < 5) return false;
  std::uint32_t err = 0;
  std::memcpy(&err, frame.data() + 1, 4);
  if (frame.size() - 5 < err || frame.size() - 5 - err < 4) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, frame.data() + 5 + err, 4);
  if (frame.size() - 9 - err != len) return false;
  *code = static_cast<ErrorCode>(frame[0]);
  *payload = frame.subspan(9 + err, len);
  return true;
}

bool Conn::Drain(
    const std::function<void(std::span<const std::uint8_t>)>& fn) {
  constexpr std::size_t kMinRead = 256 * 1024;
  // One read per call: a multi-megabyte reply arrives over many calls,
  // and the lane gets to send whatever fell due in between.
  for (bool read_once = false; !read_once;) {
    // Make room: compact consumed bytes away, then grow to fit the
    // frame being assembled (or at least one read's worth).
    if (in_off_ > 0 && (in_off_ == in_end_ || in_off_ > in_.size() / 2)) {
      std::memmove(in_.data(), in_.data() + in_off_, in_end_ - in_off_);
      in_end_ -= in_off_;
      in_off_ = 0;
    }
    std::size_t want = kMinRead;
    if (in_end_ - in_off_ >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, in_.data() + in_off_, 4);
      want = std::max<std::size_t>(want, 4 + std::size_t{len});
    }
    if (in_.size() < in_off_ + want) in_.resize(in_off_ + want);
    const ssize_t n = ::recv(fd_, in_.data() + in_end_, in_.size() - in_end_, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    read_once = true;
    in_end_ += static_cast<std::size_t>(n);
    while (in_end_ - in_off_ >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, in_.data() + in_off_, 4);
      if (len > (1u << 30)) return false;
      if (in_end_ - in_off_ < 4 + std::size_t{len}) break;
      fn(std::span<const std::uint8_t>(in_.data() + in_off_ + 4, len));
      in_off_ += 4 + std::size_t{len};
    }
  }
  return true;
}

LaneResult RunLane(Conn& conn, std::vector<Source*> sources,
                   const LaneOptions& options) {
  LaneResult result;
  std::deque<InFlight> fifo;
  std::vector<std::optional<Pacer>> pacers(sources.size());
  std::vector<Nanos> next_probe(sources.size(), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    Source& s = *sources[i];
    if (s.rate > 0) pacers[i].emplace(options.start, s.rate, s.seed);
    if (s.period > 0) next_probe[i] = options.start + s.period;
  }
  std::vector<std::uint8_t> scratch;
  auto send = [&](std::size_t i, Nanos due, Nanos now) {
    Source& s = *sources[i];
    std::uint64_t tag = 0;
    std::span<const std::uint8_t> body;
    if (!s.make(due, &tag, &scratch, &body)) {
      s.exhausted = true;
      return false;
    }
    conn.Queue(body);
    fifo.push_back(InFlight{i, tag, due, now});
    ++s.inflight;
    return true;
  };

  bool io_ok = true;
  for (;;) {
    const Nanos now = NowNs();
    const bool generating = now < options.end;
    bool share_blocked = false;
    if (generating) {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        Source& s = *sources[i];
        if (s.exhausted) continue;
        if (pacers[i]) {
          Nanos due = 0;
          while (pacers[i]->Pop(now, &due)) {
            if (!send(i, due, now)) break;
          }
        } else if (s.period > 0) {
          while (next_probe[i] <= now) {
            const Nanos due = next_probe[i];
            next_probe[i] += s.period;
            if (!send(i, due, now)) break;
          }
        } else if (s.depth > 0 && now >= options.start) {
          while (s.inflight < s.depth) {
            if (s.max_share > 0 && options.total_done != nullptr &&
                static_cast<double>(s.done + s.inflight) >
                    s.max_share * static_cast<double>(
                                      options.total_done->load(
                                          std::memory_order_relaxed))) {
              share_blocked = true;
              break;
            }
            if (!send(i, now, now)) break;
          }
        }
      }
    }
    if (!conn.Flush()) {
      io_ok = false;
      break;
    }
    bool all_exhausted = true;
    for (const Source* s : sources) all_exhausted = all_exhausted && s->exhausted;
    if ((!generating || all_exhausted) && fifo.empty()) break;
    if (!generating && now >= options.end + options.drain) break;

    // Sleep until the next due request, a reply, or writability.
    Nanos wait = generating ? options.end - now : options.end + options.drain - now;
    for (std::size_t i = 0; generating && i < sources.size(); ++i) {
      if (sources[i]->exhausted) continue;
      if (pacers[i]) wait = std::min(wait, pacers[i]->next_due() - now);
      if (sources[i]->period > 0) wait = std::min(wait, next_probe[i] - now);
    }
    // Closed-loop sources start at `start`; one held back by its share
    // re-checks the other lanes' progress every 100 us.
    if (generating && now < options.start) wait = std::min(wait, options.start - now);
    if (share_blocked) wait = std::min<Nanos>(wait, 100'000);
    wait = std::max<Nanos>(0, wait);
    pollfd pfd{conn.fd(), static_cast<short>(POLLIN | (conn.want_write() ? POLLOUT : 0)), 0};
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) {
      io_ok = false;
      break;
    }
    if (pfd.revents & (POLLIN | POLLERR | POLLHUP)) {
      const bool ok = conn.Drain([&](std::span<const std::uint8_t> frame) {
        const Nanos done = NowNs();
        result.last_done = done;
        if (options.bucket > 0 && done >= options.start) {
          const auto b = static_cast<std::size_t>((done - options.start) /
                                                  options.bucket);
          if (result.buckets.size() <= b) result.buckets.resize(b + 1, 0);
          ++result.buckets[b];
        }
        if (fifo.empty()) {
          io_ok = false;
          return;
        }
        const InFlight f = fifo.front();
        fifo.pop_front();
        Source& s = *sources[f.source];
        --s.inflight;
        ++s.done;
        if (options.total_done != nullptr) {
          options.total_done->fetch_add(1, std::memory_order_relaxed);
        }
        if (done - f.due > options.timeout) ++result.timeouts;
        s.on_reply(f, done, frame);
      });
      if (!ok || !io_ok) {
        io_ok = false;
        break;
      }
    }
  }
  result.timeouts += fifo.size();
  result.transport_error = !io_ok;
  return result;
}

}  // namespace ledger
