#include "obs/snapshot_io.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace communix::obs {
namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Recursive-descent reader for the snapshot's JSON subset.
class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (!ok_ || pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    SkipWs();
    return ok_ && pos_ < s_.size() && s_[pos_] == c;
  }

  void Expect(char c) {
    if (!Consume(c)) ok_ = false;
  }

  std::string ReadString() {
    Expect('"');
    std::string out;
    while (ok_ && pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          ok_ = false;
          break;
        }
        const char e = s_[pos_++];
        switch (e) {
          case '"':
          case '\\':
          case '/':
            out += e;
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            // The writer emits \u00XX for control characters; read back
            // exactly that range (no surrogates, no multibyte).
            std::uint32_t v = 0;
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= s_.size()) {
                ok_ = false;
                return out;
              }
              const char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') {
                v |= static_cast<std::uint32_t>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                v |= static_cast<std::uint32_t>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                v |= static_cast<std::uint32_t>(h - 'A' + 10);
              } else {
                ok_ = false;
                return out;
              }
            }
            if (v > 0x7F) {
              ok_ = false;
              return out;
            }
            out += static_cast<char>(v);
            break;
          }
          default:
            ok_ = false;
            break;
        }
      } else {
        out += c;
      }
    }
    Expect('"');
    return out;
  }

  std::uint64_t ReadU64() {
    SkipWs();
    if (!ok_ || pos_ >= s_.size() ||
        !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      const std::uint64_t d = static_cast<std::uint64_t>(s_[pos_] - '0');
      if (v > (UINT64_MAX - d) / 10) {
        ok_ = false;
        return 0;
      }
      v = v * 10 + d;
      ++pos_;
    }
    return v;
  }

  /// Iterates "key": <value> pairs of an object; `fn` parses the value.
  void ReadObject(const std::function<void(const std::string&)>& fn) {
    Expect('{');
    if (Consume('}')) return;
    while (ok_) {
      const std::string key = ReadString();
      Expect(':');
      if (!ok_) return;
      fn(key);
      if (Consume(',')) continue;
      Expect('}');
      return;
    }
  }

  void ReadArray(const std::function<void()>& fn) {
    Expect('[');
    if (Consume(']')) return;
    while (ok_) {
      fn();
      if (Consume(',')) continue;
      Expect(']');
      return;
    }
  }

  bool AtEnd() {
    SkipWs();
    return ok_ && pos_ == s_.size();
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void AppendKvObject(
    std::string& out, std::string_view key,
    const std::vector<std::pair<std::string, std::uint64_t>>& kvs) {
  out += "  \"";
  out += key;
  out += "\": {";
  bool first = true;
  for (const auto& [name, value] : kvs) {
    if (!first) out += ", ";
    first = false;
    out += "\n    ";
    AppendEscaped(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "}" : "\n  }";
}

const char* VerbName(std::uint8_t verb) {
  switch (verb) {
    case 0:
      return "PING";
    case 1:
      return "ADD";
    case 2:
      return "GET";
    case 3:
      return "ISSUE_ID";
    case 4:
      return "ADD_BATCH";
    case 5:
      return "REPL_PULL";
    case 6:
      return "REPL_BATCH";
    case 9:
      return "MARK_SUPERSEDED";
    case 10:
      return "STATS";
    default:
      return "?";
  }
}

}  // namespace

std::string SnapshotToJson(const MetricsSnapshot& snap) {
  std::string out = "{\n";
  out += "  \"version\": " + std::to_string(snap.version) + ",\n";
  out += "  \"captured_unix_ns\": " + std::to_string(snap.captured_unix_ns) +
         ",\n";
  AppendKvObject(out, "counters", snap.counters);
  out += ",\n";
  AppendKvObject(out, "gauges", snap.gauges);
  out += ",\n  \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\n    ";
    AppendEscaped(out, name);
    out += ": {\"count\": " + std::to_string(h.count) +
           ", \"sum_ns\": " + std::to_string(h.sum_ns) + ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "[" + std::to_string(i) + ", " + std::to_string(h.buckets[i]) +
             "]";
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"traces\": [";
  first = true;
  for (const auto& t : snap.traces) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"verb\": " + std::to_string(t.verb) +
           ", \"status\": " + std::to_string(t.status) +
           ", \"start_unix_ns\": " + std::to_string(t.start_unix_ns) +
           ", \"total_ns\": " + std::to_string(t.total_ns) + ", \"stages\": [";
    for (std::size_t i = 0; i < t.stage_ns.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(t.stage_ns[i]);
    }
    out += "]}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

std::optional<MetricsSnapshot> SnapshotFromJson(std::string_view json) {
  JsonReader r(json);
  MetricsSnapshot snap;
  bool saw_version = false;
  r.ReadObject([&](const std::string& key) {
    if (key == "version") {
      snap.version = static_cast<std::uint32_t>(r.ReadU64());
      saw_version = true;
    } else if (key == "captured_unix_ns") {
      snap.captured_unix_ns = r.ReadU64();
    } else if (key == "counters") {
      r.ReadObject([&](const std::string& name) {
        snap.counters.emplace_back(name, r.ReadU64());
      });
    } else if (key == "gauges") {
      r.ReadObject([&](const std::string& name) {
        snap.gauges.emplace_back(name, r.ReadU64());
      });
    } else if (key == "histograms") {
      r.ReadObject([&](const std::string& name) {
        HistogramSnapshot h;
        r.ReadObject([&](const std::string& field) {
          if (field == "count") {
            h.count = r.ReadU64();
          } else if (field == "sum_ns") {
            h.sum_ns = r.ReadU64();
          } else if (field == "buckets") {
            r.ReadArray([&] {
              r.Expect('[');
              const std::uint64_t idx = r.ReadU64();
              r.Expect(',');
              const std::uint64_t cnt = r.ReadU64();
              r.Expect(']');
              if (idx >= kHistogramBuckets) {
                r.Fail();
                return;
              }
              h.buckets[idx] = cnt;
            });
          } else {
            r.Fail();
          }
        });
        snap.histograms.emplace_back(name, h);
      });
    } else if (key == "traces") {
      r.ReadArray([&] {
        TraceRecord t;
        r.ReadObject([&](const std::string& field) {
          if (field == "verb") {
            t.verb = static_cast<std::uint8_t>(r.ReadU64());
          } else if (field == "status") {
            t.status = static_cast<std::uint8_t>(r.ReadU64());
          } else if (field == "start_unix_ns") {
            t.start_unix_ns = r.ReadU64();
          } else if (field == "total_ns") {
            t.total_ns = r.ReadU64();
          } else if (field == "stages") {
            std::size_t i = 0;
            r.ReadArray([&] {
              const std::uint64_t ns = r.ReadU64();
              if (i >= kNumStages) {
                r.Fail();
                return;
              }
              t.stage_ns[i++] = ns;
            });
          } else {
            r.Fail();
          }
        });
        snap.traces.push_back(t);
      });
    } else {
      r.Fail();
    }
  });
  if (!r.AtEnd() || !saw_version) return std::nullopt;
  return snap;
}

std::string RenderSnapshotText(const MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "snapshot v" << snap.version << " captured_unix_ns="
      << snap.captured_unix_ns << "\n";
  std::size_t width = 0;
  for (const auto& [name, v] : snap.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, v] : snap.gauges) {
    width = std::max(width, name.size());
  }
  if (!snap.counters.empty()) out << "\ncounters:\n";
  for (const auto& [name, v] : snap.counters) {
    out << "  " << name << std::string(width - name.size() + 2, ' ') << v
        << "\n";
  }
  if (!snap.gauges.empty()) out << "\ngauges:\n";
  for (const auto& [name, v] : snap.gauges) {
    out << "  " << name << std::string(width - name.size() + 2, ' ') << v
        << "\n";
  }
  if (!snap.histograms.empty()) out << "\nhistograms:\n";
  for (const auto& [name, h] : snap.histograms) {
    out << "  " << name << "  count=" << h.count << " mean_ns="
        << static_cast<std::uint64_t>(h.MeanNanos())
        << " p50_ns=" << h.ApproxQuantile(0.5) << " p99_ns=" << h.ApproxP99()
        << "\n";
  }
  if (!snap.traces.empty()) out << "\nslow traces (newest first):\n";
  for (const auto& t : snap.traces) {
    out << "  " << VerbName(t.verb) << " status=" << int(t.status)
        << " total_ns=" << t.total_ns;
    for (std::size_t i = 0; i < t.stage_ns.size(); ++i) {
      out << " " << StageName(static_cast<Stage>(i)) << "="
          << t.stage_ns[i];
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace communix::obs
