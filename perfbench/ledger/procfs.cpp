#include "ledger/procfs.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ledger {
namespace {

std::optional<std::string> Slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Value of the line starting with `key` (e.g. "write_bytes:"), parsed as
/// the first unsigned integer after it.
std::optional<std::uint64_t> KeyedValue(std::string_view text,
                                        std::string_view key) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    if (line.substr(0, key.size()) == key) {
      const std::string rest(line.substr(key.size()));
      char* end = nullptr;
      const unsigned long long v = std::strtoull(rest.c_str(), &end, 10);
      if (end == rest.c_str()) return std::nullopt;
      return v;
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ProcStat> ParseProcStat(std::string_view text) {
  const std::size_t close = text.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  // After "pid (comm)": field 3 is state; utime/stime are fields 14/15.
  std::istringstream in{std::string(text.substr(close + 1))};
  std::string field;
  ProcStat out;
  for (int index = 3; index <= 15; ++index) {
    if (!(in >> field)) return std::nullopt;
    if (index == 14 || index == 15) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') return std::nullopt;
      (index == 14 ? out.utime_ticks : out.stime_ticks) = v;
    }
  }
  return out;
}

std::optional<ProcIo> ParseProcIo(std::string_view text) {
  const auto rb = KeyedValue(text, "read_bytes:");
  const auto wb = KeyedValue(text, "write_bytes:");
  const auto wc = KeyedValue(text, "wchar:");
  if (!rb || !wb || !wc) return std::nullopt;
  return ProcIo{*rb, *wb, *wc};
}

std::optional<ProcStatus> ParseProcStatus(std::string_view text) {
  const auto hwm = KeyedValue(text, "VmHWM:");
  const auto rss = KeyedValue(text, "VmRSS:");
  if (!hwm || !rss) return std::nullopt;
  return ProcStatus{*hwm, *rss};
}

std::optional<ProcSample> ReadProc(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/";
  const auto stat_text = Slurp(dir + "stat");
  const auto io_text = Slurp(dir + "io");
  const auto status_text = Slurp(dir + "status");
  if (!stat_text || !io_text || !status_text) return std::nullopt;
  const auto stat = ParseProcStat(*stat_text);
  const auto io = ParseProcIo(*io_text);
  const auto status = ParseProcStatus(*status_text);
  if (!stat || !io || !status) return std::nullopt;
  return ProcSample{*stat, *io, *status};
}

double CpuMs(const ProcStat& s) {
  static const long ticks_per_s = sysconf(_SC_CLK_TCK);
  return static_cast<double>(s.utime_ticks + s.stime_ticks) * 1000.0 /
         static_cast<double>(ticks_per_s > 0 ? ticks_per_s : 100);
}

}  // namespace ledger
