// Readers for the daemons' /proc/<pid>/{stat,io,status} files: the
// `daemon` layer is measured from outside the process only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ledger {

struct ProcStat {
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
};
struct ProcIo {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t wchar = 0;
};
struct ProcStatus {
  std::uint64_t vm_hwm_kb = 0;
  std::uint64_t vm_rss_kb = 0;
};

/// Parsers over the files' text (the comm field of stat may itself hold
/// spaces and parentheses, so fields are counted from the LAST ')').
std::optional<ProcStat> ParseProcStat(std::string_view text);
std::optional<ProcIo> ParseProcIo(std::string_view text);
std::optional<ProcStatus> ParseProcStatus(std::string_view text);

/// One reading of a live process.
struct ProcSample {
  ProcStat stat;
  ProcIo io;
  ProcStatus status;
};
std::optional<ProcSample> ReadProc(int pid);

/// utime + stime in milliseconds.
double CpuMs(const ProcStat& s);

}  // namespace ledger
