// Self-tests for the ledger's own logic: the percentile rule, due-time
// latency accounting across a generator stall, seeded reproducibility of
// the Zipf / Poisson / storm streams, the /proc parsers, and the storm's
// status classes. Exit status 0 iff every check passes.
//
//   .bench_build/ledger_selftest      (python3 perfbench/run.py --selftest)
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger/catalogue.hpp"
#include "ledger/procfs.hpp"
#include "ledger/stats.hpp"
#include "net/message.hpp"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void PercentileRule() {
  using ledger::ReportQ;
  using ledger::Supports;
  Check(Supports(1000, 0.99), "p99 of 1000 samples has 10 beyond it");
  Check(!Supports(999, 0.99), "p99 of 999 samples has only 9 beyond it");
  Check(Supports(200, 0.95) && !Supports(199, 0.95), "p95 needs 200 samples");
  Check(Supports(20, 0.5) && !Supports(19, 0.5), "p50 needs 20 samples");

  // The reports apply the rule: a supported percentile is the measured
  // one; an unsupported one is the sample's worst value, flagged.
  auto ramp = [](int n) {
    ledger::Sample s;
    for (int i = 1; i <= n; ++i) s.Add(i);
    return s;
  };
  const auto p99 = ReportQ(ramp(1000), 0.99, true);
  Check(p99.supported && p99.value == 990 && p99.n == 1000,
        "report: p99 of 1000 is the nearest-rank p99");
  const auto short99 = ReportQ(ramp(999), 0.99, true);
  Check(!short99.supported && short99.value == 999 && short99.n == 999,
        "report: unsupported p99 is the maximum, flagged");
  const auto chunked = ReportQ(ramp(7000), 0.5, true, true);
  Check(chunked.supported && chunked.value == ramp(7000).ChunkedQ(0.5),
        "report: chunked percentiles use ChunkedQ");
  const auto rate = ReportQ(ramp(15), 0.5, false);
  Check(!rate.supported && rate.value == 1,
        "report: unsupported higher-is-better median is the minimum");
  const auto empty = ReportQ(ledger::Sample(), 0.5, true);
  Check(!empty.supported && empty.n == 0, "report: empty sample is flagged");

  ledger::Sample s;
  for (int i = 100; i >= 1; --i) s.Add(i);
  Check(s.Q(0.5) == 50 && s.Q(0.99) == 99 && s.Q(1.0) == 100 && s.Q(0) == 1,
        "nearest-rank quantiles of 1..100");
  // 7000 samples of 1.0 with a 100-sample burst of 50.0 in one stretch:
  // the plain p99 lands in the burst, the chunked p99 does not.
  ledger::Sample burst;
  for (int i = 0; i < 7000; ++i) burst.Add(i >= 3000 && i < 3100 ? 50.0 : 1.0);
  Check(burst.Q(0.99) == 50.0 && burst.ChunkedQ(0.99) == 1.0,
        "chunked p99 confines a burst to its chunk");
  ledger::Sample few;
  for (int i = 1; i <= 500; ++i) few.Add(i);
  Check(few.ChunkedQ(0.99) == few.Q(0.99), "too few samples to chunk: plain Q");
}

void StallAccounting() {
  // 1000 requests/s for 300 ms, serviced in 20 us, with the generator
  // frozen from 100 ms to 150 ms.
  using ledger::Nanos;
  constexpr Nanos kMs = 1'000'000;
  ledger::Pacer pacer(0, 1000.0, 42);
  ledger::PoissonGaps expected_gaps(1000.0, 42);
  std::vector<Nanos> expected;
  for (Nanos t = expected_gaps.Next(); t < 300 * kMs; t += expected_gaps.Next()) {
    expected.push_back(t);
  }
  ledger::OpenLoopStats stats;
  std::vector<Nanos> dues;
  double worst_in_stall = 0;
  double from_send_max = 0;
  for (Nanos now = 0; now < 300 * kMs; now += kMs / 10) {
    if (now >= 100 * kMs && now < 150 * kMs) continue;  // the stall
    Nanos due = 0;
    while (pacer.Pop(now, &due)) {
      dues.push_back(due);
      const Nanos done = now + 20'000;
      stats.Record(due, now, done);
      from_send_max = std::max(from_send_max, (done - now) / 1e6);
      if (due >= 100 * kMs && due < 150 * kMs) {
        worst_in_stall = std::max(worst_in_stall, (done - due) / 1e6);
      }
    }
  }
  std::size_t in_stall = 0;
  Nanos first_in_stall = 0;
  for (Nanos d : expected) {
    if (d >= 100 * kMs && d < 150 * kMs && in_stall++ == 0) first_in_stall = d;
  }
  // The first request due in the stall is sent when it ends (150 ms).
  const double stall_wait = (150 * kMs + 20'000 - first_in_stall) / 1e6;
  Check(dues == expected, "every scheduled request is sent, at its own due time");
  Check(in_stall > 20, "the stall delayed a burst of requests");
  Check(std::fabs(worst_in_stall - stall_wait) < 1e-9 && stall_wait > 40,
        "the first request due in the stall waits until it ends");
  Check(stats.latency_ms.Q(1.0) == worst_in_stall && from_send_max < 0.1,
        "latency counts the stall; send-to-reply would hide it");
  Check(std::fabs(stats.send_lag_ms.Q(1.0) - (stall_wait - 0.02)) < 1e-9,
        "send lag records the stall");
}

void Reproducibility() {
  ledger::PoissonGaps a(500, 7), b(500, 7), c(500, 8);
  bool same = true, differs = false;
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto x = a.Next();
    const auto y = b.Next();
    same = same && x == y;
    differs = differs || x != c.Next();
    sum += static_cast<double>(x);
  }
  Check(same && differs, "Poisson gaps replay exactly from a seed");
  Check(std::fabs(sum / 2000 / 1e6 - 2.0) < 0.2, "Poisson mean gap is 1/rate");

  const ledger::ZipfSampler zipf(1000, 1.1);
  communix::Rng r1(3), r2(3);
  std::vector<std::size_t> counts(1000, 0);
  bool zsame = true;
  for (int i = 0; i < 20000; ++i) {
    const auto x = zipf.Sample(r1);
    zsame = zsame && x == zipf.Sample(r2);
    ++counts[x];
  }
  Check(zsame, "Zipf draws replay exactly from a seed");
  Check(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[500],
        "Zipf rank 0 is the most popular");

  ledger::StormSpec spec;
  spec.seed = 11;
  spec.catalogue = 500;
  ledger::StormPlan p1(spec, 200), p2(spec, 200);
  bool plan_same = true;
  std::size_t frames = 0;
  for (;;) {
    const auto f1 = p1.Next();
    const auto f2 = p2.Next();
    if (f1 == nullptr || f2 == nullptr) {
      plan_same = plan_same && f1 == f2;
      break;
    }
    plan_same = plan_same && f1->body == f2->body && f1->classes == f2->classes;
    ++frames;
  }
  Check(plan_same && frames > 200, "the upload storm replays exactly from a seed");
}

void ProcParsers() {
  const auto st = ledger::ParseProcStat(
      "1234 (my (odd) proc) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 15");
  Check(st && st->utime_ticks == 111 && st->stime_ticks == 222,
        "stat: utime/stime counted from the last ')'");
  Check(!ledger::ParseProcStat("1234 (x) S 1 2"), "stat: truncated is refused");
  Check(!ledger::ParseProcStat("garbage"), "stat: no comm is refused");
  const auto io = ledger::ParseProcIo(
      "rchar: 10\nwchar: 20\nsyscr: 1\nsyscw: 2\nread_bytes: 4096\n"
      "write_bytes: 8192\ncancelled_write_bytes: 0\n");
  Check(io && io->read_bytes == 4096 && io->write_bytes == 8192 && io->wchar == 20,
        "io: keyed fields");
  Check(!ledger::ParseProcIo("rchar: 10\n"), "io: missing fields are refused");
  const auto status = ledger::ParseProcStatus(
      "Name:\tcommunix_server\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\n"
      "VmRSS:\t    4096 kB\n");
  Check(status && status->vm_hwm_kb == 5120 && status->vm_rss_kb == 4096,
        "status: VmHWM / VmRSS");
  const auto self = ledger::ReadProc(static_cast<int>(::getpid()));
  Check(self && self->status.vm_hwm_kb > 0 && ledger::CpuMs(self->stat) >= 0,
        "reads this process's /proc files");
}

void StormClasses() {
  using communix::ErrorCode;
  using ledger::AddClass;
  using ledger::Allowed;
  Check(Allowed(AddClass::kOwn, ErrorCode::kOk) &&
            !Allowed(AddClass::kOwn, ErrorCode::kAlreadyExists),
        "own bugs must be accepted");
  Check(Allowed(AddClass::kCatalogue, ErrorCode::kAlreadyExists) &&
            !Allowed(AddClass::kCatalogue, ErrorCode::kPermissionDenied),
        "catalogue bugs are accepted or duplicates");
  Check(Allowed(AddClass::kVariant, ErrorCode::kPermissionDenied) &&
            Allowed(AddClass::kForged, ErrorCode::kPermissionDenied) &&
            Allowed(AddClass::kOverQuota, ErrorCode::kResourceExhausted) &&
            !Allowed(AddClass::kOverQuota, ErrorCode::kOk),
        "refusal classes map to their codes");
  ledger::PlannedFrame f;
  f.classes = {AddClass::kOwn, AddClass::kCatalogue, AddClass::kCatalogue};
  f.catalogue = {~0u, 5, 5};
  f.sigs.resize(3);
  ledger::StormTally tally;
  tally.Check(f, {ErrorCode::kOk, ErrorCode::kOk, ErrorCode::kAlreadyExists});
  Check(tally.ExpectedAccepted() == 2 && tally.status_violations == 0,
        "tally: one own + one distinct catalogue bug accepted");
  tally.Check(f, {ErrorCode::kOk, ErrorCode::kOk});
  Check(tally.status_violations == 3, "tally: a short status list fails all");
}

}  // namespace

int main() {
  PercentileRule();
  StallAccounting();
  Reproducibility();
  ProcParsers();
  StormClasses();
  std::printf("%s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
