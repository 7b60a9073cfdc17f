#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ctime>
#include <set>

#include "sim/attacker.hpp"
#include "util/clock.hpp"

namespace communix::sim {
namespace {

using bytecode::GenerateApp;
using bytecode::SyntheticApp;
using bytecode::SyntheticSpec;
using dimmunix::DimmunixRuntime;
using dimmunix::SignatureOrigin;

SyntheticApp App() {
  SyntheticSpec spec;
  spec.name = "wl";
  spec.target_loc = 8'000;
  spec.sync_blocks = 24;
  spec.analyzable_sync_blocks = 18;
  spec.nested_sync_blocks = 8;
  spec.sync_helpers = 2;
  spec.classes = 4;
  spec.driver_chain_length = 7;
  return GenerateApp(spec);
}

ContendedConfig SmallConfig() {
  ContendedConfig cfg;
  cfg.threads = 4;
  cfg.iterations_per_thread = 200;
  cfg.sites_used = 4;
  cfg.work_outside = 5;
  cfg.work_inside = 5;
  cfg.work_inner = 2;
  return cfg;
}

TEST(ContendedWorkloadTest, RunsToCompletionWithoutSignatures) {
  const auto app = App();
  ContendedWorkload wl(app, SmallConfig());
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  const auto result = wl.Run(rt);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_EQ(result.stats.deadlocks_detected, 0u);
  EXPECT_EQ(result.stats.avoidance_suspensions, 0u);
  EXPECT_EQ(result.stats.acquisitions,
            static_cast<std::uint64_t>(4 * 200 * 2))
      << "outer + inner acquisition per iteration";
}

TEST(ContendedWorkloadTest, VanillaRunCompletes) {
  const auto app = App();
  ContendedWorkload wl(app, SmallConfig());
  EXPECT_GT(wl.RunVanilla(), 0.0);
}

TEST(ContendedWorkloadTest, AttackSignaturesTriggerAvoidance) {
  const auto app = App();
  auto cfg = SmallConfig();
  // Every critical iteration takes the canonical path, so depth-5
  // signatures match deterministically.
  cfg.alternate_path_fraction = 0.0;
  // A suspension needs two threads to *overlap* inside an attacked
  // region. On a single-core host that overlap only comes from the
  // scheduler preempting a thread mid-region, so make the regions wide
  // and the run long enough that at least one preemption lands inside.
  cfg.iterations_per_thread = 5'000;
  cfg.work_inside = 40;
  cfg.work_inner = 15;
  ContendedWorkload wl(app, cfg);
  VirtualClock clock;
  DimmunixRuntime::Options opts;
  // Keep the FP detector out of the way: this test measures avoidance.
  opts.fp.instantiation_threshold = 1'000'000'000;
  DimmunixRuntime rt(clock, opts);
  for (const auto& sig : MakeCriticalPathBatch(app, wl.sites(), 8, 5)) {
    rt.AddSignature(sig, SignatureOrigin::kRemote);
  }
  const auto result = wl.Run(rt);
  EXPECT_GT(result.stats.avoidance_suspensions, 0u)
      << "critical-path signatures must cause suspensions";
  EXPECT_EQ(result.stats.deadlocks_detected, 0u);
}

TEST(ContendedWorkloadTest, OffCriticalPathSignaturesCauseNoSuspensions) {
  const auto app = App();
  auto cfg = SmallConfig();
  cfg.sites_used = 4;
  ContendedWorkload wl(app, cfg);
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  // Signatures over the *other* nested sites (not used by the workload).
  ASSERT_GE(app.nested_sites.size(), 6u);
  std::vector<std::int32_t> unused(app.nested_sites.begin() + 4,
                                   app.nested_sites.end());
  for (const auto& sig : MakeCriticalPathBatch(app, unused, 4, 5)) {
    rt.AddSignature(sig, SignatureOrigin::kRemote);
  }
  const auto result = wl.Run(rt);
  EXPECT_EQ(result.stats.avoidance_suspensions, 0u);
}

TEST(ContendedWorkloadTest, CriticalFractionZeroSkipsLocks) {
  const auto app = App();
  auto cfg = SmallConfig();
  cfg.critical_fraction = 0.0;
  ContendedWorkload wl(app, cfg);
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  const auto result = wl.Run(rt);
  EXPECT_EQ(result.stats.acquisitions, 0u);
}

TEST(AbbaWorkloadTest, DeadlocksWithEmptyHistory) {
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  const auto result = AbbaWorkload(25).Run(rt);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_GE(rt.GetStats().deadlocks_detected, 1u);
}

TEST(AbbaWorkloadTest, LearnsExactlyOneBug) {
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  AbbaWorkload(25).Run(rt);
  const auto hist = rt.SnapshotHistory();
  std::set<std::uint64_t> bugs;
  for (const auto& rec : hist.records()) bugs.insert(rec.sig.BugKey());
  EXPECT_EQ(bugs.size(), 1u) << "all manifestations are the same AB/BA bug";
}

TEST(AbbaWorkloadTest, ImmuneWithinASingleRun) {
  // The first iterations deadlock; once the signature is learned the
  // remaining iterations complete. Overall: deadlock count must be far
  // below the iteration count.
  VirtualClock clock;
  DimmunixRuntime rt(clock);
  const auto result = AbbaWorkload(40).Run(rt);
  EXPECT_TRUE(result.deadlocked);
  const auto stats = rt.GetStats();
  EXPECT_LE(stats.deadlocks_detected, 5u)
      << "immunity should kick in after the first manifestations";
  EXPECT_GT(result.completed_pairs, 60);
}

/// CPU seconds this thread spends in BusyWork(units): the least of three
/// runs, each on the thread's CPU clock, so neither preemption under a
/// parallel test run nor a cold first run can stretch it.
double BusyWorkCpuSeconds(std::uint32_t units) {
  double best = 1e100;
  for (int run = 0; run < 3; ++run) {
    timespec start{}, end{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
    BusyWork(units);
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
    best = std::min(best, static_cast<double>(end.tv_sec - start.tv_sec) +
                              1e-9 * static_cast<double>(end.tv_nsec -
                                                         start.tv_nsec));
  }
  return best;
}

TEST(BusyWorkTest, ScalesRoughlyLinearly) {
  // Sanity: 4x the units should take clearly more time (not exact).
  const double t1 = BusyWorkCpuSeconds(20'000);
  const double t2 = BusyWorkCpuSeconds(80'000);
  EXPECT_GT(t2, t1 * 2) << "t1=" << t1 << " t2=" << t2;
}

}  // namespace
}  // namespace communix::sim
