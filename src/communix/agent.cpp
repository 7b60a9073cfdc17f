#include "communix/agent.hpp"

#include "dimmunix/frame.hpp"
#include "util/logging.hpp"

namespace communix {

using bytecode::NestingAnalysis;
using bytecode::NestingReport;
using dimmunix::CallStack;
using dimmunix::Frame;
using dimmunix::Signature;
using dimmunix::SignatureOrigin;

CommunixAgent::CommunixAgent(dimmunix::DimmunixRuntime& runtime,
                             const bytecode::Program& app,
                             LocalRepository& repo, Options options)
    : CommunixAgent(runtime, app, repo,
                    NestingAnalysis(app).AnalyzeAll(), options) {}

CommunixAgent::CommunixAgent(dimmunix::DimmunixRuntime& runtime,
                             const bytecode::Program& app,
                             LocalRepository& repo, NestingReport nesting,
                             Options options)
    : runtime_(runtime),
      app_(app),
      repo_(repo),
      options_(options),
      nesting_(std::move(nesting)) {
  RebuildNestedKeySet();
}

void CommunixAgent::RebuildNestedKeySet() {
  nested_frame_keys_.clear();
  for (std::int32_t site_id : nesting_.nested_sites) {
    const auto& site = app_.lock_site(site_id);
    const Frame frame(app_.klass(site.class_id).name,
                      app_.method(site.method_id).name, site.line);
    nested_frame_keys_.insert(frame.location_key);
  }
}

bool CommunixAgent::TrimStackToMatchingSuffix(CallStack& stack) const {
  const auto& frames = stack.frames();
  if (frames.empty()) return false;

  // Walk from the top frame downwards; stop at the first mismatch.
  std::size_t matched = 0;
  for (std::size_t i = frames.size(); i-- > 0;) {
    const Frame& f = frames[i];
    if (!f.class_hash) break;  // remote signatures must carry hashes
    const auto app_hash = app_.ClassHashByName(f.class_name);
    if (!app_hash || *app_hash != *f.class_hash) break;
    ++matched;
  }
  if (matched == 0) return false;  // top frame mismatch => reject
  stack.TrimToDepth(matched);
  return true;
}

bool CommunixAgent::OuterTopsAreNested(const Signature& sig) const {
  for (const auto& e : sig.entries()) {
    if (e.outer.empty() ||
        nested_frame_keys_.count(e.outer.TopKey()) == 0) {
      return false;
    }
  }
  return true;
}

CommunixAgent::Verdict CommunixAgent::ValidateAndTrim(Signature& sig) const {
  if (sig.empty() || sig.num_threads() < 2) return Verdict::kRejectedMalformed;

  if (options_.hash_check_enabled) {
    std::vector<dimmunix::SignatureEntry> entries = sig.entries();
    for (auto& e : entries) {
      // Outer *and* inner stacks are hash-checked: the code between the
      // outer and inner lock statements may have been fixed in this
      // version (§III-C3).
      if (!TrimStackToMatchingSuffix(e.outer) ||
          !TrimStackToMatchingSuffix(e.inner)) {
        return Verdict::kRejectedHash;
      }
    }
    sig = Signature(std::move(entries));
  }

  if (options_.depth_check_enabled &&
      sig.MinOuterDepth() < options_.min_outer_depth) {
    return Verdict::kRejectedDepth;
  }

  if (options_.nesting_check_enabled && !OuterTopsAreNested(sig)) {
    return Verdict::kRejectedNesting;
  }
  return Verdict::kValid;
}

bool CommunixAgent::Generalize(const Signature& sig) {
  ScanReport report;
  InstallBatch({sig}, &report);
  return report.merged > 0;
}

void CommunixAgent::InstallBatch(std::vector<Signature> sigs,
                                 ScanReport* report) {
  if (sigs.empty()) return;
  // One WithHistory call = one index republish: the runtime re-publishes
  // its avoidance index when this returns, so a startup scan of N
  // signatures costs one republish instead of N — and that republish
  // re-indexes only the records this batch added or replaced, sharing
  // everything else with the previous snapshot.
  runtime_.WithHistory([&](dimmunix::History& history) {
    for (Signature& sig : sigs) {
      bool merged = false;
      for (std::size_t idx : history.FindByBugKey(sig.BugKey())) {
        const auto& rec = history.record(idx);
        // Merge rule (§III-D): only local+local merges may go below depth
        // 5; every signature the agent installs is remote, so the result
        // must keep outer depth >= min_outer_depth — an attacker cannot
        // exploit generalization to shear stacks down to the top frames.
        // (Local/local merging happens in Dimmunix itself, not here.)
        (void)rec.origin;
        auto result = Signature::Merge(rec.sig, sig, options_.min_outer_depth);
        if (result) {
          history.Replace(idx, std::move(*result));
          merged = true;
          break;
        }
      }
      if (!merged) {
        history.Add(std::move(sig), SignatureOrigin::kRemote,
                    runtime_.clock().Now());
      }
      if (merged) {
        ++report->merged;
      } else {
        ++report->added;
      }
    }
  });
}

CommunixAgent::ScanReport CommunixAgent::ProcessState(SigState state) {
  ScanReport report;
  // Validation needs no history access, so the scan stages accepted
  // signatures and installs them afterwards in one batch — the runtime's
  // workload threads see a single index republish, not one per entry.
  std::vector<Signature> accepted;
  repo_.ForEachInState(state, [&](std::size_t,
                                  const LocalRepository::Entry& entry)
                                  -> SigState {
    ++report.examined;
    auto sig = Signature::FromBytes(std::span<const std::uint8_t>(
        entry.bytes.data(), entry.bytes.size()));
    if (!sig) {
      ++report.rejected_malformed;
      return SigState::kRejectedMalformed;
    }
    switch (ValidateAndTrim(*sig)) {
      case Verdict::kRejectedMalformed:
        ++report.rejected_malformed;
        return SigState::kRejectedMalformed;
      case Verdict::kRejectedHash:
        ++report.rejected_hash;
        return SigState::kRejectedHash;
      case Verdict::kRejectedDepth:
        ++report.rejected_depth;
        return SigState::kRejectedDepth;
      case Verdict::kRejectedNesting:
        ++report.rejected_nesting;
        return SigState::kRejectedNesting;
      case Verdict::kValid:
        break;
    }
    ++report.accepted;
    accepted.push_back(std::move(*sig));
    return SigState::kAccepted;
  });
  InstallBatch(std::move(accepted), &report);
  return report;
}

CommunixAgent::ScanReport CommunixAgent::ProcessNewSignatures() {
  return ProcessState(SigState::kNew);
}

CommunixAgent::ScanReport CommunixAgent::RecheckNestingRejected(
    const NestingReport& updated) {
  nesting_ = updated;
  RebuildNestedKeySet();
  return ProcessState(SigState::kRejectedNesting);
}

}  // namespace communix
