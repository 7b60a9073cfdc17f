// Shared helpers for building frames, stacks and signatures in tests.
#pragma once

#include <string>
#include <vector>

#include "communix/store/signature_log.hpp"
#include "dimmunix/frame.hpp"
#include "dimmunix/signature.hpp"
#include "util/serde.hpp"

namespace communix::testutil {

inline dimmunix::Frame F(const std::string& cls, const std::string& method,
                         std::uint32_t line) {
  return dimmunix::Frame(cls, method, line);
}

/// Stack from bottom to top: Stack({F(...bottom...), ..., F(...top...)}).
inline dimmunix::CallStack Stack(std::vector<dimmunix::Frame> frames) {
  return dimmunix::CallStack(std::move(frames));
}

/// A synthetic stack "cls.m0:1 ... cls.m{n-1}:n" with the given top frame.
inline dimmunix::CallStack ChainStack(const std::string& cls, std::size_t depth,
                                      dimmunix::Frame top) {
  std::vector<dimmunix::Frame> frames;
  for (std::size_t i = 0; i + 1 < depth; ++i) {
    frames.push_back(
        F(cls, "m" + std::to_string(i), static_cast<std::uint32_t>(i + 1)));
  }
  frames.push_back(std::move(top));
  return dimmunix::CallStack(std::move(frames));
}

/// Two-thread signature from outer/inner stacks.
inline dimmunix::Signature Sig2(dimmunix::CallStack outer1,
                                dimmunix::CallStack inner1,
                                dimmunix::CallStack outer2,
                                dimmunix::CallStack inner2) {
  std::vector<dimmunix::SignatureEntry> entries;
  entries.push_back({std::move(outer1), std::move(inner1)});
  entries.push_back({std::move(outer2), std::move(inner2)});
  return dimmunix::Signature(std::move(entries));
}

/// A store GET reply as one flat payload: the u32 count, then the bytes
/// of every run — what a client receives.
inline std::vector<std::uint8_t> Flatten(const store::SuffixReply& reply) {
  BinaryWriter w;
  w.WriteU32(reply.count);
  std::vector<std::uint8_t> flat = w.take();
  AppendRuns(reply.runs, &flat);
  return flat;
}

}  // namespace communix::testutil
