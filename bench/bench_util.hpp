// Shared helpers for the paper-reproduction bench binaries.
//
// These binaries intentionally do not use google-benchmark's
// microbenchmark loop: each reproduces one table/figure of the paper and
// prints the same rows/series the paper reports. Each bench can also
// emit a BENCH_<name>.json series file (BenchJson) so CI records the
// perf trajectory run over run.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "../tests/testutil.hpp"
#include "dimmunix/signature.hpp"
#include "util/rng.hpp"

namespace communix::bench {

/// A random but *well-formed* signature, as the paper's server bench uses
/// ("adding new random signatures to the database"). Tops are unique per
/// (user, index) so the adjacency check does not reject them.
inline dimmunix::Signature RandomSignature(Rng& rng, std::uint32_t unique) {
  const std::string cls_a = "load.C" + std::to_string(rng.NextBounded(4096));
  const std::string cls_b = "load.D" + std::to_string(rng.NextBounded(4096));
  return testutil::Sig2(
      testutil::ChainStack(cls_a, 10,
                           testutil::F(cls_a, "sync", 4u * unique + 1)),
      testutil::ChainStack(cls_a, 11,
                           testutil::F(cls_a, "wait", 4u * unique + 2)),
      testutil::ChainStack(cls_b, 10,
                           testutil::F(cls_b, "sync", 4u * unique + 3)),
      testutil::ChainStack(cls_b, 11,
                           testutil::F(cls_b, "wait", 4u * unique + 4)));
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// ---- flag helpers (benches share a tiny --flag / --flag=value syntax) ----

/// True if `arg` is exactly `--name`.
inline bool FlagIs(const char* arg, const char* name) {
  return std::strcmp(arg, name) == 0;
}

/// If `arg` is `--name=value`, stores value and returns true.
inline bool FlagValue(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

// ---- perf-trajectory JSON (BENCH_<name>.json) ----

/// Collects flat rows of numeric fields (and optional string labels)
/// and writes
///   {"bench":"<name>","rows":[{"series":"...","k":v,...,"l":"s"},...]}
/// Append rows as the bench runs, WriteToFile at the end.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void AddRow(std::string series,
              std::vector<std::pair<std::string, double>> fields,
              std::vector<std::pair<std::string, std::string>> labels = {}) {
    rows_.push_back({std::move(series), std::move(fields), std::move(labels)});
  }

  bool WriteToFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"bench\":\"%s\",\"rows\":[", bench_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      std::fprintf(f, "%s{\"series\":\"%s\"", i == 0 ? "" : ",",
                   row.series.c_str());
      for (const auto& [key, value] : row.fields) {
        std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
      }
      for (const auto& [key, value] : row.labels) {
        std::fprintf(f, ",\"%s\":\"%s\"", key.c_str(), value.c_str());
      }
      std::fputc('}', f);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Row {
    std::string series;
    std::vector<std::pair<std::string, double>> fields;
    std::vector<std::pair<std::string, std::string>> labels;
  };

  std::string bench_;
  std::vector<Row> rows_;
};

}  // namespace communix::bench
