#pragma once
/// \file bench_io.hpp
/// Machine-readable output for the bench binaries. Every bench constructs
/// a BenchReport from its parsed bench::Options, registers the tables and
/// key scalars it prints, and returns finish() from main. With
/// `--json <path>` the run additionally emits one JSON document:
///
///   {"bench":"table2","scalars":{...},"notes":{...},
///    "tables":{"name":{"header":[...],"rows":[[...],...]}},
///    "metrics":{"counters":{...},...}}
///
/// so the CI smoke job and perf-trajectory tooling (prtr-report) consume
/// the same numbers the human-readable tables show. The report reads only
/// `--json` and `--threads`; the caller owns every other flag.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/options.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace prtr::obs {

class BenchReport {
 public:
  /// `name` is the document's "bench" field; `options` supplies the JSON
  /// path (none: finish() writes nothing) and the "threads" scalar.
  BenchReport(std::string name, const bench::Options& options)
      : name_(std::move(name)), options_(options) {}

  /// Registers a key scalar (measured speedup, model error, ...).
  void scalar(const std::string& name, double value);
  void scalar(const std::string& name, std::uint64_t value);

  /// Registers a free-form string fact (device name, layout, ...).
  void note(const std::string& name, const std::string& text);

  /// Registers a rendered table under `name` (copied).
  void table(const std::string& name, const util::Table& table);

  /// Registers the run's metrics snapshot (merged into any prior one).
  void metrics(const MetricsSnapshot& snapshot);
  /// Move overload for temporaries (Pool::metricsSnapshot(), takeMerged()):
  /// splices the maps instead of copying every key.
  void metrics(MetricsSnapshot&& snapshot);

  /// Writes the JSON document when --json was requested. Returns the
  /// process exit code for main (0; file errors propagate as exceptions).
  [[nodiscard]] int finish() const;

 private:
  std::string name_;
  bench::Options options_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, util::Table>> tables_;
  MetricsSnapshot metrics_;
};

}  // namespace prtr::obs
