#pragma once
/// \file common.hpp
/// Shared vocabulary of the perfbench binary: run settings, the metric and
/// ledger records a workload fills in, host-clock and memory probes, and
/// the span recorder the traced run uses.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t nsBetween(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// CPU time consumed so far by the calling thread / by the whole process.
[[nodiscard]] inline std::int64_t cpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}
[[nodiscard]] inline std::int64_t threadCpuNs() {
  return cpuNs(CLOCK_THREAD_CPUTIME_ID);
}
[[nodiscard]] inline std::int64_t processCpuNs() {
  return cpuNs(CLOCK_PROCESS_CPUTIME_ID);
}

/// Run settings shared by every workload.
struct Settings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;          ///< reduced size for the self-test
  std::size_t participants = 1;  ///< participants of the measured loop
  std::size_t poolWidth = 1;     ///< pool participants of the traced probe
  std::string chromeTracePath;  ///< traced run: where the spans go
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One ledger row: a layer's count times its unit cost.
struct LedgerRow {
  std::string layer;
  std::string what;     ///< what is counted
  double count = 0.0;
  double unitNs = 0.0;  ///< host ns per counted item
  [[nodiscard]] double totalNs() const { return count * unitNs; }
};

/// What a workload run hands back to main.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< invariant violations, for humans
  std::string digest;                 ///< hex digest of the reference output
  std::map<std::string, Metric> metrics;
  std::vector<LedgerRow> ledger;
  double ledgerBaseNs = 0.0;  ///< measured-loop wall the ledger explains

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::uint64_t problemCount = 0;  ///< every failed check, listed or not

  /// Records a failed check; the first few are kept for the report.
  void fail(std::string problem) {
    if (++problemCount <= 20) problems.push_back(std::move(problem));
  }
};

/// Median and other order statistics of `values` (linear interpolation
/// between closest ranks). Empty input yields 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far, in MB (getrusage).
[[nodiscard]] double peakRssMb();
/// Current resident set, in MB (/proc/self/statm).
[[nodiscard]] double currentRssMb();

/// 64-bit FNV-1a over `text`, as 16 hex digits.
[[nodiscard]] std::string digestHex(const std::string& text);

/// Host-time spans for the traced run, written as Chrome-trace JSON.
/// Recording is mutex-guarded: spans wrap whole scenario or fleet calls,
/// so a few thousand per run at most.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(const std::string& name, const std::string& category,
              Clock::time_point start, Clock::time_point end);

  /// Writes every span plus `metadata` (already-rendered JSON object).
  void writeChromeTrace(const std::string& path,
                        const std::string& metadata) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    std::string name;
    std::string category;
    std::int64_t startNs;
    std::int64_t durNs;
    std::uint32_t thread;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::size_t, std::uint32_t> threads_;
};

/// Times `fn` and records it as a span when the recorder is enabled.
template <typename Fn>
std::int64_t timed(SpanRecorder& spans, const std::string& name,
                   const std::string& category, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (spans.enabled()) spans.record(name, category, start, end);
  return nsBetween(start, end);
}

/// Per-layer unit costs measured by timing single library calls in a loop.
struct UnitCosts {
  double kernelNsPerEvent = 0.0;  ///< sim::Simulator delay loop
  double buildMbPerS = 0.0;       ///< bitstream::Builder::buildModulePartial
  double parseMbPerS = 0.0;       ///< bitstream::parse
  double crcMbPerS = 0.0;         ///< util::Crc32::of
  double applyMbPerS = 0.0;       ///< config::ConfigMemory::applyPartial
  double applyFullNs = 0.0;       ///< config::ConfigMemory::applyFull, per call
  double partialBytes = 0.0;      ///< dual-PRR partial stream size
  double addNs = 0.0;             ///< obs::Registry::add by id
  double observeNs = 0.0;         ///< obs::Registry::observe by id
};

/// Measures every unit cost above (about a second of host time).
[[nodiscard]] UnitCosts measureUnitCosts(SpanRecorder& spans);

/// Adds the unit-cost metrics every traced run reports.
void reportUnitCosts(const UnitCosts& costs, Outcome& out);

/// Prints the ledger table and sets ledger.residual_frac.
void finishLedger(const std::string& workload, Outcome& out);

/// Runs one workload; main dispatches on Settings::workload.
[[nodiscard]] Outcome runFig9(const Settings& settings, SpanRecorder& spans);
[[nodiscard]] Outcome runChaos(const Settings& settings, SpanRecorder& spans);
[[nodiscard]] Outcome runFleet(const Settings& settings, SpanRecorder& spans);

}  // namespace perfbench
