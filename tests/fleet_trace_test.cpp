// prtr::trace integration tests over the fleet simulator: the recorder is
// a pure observer (core bytes identical with tracing on or off), the kept
// trace set and its Perfetto export are byte-identical at any --threads,
// tail retention is total by construction, the per-cell sampled cap only
// ever trims hash-sampled keeps, the per-user token-bucket limiter sheds
// deterministically, the exported trace satisfies the TL/RQ invariant
// rules, and the SLO burn-rate gate produces a populated verdict.
#include <gtest/gtest.h>

#include <string>

#include "fleet/fleet.hpp"
#include "obs/trace_export.hpp"
#include "tasks/hwfunction.hpp"
#include "verify/trace_load.hpp"

namespace prtr {
namespace {

const tasks::FunctionRegistry& paperRegistry() {
  static const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  return registry;
}

const fleet::BladeProfile& sharedProfile() {
  static const fleet::BladeProfile profile = fleet::calibrateBladeProfile(
      paperRegistry(), runtime::ScenarioOptions{}, util::Bytes::kibi(64));
  return profile;
}

fleet::FleetOptions smallFleet() {
  fleet::FleetOptions options;
  options.cells = 4;
  options.bladesPerCell = 3;
  options.requests = 20'000;
  options.payloadBytes = util::Bytes::kibi(64);
  options.users = 32;
  return options;
}

fault::Plan hostilePlan() {
  fault::Plan plan;
  plan.seed = 77;
  plan.icapAbortRate = 0.30;
  plan.transferTimeoutRate = 0.10;
  plan.linkStallRate = 0.05;
  return plan;
}

/// A fleet with every trace-relevant mechanism engaged: hostile blades for
/// failures/retries, hedging for hedge-won tails, a tight per-user limiter
/// for rate-limit sheds.
fleet::FleetOptions tracedFleet() {
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.hedge.enabled = true;
  options.rateLimit.enabled = true;
  options.rateLimit.ratePerSecond = 4.5;
  options.rateLimit.burst = 10.0;
  options.tracing.enabled = true;
  options.tracing.sampleRate = 0.02;
  options.tracing.slowMinSamples = 500;
  return options;
}

TEST(FleetTraceTest, ExportIsByteIdenticalAcrossThreadCounts) {
  fleet::FleetOptions options = tracedFleet();
  options.slo.enabled = true;

  obs::ChromeTrace serialTrace;
  options.threads = 1;
  options.hooks.trace = &serialTrace;
  const fleet::FleetReport serial =
      runFleet(paperRegistry(), sharedProfile(), options);

  obs::ChromeTrace parallelTrace;
  options.threads = 4;
  options.hooks.trace = &parallelTrace;
  const fleet::FleetReport parallel =
      runFleet(paperRegistry(), sharedProfile(), options);

  ASSERT_GT(serial.tracesKept, 0u);
  EXPECT_EQ(serial.tracesKept, parallel.tracesKept);
  EXPECT_EQ(serialTrace.toJson(), parallelTrace.toJson());
  EXPECT_EQ(serial.metrics.toString(), parallel.metrics.toString());
  EXPECT_EQ(serial.toString(), parallel.toString());
}

/// 64-bit FNV-1a over the bytes of `text`.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Byte-identity guard for the recorder and its export: the digest and the
// sampler tallies were recorded from the original (map-keyed, per-request
// vector) recorder, so any storage change must reproduce them exactly.
TEST(FleetTraceTest, ExportDigestIsPinned) {
  fleet::FleetOptions options = tracedFleet();
  obs::ChromeTrace trace;
  options.hooks.trace = &trace;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_EQ(report.tracesKept, 3168u);
  EXPECT_EQ(report.tailEligible, 2793u);
  EXPECT_EQ(report.tracesDroppedCap, 0u);
  EXPECT_EQ(fnv1a64(trace.toJson()), 0x3681343b53cd3f74ULL);
}

TEST(FleetTraceTest, TracingIsAPureObserver) {
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.hedge.enabled = true;
  const fleet::FleetReport off =
      runFleet(paperRegistry(), sharedProfile(), options);

  options.tracing.enabled = true;
  options.tracing.sampleRate = 1.0;
  const fleet::FleetReport on =
      runFleet(paperRegistry(), sharedProfile(), options);

  // The simulated bytes must be unperturbed: the recorder consumes no RNG
  // draws, so the report (which excludes trace counters) matches exactly.
  EXPECT_EQ(off.toString(), on.toString());
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.offered, on.offered);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.failed, on.failed);
  EXPECT_EQ(off.tracesKept, 0u) << "tracing off must keep nothing";
  EXPECT_GT(on.tracesKept, 0u);
}

TEST(FleetTraceTest, TailRetentionIsTotal) {
  const fleet::FleetOptions options = tracedFleet();
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  ASSERT_GT(report.shed, 0u) << "the tight limiter must shed";
  // Shed and failed requests are all tail-classified, so the eligible pool
  // is at least that large — and every eligible request is kept.
  EXPECT_GE(report.tailEligible, report.shed + report.failed);
  EXPECT_EQ(report.tracesKeptTail, report.tailEligible);
  EXPECT_DOUBLE_EQ(report.tailRetention(), 1.0);
  EXPECT_EQ(report.tracesKept, report.tracesKeptTail + report.tracesKeptSampled);
  EXPECT_LE(report.tracesKept, report.tracesRecorded);
}

TEST(FleetTraceTest, SampleRateZeroKeepsOnlyTailRequests) {
  fleet::FleetOptions options = tracedFleet();
  options.tracing.sampleRate = 0.0;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_EQ(report.tracesKeptSampled, 0u);
  EXPECT_EQ(report.tracesKept, report.tracesKeptTail);
  EXPECT_GT(report.tracesKept, 0u) << "tails are kept regardless of the rate";
}

TEST(FleetTraceTest, PerCellCapTrimsOnlySampledKeeps) {
  fleet::FleetOptions options = smallFleet();
  options.tracing.enabled = true;
  options.tracing.sampleRate = 1.0;
  options.tracing.maxSampledPerCell = 10;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_LE(report.tracesKeptSampled, 10u * options.cells);
  EXPECT_GT(report.tracesDroppedCap, 0u);
  EXPECT_DOUBLE_EQ(report.tailRetention(), 1.0);
}

TEST(FleetTraceTest, ExportedTracePassesInvariantRules) {
  fleet::FleetOptions options = tracedFleet();
  obs::ChromeTrace trace;
  options.hooks.trace = &trace;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  ASSERT_GT(report.tracesKept, 0u);

  const auto processes = verify::loadChromeTrace(trace.toJson());
  ASSERT_FALSE(processes.empty());
  analyze::DiagnosticSink sink;
  verify::checkTrace(processes, sink);
  EXPECT_TRUE(sink.empty()) << sink.toText();
}

TEST(FleetRateLimitTest, TokenBucketShedsDeterministicallyAndAccountsFully) {
  fleet::FleetOptions options = smallFleet();
  options.rateLimit.enabled = true;
  options.rateLimit.ratePerSecond = 4.5;
  options.rateLimit.burst = 10.0;

  options.threads = 1;
  const fleet::FleetReport serial =
      runFleet(paperRegistry(), sharedProfile(), options);
  options.threads = 4;
  const fleet::FleetReport parallel =
      runFleet(paperRegistry(), sharedProfile(), options);

  ASSERT_GT(serial.shedRateLimited, 0u)
      << "a per-user rate below the offered per-user-per-cell rate must shed";
  EXPECT_LE(serial.shedRateLimited, serial.shed);
  EXPECT_EQ(serial.offered, serial.admitted + serial.shed);
  EXPECT_EQ(serial.shedRateLimited, parallel.shedRateLimited);
  EXPECT_EQ(serial.toString(), parallel.toString());
}

TEST(FleetRateLimitTest, GenerousBucketNeverEngages) {
  fleet::FleetOptions options = smallFleet();
  options.rateLimit.enabled = true;
  options.rateLimit.ratePerSecond = 10'000.0;
  options.rateLimit.burst = 100.0;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_EQ(report.shedRateLimited, 0u);
}

TEST(FleetSloTest, HealthyFleetPassesTheGate) {
  fleet::FleetOptions options = smallFleet();
  options.slo.enabled = true;
  options.slo.objective = 0.99;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_TRUE(report.slo.pass) << "breach windows: " << report.slo.breachWindows;
  EXPECT_GT(report.slo.good, 0u);
  EXPECT_FALSE(report.series.empty());
  EXPECT_EQ(report.series.totalGood() + report.series.totalBad(),
            report.completed + report.failed + report.shed);
  EXPECT_EQ(report.metrics.counterOr("fleet.slo.pass"), 1u);
}

TEST(FleetSloTest, LimiterSurgeBreachesTheGate) {
  fleet::FleetOptions options = smallFleet();
  options.rateLimit.enabled = true;
  options.rateLimit.ratePerSecond = 4.5;
  options.rateLimit.burst = 10.0;
  options.slo.enabled = true;
  options.slo.objective = 0.999;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  ASSERT_GT(report.shedRateLimited, 0u);
  EXPECT_FALSE(report.slo.pass)
      << "sustained limiter sheds must burn the error budget";
  EXPECT_GT(report.slo.breachWindows, 0u);
  EXPECT_LT(report.slo.goodFraction, options.slo.objective);
  EXPECT_GT(report.slo.fastBurnMax, 0.0);
  EXPECT_EQ(report.metrics.counterOr("fleet.slo.pass"), 0u);
}

}  // namespace
}  // namespace prtr
