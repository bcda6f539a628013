// prtr::fleet contract tests: calibration sanity, byte-identical output at
// any thread count, the retry-budget cap, circuit-breaker open/half-open/
// close cycling under a hostile fault plan, load shedding under overload,
// hedged requests, request accounting (admitted = completed + failed), and
// recycled request slots (memory tracks in-flight requests, and reuse never
// shows in a report or a trace).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analyze/checks_fleet.hpp"
#include "fleet/fleet.hpp"
#include "obs/trace_export.hpp"
#include "tasks/hwfunction.hpp"
#include "util/error.hpp"

namespace prtr {
namespace {

const tasks::FunctionRegistry& paperRegistry() {
  static const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  return registry;
}

/// Calibration runs the full blade simulator per function, so the suite
/// shares one profile at a small payload.
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

/// FNV-1a over a rendered output, for digests pinned across code changes.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(FleetCalibrationTest, ProfilesEveryFunctionWithPositiveCosts) {
  const fleet::BladeProfile& profile = sharedProfile();
  ASSERT_EQ(profile.tasks.size(), paperRegistry().size());
  for (const fleet::TaskProfile& t : profile.tasks) {
    EXPECT_GE(t.execFixedPs, 0);
    EXPECT_GT(t.execPs(64 * 1024), 0);
    EXPECT_GT(t.configPs, 0) << "persona reload must cost time";
    EXPECT_GT(t.configWords, 0u) << "persona reload must write words";
  }
  EXPECT_GT(profile.meanExecPs(64 * 1024), 0);
  EXPECT_GT(profile.meanConfigPs(), 0);
}

TEST(FleetDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.hedge.enabled = true;

  options.threads = 1;
  const fleet::FleetReport serial =
      runFleet(paperRegistry(), sharedProfile(), options);
  options.threads = 4;
  const fleet::FleetReport parallel =
      runFleet(paperRegistry(), sharedProfile(), options);

  EXPECT_EQ(serial.metrics.toString(), parallel.metrics.toString());
  EXPECT_EQ(serial.toString(), parallel.toString());
  EXPECT_EQ(serial.makespan, parallel.makespan);
}

TEST(FleetDeterminismTest, SeedChangesTheRun) {
  fleet::FleetOptions options = smallFleet();
  const fleet::FleetReport a =
      runFleet(paperRegistry(), sharedProfile(), options);
  options.seed ^= 1;
  const fleet::FleetReport b =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_NE(a.metrics.toString(), b.metrics.toString());
}

TEST(FleetHealthyTest, NoFaultsMeansNoFailuresRetriesOrBreakerActivity) {
  const fleet::FleetOptions options = smallFleet();
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.breakerOpens, 0u);
  EXPECT_EQ(report.admitted, report.completed + report.failed);
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.latency.count, 0u);
  EXPECT_GT(report.utilizationMean, 0.0);
  EXPECT_LE(report.utilizationMax, 1.0 + 1e-9);
}

TEST(FleetRetryTest, BudgetCapsRetriesAtTheConfiguredFraction) {
  fleet::FleetOptions options = smallFleet();
  options.faults = hostilePlan();  // every blade is hostile: retry pressure
  options.retry.maxAttempts = 4;
  options.retry.budgetFraction = 0.10;
  options.retry.burstTokens = 5.0;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  ASSERT_GT(report.retries, 0u) << "a hostile plan must provoke retries";
  // Token-bucket invariant, per cell: retries <= fraction * admitted +
  // burst. Summed over cells the burst allowance scales with cell count.
  const double cap =
      options.retry.budgetFraction * static_cast<double>(report.admitted) +
      options.retry.burstTokens * static_cast<double>(options.cells);
  EXPECT_LE(static_cast<double>(report.retries), cap);
  EXPECT_GT(report.retriesDenied, 0u)
      << "a 10% budget under a 30%-abort plan must run dry";
  EXPECT_LE(report.retryBudgetConsumption(),
            options.retry.budgetFraction + 0.01);
}

TEST(FleetBreakerTest, OpensOnDegradedBladesAndRecoversViaProbes) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 40'000;
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.breakerOpens, 0u)
      << "a 30%-abort blade must trip its breaker";
  EXPECT_GT(report.breakerCloses, 0u)
      << "half-open probes at 70% success must eventually close it";
  EXPECT_GT(report.metrics.counterOr("fleet.breaker.half_opens"), 0u);
  // Healthy majority keeps the fleet serving.
  EXPECT_GT(report.completed, report.admitted / 2);
  EXPECT_EQ(report.admitted, report.completed + report.failed);
}

TEST(FleetAdmissionTest, OverloadSheds) {
  fleet::FleetOptions options = smallFleet();
  options.offeredLoad = 1.8;
  options.admission.sloFactor = 4.0;
  options.admission.maxQueueDepth = 8;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.shed, 0u) << "1.8x offered load must shed";
  EXPECT_GT(report.shedRate(), 0.0);
  // Shedding bounds the queue: nobody waits past the SLO-derived deadline
  // plus one service time's worth of estimation slack.
  EXPECT_EQ(report.offered, report.admitted + report.shed);
}

TEST(FleetHedgeTest, HedgesFireAndAreAccounted) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 40'000;
  options.hedge.enabled = true;
  options.hedge.minSamples = 200;
  options.hedge.budgetFraction = 0.10;
  // Link stalls on every blade make stragglers for hedges to beat.
  options.faults.linkStallRate = 0.05;
  options.faults.stallDuration = util::Time::milliseconds(2);
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.hedges, 0u);
  EXPECT_LE(report.hedgeWins, report.hedges);
  const std::uint64_t cancelled =
      report.metrics.counterOr("fleet.hedge_cancelled");
  EXPECT_LE(report.hedgeWins + cancelled, report.hedges + report.completed);
  EXPECT_EQ(report.admitted, report.completed + report.failed);
}

TEST(FleetOptionsTest, ValidationRejectsBrokenTopologies) {
  fleet::FleetOptions options = smallFleet();
  options.bladesPerCell = 7;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options = smallFleet();
  options.offeredLoad = 0.0;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options = smallFleet();
  options.arrival = fleet::ArrivalProcess::kTrace;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
}

TEST(FleetOptionsTest, ValidationRejectsAttemptBudgetsTheCounterCannotHold) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 2'000;
  options.retry.maxAttempts = 256;  // one past the 8-bit attempt counter
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options.retry.maxAttempts = 300;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options.retry.maxAttempts = fleet::RetryPolicy::kMaxAttempts;
  EXPECT_NO_THROW((void)runFleet(paperRegistry(), sharedProfile(), options));
}

TEST(FleetOptionsTest, ValidationRejectsPerCellQuotasTheSequenceCannotHold) {
  fleet::FleetOptions options = smallFleet();
  // Four cells of 2^32 - 1 requests fit the 32-bit per-cell sequence; one
  // more request makes some cell's quota 2^32. Validation runs before any
  // simulation, so neither call simulates billions of requests: the quota
  // at the bound passes, and an invalid offered load checked after it
  // stops the run.
  options.cells = 4;
  options.requests = 4 * fleet::FleetOptions::kMaxRequestsPerCell + 1;
  EXPECT_EQ(options.maxCellQuota(),
            fleet::FleetOptions::kMaxRequestsPerCell + 1);
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options.requests = 4 * fleet::FleetOptions::kMaxRequestsPerCell;
  EXPECT_EQ(options.maxCellQuota(), fleet::FleetOptions::kMaxRequestsPerCell);
  options.offeredLoad = 0.0;
  try {
    (void)runFleet(paperRegistry(), sharedProfile(), options);
    FAIL() << "a zero offered load must be rejected";
  } catch (const util::DomainError& e) {
    EXPECT_EQ(std::string(e.what()).find("per cell"), std::string::npos)
        << e.what();
  }
}

TEST(FleetTest, RequestSlotsTrackInFlightNotTotal) {
  fleet::FleetOptions options = smallFleet();
  const fleet::FleetReport small =
      runFleet(paperRegistry(), sharedProfile(), options);
  options.requests = 200'000;
  const fleet::FleetReport large =
      runFleet(paperRegistry(), sharedProfile(), options);
  ASSERT_EQ(large.offered, 200'000u);
  EXPECT_GT(small.peakLiveRequests, 0u);
  // Ten times the requests at the same load: the slot high-water mark
  // follows the in-flight population, not the total.
  EXPECT_LE(large.peakLiveRequests, 2 * small.peakLiveRequests);
  EXPECT_LT(large.peakLiveRequests, options.maxCellQuota() / 100);
}

TEST(FleetTest, SlotReuseNeverLeaksIntoOutputs) {
  // Every path that holds a slot past its terminal decision: hedge losers
  // still queued or in service, pending retry and hedge timers, sheds, and
  // failures under a degraded chaos plan, all traced.
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.faults.linkStallRate = 0.05;
  options.faults.stallDuration = util::Time::milliseconds(2);
  options.retry.maxAttempts = 4;
  options.hedge.enabled = true;
  options.hedge.minSamples = 200;
  options.hedge.budgetFraction = 0.10;
  options.offeredLoad = 0.9;
  options.tracing.enabled = true;
  options.tracing.sampleRate = 1.0;
  options.tracing.maxSampledPerCell = options.requests;

  obs::ChromeTrace serialTrace;
  options.threads = 1;
  options.hooks.trace = &serialTrace;
  fleet::FleetReport serial;
  ASSERT_NO_THROW(serial = runFleet(paperRegistry(), sharedProfile(), options));

  obs::ChromeTrace pooledTrace;
  options.threads = 4;
  options.hooks.trace = &pooledTrace;
  fleet::FleetReport pooled;
  ASSERT_NO_THROW(pooled = runFleet(paperRegistry(), sharedProfile(), options));

  // The run exercised every slot-holding path and recycled slots.
  EXPECT_EQ(serial.hedges, 684u);
  EXPECT_EQ(serial.hedgeWins, 473u);
  EXPECT_EQ(serial.retries, 239u);
  EXPECT_EQ(serial.failed, 2u);
  EXPECT_EQ(serial.shed, 3326u);
  EXPECT_LT(serial.peakLiveRequests, options.maxCellQuota() / 10);
  EXPECT_EQ(serial.tracesRecorded, serial.offered);
  EXPECT_EQ(serial.tracesKept, serial.offered);

  EXPECT_EQ(serial.toString() + serial.metrics.toString(),
            pooled.toString() + pooled.metrics.toString());
  EXPECT_EQ(serial.peakLiveRequests, pooled.peakLiveRequests);
  EXPECT_EQ(serialTrace.toJson(), pooledTrace.toJson());
  // Both digests and the counts above were recorded with an append-only
  // request vector (one slot per request, never reused): recycling slots
  // must reproduce every byte.
  EXPECT_EQ(fnv1a64(serial.toString() + serial.metrics.toString()),
            0x53345814690946c4ULL);
  EXPECT_EQ(fnv1a64(serialTrace.toJson()), 0x91e86cd3b0b58481ULL);
  // Kept traces carry arrival sequences, not slots: each cell's indices
  // are exactly 0..quota-1.
  for (const trace::CellTrace& cell : serial.traces.cells) {
    std::vector<bool> seen(options.maxCellQuota(), false);
    for (const trace::RequestTrace& rt : cell.kept) {
      ASSERT_LT(rt.index, seen.size());
      EXPECT_FALSE(seen[rt.index]) << "sequence " << rt.index << " twice";
      seen[rt.index] = true;
    }
    EXPECT_EQ(cell.kept.size(), options.maxCellQuota());
  }
}

TEST(FleetTraceTest, TraceArrivalsReplayDeterministically) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 5'000;
  options.arrival = fleet::ArrivalProcess::kTrace;
  options.trace = {
      {util::Time::microseconds(40).ps(), 0, 0},
      {util::Time::microseconds(5).ps(), 1, 32 * 1024},
      {util::Time::microseconds(90).ps(), -1, 0},
  };
  const fleet::FleetReport a =
      runFleet(paperRegistry(), sharedProfile(), options);
  const fleet::FleetReport b =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_EQ(a.metrics.toString(), b.metrics.toString());
  EXPECT_GT(a.completed, 0u);
}

TEST(FleetSpecTest, RoundTripsThroughTheSpecFormat) {
  std::istringstream spec{R"(# chaos fleet
cells 3
blades 5
requests 1234
arrival fixed-rate
offered-load 0.6
routing least-loaded
max-attempts 4
retry-budget 0.15
breaker-failures 7
hedge true
hedge-quantile 0.9
degraded-fraction 0.2
)"};
  const analyze::FleetSpec parsed = analyze::parseFleetSpec(spec);
  const fleet::FleetOptions options = analyze::fleetSpecToOptions(parsed);
  EXPECT_EQ(options.cells, 3u);
  EXPECT_EQ(options.bladesPerCell, 5u);
  EXPECT_EQ(options.requests, 1234u);
  EXPECT_EQ(options.arrival, fleet::ArrivalProcess::kFixedRate);
  EXPECT_EQ(options.routing, fleet::RoutingPolicy::kLeastLoaded);
  EXPECT_DOUBLE_EQ(options.offeredLoad, 0.6);
  EXPECT_EQ(options.retry.maxAttempts, 4u);
  EXPECT_DOUBLE_EQ(options.retry.budgetFraction, 0.15);
  EXPECT_EQ(options.breaker.consecutiveFailures, 7u);
  EXPECT_TRUE(options.hedge.enabled);
  EXPECT_DOUBLE_EQ(options.hedge.quantile, 0.9);
  EXPECT_DOUBLE_EQ(options.degradedFraction, 0.2);

  std::istringstream bad{"cells 2 3\n"};
  EXPECT_THROW((void)analyze::parseFleetSpec(bad), util::DomainError);
  std::istringstream unknown{"no-such-key 1\n"};
  EXPECT_THROW((void)analyze::parseFleetSpec(unknown), util::DomainError);
}

}  // namespace
}  // namespace prtr
