// Fleet benchmark: the prtr::fleet serving simulation at one million
// requests — healthy, under chaos (20% of blades running a hostile fault
// plan), and under surge (the rate limiter, request tracing, and the SLO
// burn-rate gate engaged). This is the robustness gate for the fleet
// subsystem: CI runs it at 1 and N threads and validates that the merged
// snapshots are byte-identical for all three points, that the retry
// budget holds under chaos (no retry storm), that breakers open and
// recover, that the admission rate limiter engages under surge, that
// tail-based trace sampling retains 100% of its tail, and that tail
// latency stays inside the committed baseline band via prtr-report (the
// run is fully deterministic, so every simulated scalar reproduces
// exactly). With --trace, a reduced surge run exports its kept request
// traces as Chrome/Perfetto JSON for prtr-verify and prtr-trace. Last, the
// `flat` point replays the healthy fleet at 100x the requests, untraced,
// and fails the run unless the process peak RSS stays within 1.2x of its
// peak before that point: request slots are recycled, so fleet memory
// tracks in-flight requests, not the request count.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/checks_fleet.hpp"
#include "bench/figures.hpp"
#include "exec/pool.hpp"
#include "fleet/fleet.hpp"
#include "obs/bench_io.hpp"
#include "obs/trace_export.hpp"
#include "tasks/hwfunction.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace prtr;

constexpr std::uint64_t kFleetSeed = 61927;  // matches examples/fleet/*.fleet
constexpr std::uint64_t kDefaultRequests = 1'000'000;
/// The flat-memory point runs this many times the requests of the others.
constexpr std::uint64_t kFlatScale = 100;
/// Largest allowed growth of the process peak RSS over the flat point.
constexpr double kFlatRssBound = 1.2;

/// The committed-baseline configuration: examples/fleet/steady.fleet.
fleet::FleetOptions baseOptions() {
  fleet::FleetOptions options;
  options.cells = 4;
  options.bladesPerCell = 6;
  options.requests = kDefaultRequests;
  options.seed = kFleetSeed;
  options.offeredLoad = 0.7;
  return options;
}

/// The chaos variant: 20% of blades (rounded per cell) run a hostile
/// plan — ICAP aborts, transfer timeouts, and link stalls — while the
/// healthy majority carries the traffic around the open breakers.
fleet::FleetOptions chaosOptions(const fleet::FleetOptions& base) {
  fleet::FleetOptions options = base;
  options.degradedFraction = 0.2;
  options.degradedFaults.seed = base.seed ^ 0xC4A05u;
  options.degradedFaults.icapAbortRate = 0.30;
  options.degradedFaults.transferTimeoutRate = 0.10;
  options.degradedFaults.linkStallRate = 0.05;
  return options;
}

/// The surge variant: the same fleet pushed to 95% offered load with the
/// full observability stack on — per-user admission rate limiting,
/// tail-based request tracing, and the multi-window SLO burn-rate gate.
/// Buckets are per cell (each cell admits its shard of a user's traffic
/// independently), so the 4.5 rps quota sits below the ~5.4 rps per-user
/// per-cell offered rate: the buckets drain within seconds and the
/// limiter sheds the sustained excess. The shed fraction makes the SLO
/// breach by design — surge is the point that demonstrates the gates
/// fire, healthy is the point that demonstrates they stay quiet.
fleet::FleetOptions surgeOptions(const fleet::FleetOptions& base) {
  fleet::FleetOptions options = base;
  options.offeredLoad = 0.95;
  options.rateLimit.enabled = true;
  options.rateLimit.ratePerSecond = 4.5;
  options.rateLimit.burst = 10.0;
  options.tracing.enabled = true;
  options.tracing.sampleRate = 0.01;
  options.slo.enabled = true;
  return options;
}

/// The flat-memory variant: the healthy point at kFlatScale x the
/// requests with both O(sim-time) observers off — kept-trace arenas are
/// O(kept) with tail keeps never capped, and the SLO series grows by one
/// window per 50 ms of simulated time.
fleet::FleetOptions flatOptions(const fleet::FleetOptions& base) {
  fleet::FleetOptions options = base;
  options.requests = base.requests * kFlatScale;
  options.tracing.enabled = false;
  options.slo.enabled = false;
  return options;
}

/// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
double peakRssKib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// One fleet point rendered for the byte-identity gate: the report body
/// plus every merged metric line.
std::string render(const fleet::FleetReport& report) {
  return report.toString() + report.metrics.toString();
}

double quantileUs(const obs::HistogramSummary& h, double q) {
  return h.quantile(q) / 1e6;
}

void pointScalars(obs::BenchReport& report, const std::string& prefix,
                  const fleet::FleetReport& r) {
  report.scalar(prefix + "_p50_us", quantileUs(r.latency, 0.50));
  report.scalar(prefix + "_p95_us", quantileUs(r.latency, 0.95));
  report.scalar(prefix + "_p99_us", quantileUs(r.latency, 0.99));
  report.scalar(prefix + "_completed", r.completed);
  report.scalar(prefix + "_failed", r.failed);
  report.scalar(prefix + "_shed_rate", r.shedRate());
  report.scalar(prefix + "_retries", r.retries);
  report.scalar(prefix + "_retries_denied", r.retriesDenied);
  report.scalar(prefix + "_retry_budget_consumption",
                r.retryBudgetConsumption());
  report.scalar(prefix + "_breaker_opens", r.breakerOpens);
  report.scalar(prefix + "_breaker_closes", r.breakerCloses);
  report.scalar(prefix + "_utilization_mean", r.utilizationMean);
}

/// The whole gate: lint, the three points at 1 and N threads, the trace
/// export, the flat-memory point and the report.
int fleetGate(const bench::Options& flags, fleet::FleetOptions options) {
  obs::BenchReport report{"fleet", flags};
  const std::size_t n = flags.threads();

  // Refuse configurations the linter rejects before a million-request run,
  // then the flat point's 100x.
  fleet::FleetOptions flat = flatOptions(options);
  flat.threads = n;
  for (const fleet::FleetOptions* checked : {&options, &flat}) {
    analyze::DiagnosticSink sink;
    analyze::checkFleetOptions(*checked, sink);
    if (sink.hasErrors()) {
      std::cerr << sink.toText();
      if (checked == &flat) {
        std::cerr << "bench_fleet: the flat point runs " << kFlatScale
                  << " x --requests\n";
      }
      return 2;
    }
  }

  std::cout << "=== Fleet: " << options.cells << " cells x "
            << options.bladesPerCell << " blades, " << options.requests
            << " requests (seed " << options.seed << ") ===\n\n";

  // Calibrate once; both points and both thread widths share the profile,
  // so the identity gate measures the fleet simulation alone.
  const auto registry = tasks::makePaperFunctions();
  const fleet::BladeProfile profile = fleet::calibrateBladeProfile(
      registry, runtime::ScenarioOptions{}, options.payloadBytes);

  const fleet::FleetOptions chaos = chaosOptions(options);

  // --- Byte-identity at 1 vs N threads, healthy and chaos.
  fleet::FleetOptions serialOpts = options;
  serialOpts.threads = 1;
  fleet::FleetOptions pooledOpts = options;
  pooledOpts.threads = n;
  const fleet::FleetReport healthy = runFleet(registry, profile, pooledOpts);
  const bool healthyIdentical =
      render(runFleet(registry, profile, serialOpts)) == render(healthy);

  fleet::FleetOptions chaosSerial = chaos;
  chaosSerial.threads = 1;
  fleet::FleetOptions chaosPooled = chaos;
  chaosPooled.threads = n;
  const fleet::FleetReport degraded =
      runFleet(registry, profile, chaosPooled);
  const bool chaosIdentical =
      render(runFleet(registry, profile, chaosSerial)) == render(degraded);

  const fleet::FleetOptions surge = surgeOptions(options);
  fleet::FleetOptions surgeSerial = surge;
  surgeSerial.threads = 1;
  fleet::FleetOptions surgePooled = surge;
  surgePooled.threads = n;
  const fleet::FleetReport surged = runFleet(registry, profile, surgePooled);
  const bool surgeIdentical =
      render(runFleet(registry, profile, surgeSerial)) == render(surged);
  const bool identical = healthyIdentical && chaosIdentical && surgeIdentical;

  util::Table table{{"point", "completed", "failed", "shed", "retries",
                     "denied", "opens", "closes", "p50 us", "p95 us",
                     "p99 us", "util"}};
  for (const auto& [name, r] :
       {std::pair<const char*, const fleet::FleetReport&>{"healthy", healthy},
        {"chaos", degraded},
        {"surge", surged}}) {
    table.row()
        .cell(name)
        .cell(r.completed)
        .cell(r.failed)
        .cell(r.shed)
        .cell(r.retries)
        .cell(r.retriesDenied)
        .cell(r.breakerOpens)
        .cell(r.breakerCloses)
        .cell(static_cast<std::uint64_t>(quantileUs(r.latency, 0.50)))
        .cell(static_cast<std::uint64_t>(quantileUs(r.latency, 0.95)))
        .cell(static_cast<std::uint64_t>(quantileUs(r.latency, 0.99)))
        .cell(util::formatDouble(r.utilizationMean, 3));
  }
  table.print(std::cout);
  report.table("fleet_points", table);

  std::cout << "\nfleet byte-identical at 1 vs " << n
            << " threads (healthy, chaos, surge): "
            << (identical ? "yes" : "NO") << '\n';

  // Graceful degradation: chaos inflates the tail but must not blow it up,
  // and the retry budget must hold (no retry storm). Both are gated by the
  // committed baseline through prtr-report; the ratio is printed for
  // humans.
  const double p99Ratio =
      quantileUs(healthy.latency, 0.99) <= 0.0
          ? 0.0
          : quantileUs(degraded.latency, 0.99) /
                quantileUs(healthy.latency, 0.99);
  std::cout << "chaos p99 / healthy p99: " << util::formatDouble(p99Ratio, 3)
            << "\nchaos retry-budget consumption: "
            << util::formatDouble(degraded.retryBudgetConsumption(), 4)
            << " (budget " << chaos.retry.budgetFraction << ")\n";

  // Surge observability: the limiter must engage, tail sampling must keep
  // its whole tail, and the SLO burn-rate verdict is printed and gated
  // against the committed baseline.
  std::cout << "surge shed by rate limiter: " << surged.shedRateLimited
            << " of " << surged.offered << " offered\n"
            << "surge traces: " << surged.tracesKept << " kept of "
            << surged.tracesRecorded << " recorded (tail "
            << surged.tracesKeptTail << "/" << surged.tailEligible
            << ", retention "
            << util::formatDouble(surged.tailRetention(), 3)
            << "), dropped by cap " << surged.tracesDroppedCap << '\n'
            << "surge SLO: " << (surged.slo.pass ? "pass" : "BREACH")
            << " (good fraction "
            << util::formatDouble(surged.slo.goodFraction, 6)
            << ", burn max fast/slow "
            << util::formatDouble(surged.slo.fastBurnMax, 2) << "/"
            << util::formatDouble(surged.slo.slowBurnMax, 2) << ", "
            << surged.slo.breachWindows << " breach window(s))\n";

  // With --trace, a reduced surge run exports its kept request traces
  // (full-length surge keeps every rate-limited shed — far too many
  // spans for a reviewable artifact).
  if (flags.traceRequested()) {
    obs::ChromeTrace trace;
    fleet::FleetOptions exportOpts = surge;
    exportOpts.threads = n;
    exportOpts.requests = std::min<std::uint64_t>(surge.requests, 50'000);
    exportOpts.hooks.trace = &trace;
    const fleet::FleetReport exported =
        runFleet(registry, profile, exportOpts);
    trace.writeFile(flags.tracePath());
    report.scalar("trace_export_kept", exported.tracesKept);
    std::cout << "trace: " << exported.tracesKept
              << " kept request(s) written to " << flags.tracePath()
              << '\n';
  }

  // Flat memory: the last and by far the longest point. Everything before
  // it set the process peak; recycled request slots keep it there.
  const double rssBeforeKib = peakRssKib();
  const auto flatStart = std::chrono::steady_clock::now();
  const fleet::FleetReport flatReport = runFleet(registry, profile, flat);
  const double flatWallS = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - flatStart)
                               .count();
  const double rssAfterKib = peakRssKib();
  const double rssRatio = rssAfterKib / rssBeforeKib;
  const double flatRequestsPerS =
      flatWallS > 0.0 ? static_cast<double>(flat.requests) / flatWallS : 0.0;
  std::cout << "flat: " << flat.requests << " requests untraced in "
            << util::formatDouble(flatWallS, 3) << " s ("
            << util::formatDouble(flatRequestsPerS / 1e6, 3)
            << "M requests/s), peak live requests "
            << flatReport.peakLiveRequests << " (healthy "
            << healthy.peakLiveRequests << "), peak RSS "
            << util::formatDouble(rssBeforeKib / 1024.0, 4) << " -> "
            << util::formatDouble(rssAfterKib / 1024.0, 4) << " MB (ratio "
            << util::formatDouble(rssRatio, 3) << ", bound " << kFlatRssBound
            << ")\n";

  pointScalars(report, "healthy", healthy);
  pointScalars(report, "chaos", degraded);
  pointScalars(report, "surge", surged);
  report.scalar("chaos_p99_over_healthy", p99Ratio);
  report.scalar("surge_shed_ratelimited", surged.shedRateLimited);
  report.scalar("surge_traces_recorded", surged.tracesRecorded);
  report.scalar("surge_traces_kept", surged.tracesKept);
  report.scalar("surge_traces_kept_tail", surged.tracesKeptTail);
  report.scalar("surge_traces_kept_sampled", surged.tracesKeptSampled);
  report.scalar("surge_traces_dropped_cap", surged.tracesDroppedCap);
  report.scalar("surge_trace_tail_retention", surged.tailRetention());
  report.scalar("surge_slo_pass",
                std::uint64_t{surged.slo.pass ? 1u : 0u});
  report.scalar("surge_slo_good_fraction", surged.slo.goodFraction);
  report.scalar("surge_slo_fast_burn_max", surged.slo.fastBurnMax);
  report.scalar("surge_slo_slow_burn_max", surged.slo.slowBurnMax);
  report.scalar("surge_slo_breach_windows", surged.slo.breachWindows);
  report.scalar("requests", options.requests);
  report.scalar("outputs_identical", std::uint64_t{identical ? 1u : 0u});
  report.scalar("fleet_seed", options.seed);
  report.scalar("healthy_peak_live_requests", healthy.peakLiveRequests);
  report.scalar("flat_peak_live_requests", flatReport.peakLiveRequests);
  report.scalar("flat_peak_rss_ratio", rssRatio);
  report.scalar("flat_requests_per_s_wall", flatRequestsPerS);
  report.metrics(degraded.metrics);

  const bool ok =
      identical && healthy.failed == 0 && degraded.breakerOpens > 0 &&
      degraded.retryBudgetConsumption() <=
          chaos.retry.budgetFraction + 0.01 &&
      surged.shedRateLimited > 0 && surged.tailRetention() == 1.0 &&
      rssRatio <= kFlatRssBound;
  return ok ? report.finish() : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage = bench::Options::usage(
      "bench_fleet",
      "  --requests <n>     requests per point (default 1000000; the flat\n"
      "                     point runs 100x)\n"
      "  --spec <path>      drive the fleet from a .fleet spec\n");
  bench::Options flags;
  fleet::FleetOptions options = baseOptions();
  try {
    flags = bench::Options::parse("bench_fleet", argc, argv);
    if (flags.helpRequested()) {
      std::cout << usage;
      return 0;
    }
    // --spec replaces the whole configuration, --requests and --seed
    // override it; a later flag wins.
    const auto& rest = flags.rest();
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const std::string& arg = rest[i];
      util::require(arg == "--requests" || arg == "--spec",
                    "bench_fleet: unknown argument '" + arg + "'");
      util::require(i + 1 < rest.size(),
                    "bench_fleet: " + arg + " requires a value");
      const std::string& value = rest[++i];
      if (arg == "--requests") {
        options.requests = bench::parseUnsigned("bench_fleet", arg, value);
        continue;
      }
      std::ifstream in{value};
      util::require(in.good(),
                    "bench_fleet: cannot open spec '" + value + "'");
      options = analyze::fleetSpecToOptions(analyze::parseFleetSpec(in));
    }
    options.seed = flags.seedOr(options.seed);
  } catch (const util::DomainError& error) {
    return bench::usageError(error.what(), usage);
  }
  exec::Pool::setGlobalThreads(flags.threads());
  return bench::profiled(flags, "fleet", [&](prof::Profiler* profiler) {
    options.hooks.profiler = profiler;
    return fleetGate(flags, options);
  });
}
