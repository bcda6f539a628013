// The three benchmark workloads: the Fig-9(b) sweep on the exec pool, the
// dual-PRR chaos ladder with recovery, and the million-request fleet.
//
// Each workload sets up (several times, reporting the median), then loops
// whole units of work — one sweep, one chaos cycle, one fleet round — until
// the requested seconds have passed. The first unit is the reference: its
// rendered output is digested, and every later unit must reproduce it byte
// for byte. Invariants that hold at any seed are checked as well.
//
// A traced run loops twice: the first half without spans, the second half
// with a span around every timed call, so the span cost itself is measured.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string_view>

#include "analysis/figures.hpp"
#include "common.hpp"
#include "config/recovery.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "fleet/calibrate.hpp"
#include "fleet/fleet.hpp"
#include "hprc/chassis.hpp"
#include "model/calibration.hpp"
#include "model/model.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "xd1/node.hpp"

namespace perfbench {
namespace {

using namespace prtr;

/// Table 2 of the paper: measured configuration times.
constexpr double kPaperFullMs = 1678.04;
constexpr double kPaperDualPrrMs = 19.77;

constexpr int kSetupRepetitions = 5;

/// Unmeasured lead-in before the timed loop. A fresh process runs its
/// first second of pooled sweeps at about a third of steady speed while
/// glibc's per-thread malloc arenas settle their mmap threshold; the
/// benchmark measures the steady state that follows.
constexpr double kWarmupSeconds = 1.0;

/// Length of the traced run's pool probe (see runFig9 and runFleet).
double probeSeconds(const Settings& s) { return s.small ? 0.1 : 2.0; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Sum of every counter in `m` whose name ends with `suffix` (scenario
/// snapshots carry each side under its frtr. / prtr. prefix).
std::uint64_t counterSum(const obs::MetricsSnapshot& m, std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

/// Layer counts summed over scenario points.
struct ScenarioCounts {
  double events = 0;
  double prtrEvents = 0;
  double icapLoads = 0;
  double icapBytes = 0;
  double vendorLoads = 0;
  double faultsInjected = 0;
  double faultsAbsorbed = 0;
  double recoveryRequests = 0;
  double frameRepairs = 0;
  double verifications = 0;

  ScenarioCounts& operator+=(const ScenarioCounts& o) {
    events += o.events;
    prtrEvents += o.prtrEvents;
    icapLoads += o.icapLoads;
    icapBytes += o.icapBytes;
    vendorLoads += o.vendorLoads;
    faultsInjected += o.faultsInjected;
    faultsAbsorbed += o.faultsAbsorbed;
    recoveryRequests += o.recoveryRequests;
    frameRepairs += o.frameRepairs;
    verifications += o.verifications;
    return *this;
  }

  void add(const obs::MetricsSnapshot& m) {
    prtrEvents += static_cast<double>(m.counterOr("prtr.sim.events_processed"));
    events += static_cast<double>(counterSum(m, "sim.events_processed"));
    icapLoads += static_cast<double>(counterSum(m, "config.icap.loads"));
    icapBytes += static_cast<double>(counterSum(m, "config.icap.bytes_written"));
    vendorLoads += static_cast<double>(counterSum(m, "config.vendor_api.loads"));
    faultsInjected += static_cast<double>(counterSum(m, "fault.injected.total"));
    faultsAbsorbed += static_cast<double>(counterSum(m, "recovery.faults_absorbed"));
    recoveryRequests += static_cast<double>(counterSum(m, "recovery.requests"));
    frameRepairs += static_cast<double>(counterSum(m, "recovery.frame_repairs"));
    verifications += static_cast<double>(counterSum(m, "recovery.verifications"));
  }
};

/// Timing samples of the measured loop.
struct LoopTimes {
  /// CPU ms of every timed point: one runScenario call on its thread, or
  /// one fleet round on all threads.
  std::vector<double> pointCpuMs;
  /// pointCpuMs of each untraced measured unit (parallel to unitMs).
  std::vector<std::vector<double>> unitPointCpuMs;
  std::vector<double> unitMs;       ///< one per sweep / cycle / round
  std::vector<double> tracedUnitMs; ///< the traced half of a traced run
  double busyNs = 0;                ///< wall time of all timed calls
  double wallNs = 0;                ///< measured loop wall time
  std::uint64_t units = 0;          ///< measured units
  std::uint64_t warmupUnits = 0;
  double warmupS = 0;
};

/// Runs `unit(measured, spansOn)`: unmeasured warm-up units for
/// `kWarmupSeconds` (at least one, which becomes the reference), then
/// measured units until `seconds` have passed and at least `minPoints`
/// points were timed. A traced run spends the first half of the measured
/// time without spans and the second half with them.
template <typename Unit>
void measureLoop(const Settings& s, std::size_t minPoints, LoopTimes& times,
                 Unit&& unit) {
  const Clock::time_point warm = Clock::now();
  do {
    unit(false, false);
    ++times.warmupUnits;
  } while (secondsSince(warm) < (s.small ? 0.0 : kWarmupSeconds));
  times.warmupS = secondsSince(warm);

  const Clock::time_point start = Clock::now();
  const double halfway = s.trace ? s.seconds / 2.0 : s.seconds;
  while (true) {
    const bool spansOn = s.trace && secondsSince(start) >= halfway;
    const std::size_t before = times.pointCpuMs.size();
    const Clock::time_point u0 = Clock::now();
    unit(true, spansOn);
    const double ms = static_cast<double>(nsBetween(u0, Clock::now())) / 1e6;
    if (spansOn) {
      times.tracedUnitMs.push_back(ms);
    } else {
      times.unitMs.push_back(ms);
      times.unitPointCpuMs.emplace_back(
          times.pointCpuMs.begin() + static_cast<std::ptrdiff_t>(before),
          times.pointCpuMs.end());
    }
    ++times.units;
    const bool enoughPoints = times.pointCpuMs.size() >= minPoints;
    const bool enoughTraced = !s.trace || !times.tracedUnitMs.empty();
    if (secondsSince(start) >= s.seconds && enoughPoints && enoughTraced &&
        !times.unitMs.empty()) {
      break;
    }
  }
  times.wallNs = static_cast<double>(nsBetween(start, Clock::now()));
}

/// "N sweeps in S s after W warm-up sweeps" for the run summary.
std::string loopSummary(const LoopTimes& t, const std::string& unit) {
  return std::to_string(t.units) + " " + unit + " in " +
         util::formatDouble(t.wallNs / 1e9, 4) + " s after " +
         std::to_string(t.warmupUnits) + " warm-up " + unit + " in " +
         util::formatDouble(t.warmupS, 3) + " s";
}

/// End-to-end throughput and per-point cost of the measured loop.
/// Throughput is wall-clock: the median over units (sweeps, cycles,
/// rounds) of points per unit over the unit's wall time, so a unit that a
/// noisy neighbour slowed moves it by one rank at most. The per-point
/// quantiles are of CPU time, taken over every point of the untraced
/// units: on a shared host a point's wall time also holds the time its
/// thread was descheduled, which swamps the tail (IQR/median of the p90
/// over ten fig9 runs at 3 participants: 0.28 on wall time, 0.03 on CPU
/// time).
void loopMetrics(const LoopTimes& t, double requestsPerPoint, Outcome& out) {
  std::vector<double> pointsPerS;
  std::vector<double> cpuMs;
  for (std::size_t u = 0; u < t.unitMs.size(); ++u) {
    const std::vector<double>& ms = t.unitPointCpuMs[u];
    pointsPerS.push_back(static_cast<double>(ms.size()) / (t.unitMs[u] / 1e3));
    cpuMs.insert(cpuMs.end(), ms.begin(), ms.end());
  }
  const double rate = quantile(pointsPerS, 0.5);
  out.set("points_per_s", rate, "1/s");
  out.set("point_ms_p50", quantile(cpuMs, 0.50), "ms");
  out.set("point_ms_p90", quantile(cpuMs, 0.90), "ms");
  out.set("requests_per_s", rate * requestsPerPoint, "1/s");
  std::cout << "timed points: " << cpuMs.size() << " in " << t.unitMs.size()
            << " untraced units\n";
}

/// tracing_overhead_frac: traced vs untraced median unit wall time.
void tracingOverhead(const LoopTimes& t, Outcome& out) {
  const double untraced = quantile(t.unitMs, 0.5);
  const double traced = quantile(t.tracedUnitMs, 0.5);
  out.set("tracing_overhead_frac", untraced > 0 ? traced / untraced - 1.0 : 0.0,
          "fraction");
}

/// Simulated configuration times of one short scenario against Table 2:
/// the FRTR side's full loads and the PRTR side's partial loads, read off
/// the "config" lane of each side's timeline.
double paperError(const tasks::FunctionRegistry& registry,
                  runtime::ScenarioOptions so) {
  sim::Timeline prtrTl;
  sim::Timeline frtrTl;
  so.hooks = obs::Hooks{};
  so.hooks.timeline = &prtrTl;
  so.hooks.frtrTimeline = &frtrTl;
  so.faults = fault::Plan{};
  so.recovery = runtime::RecoveryPolicy{};
  so.artifacts = nullptr;
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 6, util::Bytes{1'000'000});
  (void)runtime::runScenario(registry, workload, so);
  auto meanMs = [](const sim::Timeline& tl, std::string_view prefix) {
    double sum = 0;
    double n = 0;
    for (const sim::Span& span : tl.spans()) {
      if (tl.laneName(span.lane) != "config") continue;
      if (tl.labelName(span.label).rfind(prefix, 0) != 0) continue;
      sum += (span.end - span.start).toMilliseconds();
      n += 1;
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double fullMs = meanMs(frtrTl, "full-config");
  const double partialMs = meanMs(prtrTl, "partial(");
  std::cout << "simulated configuration times: full " << fullMs
            << " ms (paper " << kPaperFullMs << "), dual-PRR partial "
            << partialMs << " ms (paper " << kPaperDualPrrMs << ")\n";
  if (fullMs <= 0 || partialMs <= 0) return 1.0;
  return std::max(std::abs(fullMs - kPaperFullMs) / kPaperFullMs,
                  std::abs(partialMs - kPaperDualPrrMs) / kPaperDualPrrMs);
}

/// Median of `kSetupRepetitions` timed runs of `setup`, in seconds.
template <typename Fn>
double medianSetup(SpanRecorder& spans, Fn&& setup) {
  std::vector<double> samples;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    samples.push_back(
        static_cast<double>(timed(spans, "setup", "setup", setup)) / 1e9);
  }
  return quantile(samples, 0.5);
}

/// Scenario-point counts shared by fig9 and chaos, per point.
void scenarioLayerMetrics(const ScenarioCounts& c, double points,
                          double busyNs, Outcome& out) {
  out.set("sim.events", c.events / points, "events/point");
  out.set("sim.ns_per_event", c.events > 0 ? busyNs / c.events : 0.0, "ns");
  out.set("config.icap.loads", c.icapLoads / points, "loads/point");
  out.set("config.icap.mb_written", c.icapBytes / 1e6 / points, "MB/point");
  out.set("config.events_per_load",
          c.icapLoads > 0 ? c.prtrEvents / c.icapLoads : 0.0, "events/load");
  out.set("fault.injected", c.faultsInjected / points, "count/point");
  out.set("recovery.requests", c.recoveryRequests / points, "count/point");
  out.set("recovery.frame_repairs", c.frameRepairs / points, "count/point");
  out.set("recovery.verifications", c.verifications / points, "count/point");
  out.set("recovery.absorbed_ratio",
          c.faultsInjected > 0 ? c.faultsAbsorbed / c.faultsInjected : 0.0,
          "fraction");
}

/// Ledger rows every scenario workload shares: DES kernel events and
/// configuration-memory applies, priced at their measured unit costs.
void scenarioLedger(const ScenarioCounts& c, const UnitCosts& u, Outcome& out) {
  out.ledger.push_back({"sim", "DES events (both sides)", c.events,
                        u.kernelNsPerEvent});
  out.ledger.push_back({"config", "ICAP partial applies", c.icapLoads,
                        u.partialBytes / u.applyMbPerS * 1e3});
  out.ledger.push_back({"config", "vendor-API full applies", c.vendorLoads,
                        u.applyFullNs});
}

/// Per-layer metrics that only some workloads exercise.
constexpr const char* kWorkloadLayerMetrics[] = {
    "sim.events", "sim.ns_per_event", "config.icap.loads",
    "config.icap.mb_written", "config.events_per_load",
    "runtime.prtr_only_ms_p50", "exec.cache.hit_rate", "exec.cache.misses",
    "exec.pool.steals", "exec.parallel_efficiency", "obs.merge_ms",
    "fault.injected", "recovery.requests", "recovery.frame_repairs",
    "recovery.verifications", "recovery.absorbed_ratio", "fleet.calibrate_s",
    "fleet.healthy.ns_per_request", "fleet.chaos.ns_per_request",
    "fleet.surge.ns_per_request", "fleet.rss_growth_mb", "fleet.offered",
    "fleet.retries", "fleet.hedges", "fleet.config_loads",
    "fleet.breaker_opens", "fleet.retry_budget_consumption", "trace.recorded",
    "trace.kept", "trace.overhead_frac"};

/// Every per-layer metric the workload does not exercise reads 0.
void zeroLayerMetrics(Outcome& out) {
  for (const char* name : kWorkloadLayerMetrics) {
    if (out.metrics.count(name) == 0) out.set(name, 0.0, "n/a");
  }
}

// ---------------------------------------------------------------- fig9 --

struct Fig9Grid {
  double lo = 0;
  double hi = 0;
  std::size_t points = 0;
  std::uint64_t nCalls = 0;
};

/// The bench_sweep Fig-9(b) grid (12 points over X_task in [0.01, 20],
/// 120 calls per point), shifted in log space by a seeded sub-step of at
/// most 1/20 of the grid step.
Fig9Grid fig9Grid(const Settings& s) {
  Fig9Grid g;
  g.points = s.small ? 4 : 12;
  g.nCalls = s.small ? 24 : 120;
  const double llo = std::log10(1e-2);
  const double lhi = std::log10(20.0);
  const double step = (lhi - llo) / static_cast<double>(g.points - 1);
  const double u =
      static_cast<double>(splitmix(s.seed) % 1'000'000) / 1'000'000.0;
  const double shift = step / 20.0 * u;
  g.lo = std::pow(10.0, llo + shift);
  g.hi = std::pow(10.0, lhi + shift);
  return g;
}

struct Fig9Sweep {
  std::vector<analysis::Fig9Point> points;
  std::vector<double> pointNs;     ///< wall
  std::vector<double> pointCpuNs;  ///< CPU time of the point's thread
  ScenarioCounts counts;
  std::string render;  ///< table + merged metrics, as makeFig9 users see it
  double mergeNs = 0;
};

struct Fig9Fixture {
  tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  std::unique_ptr<exec::ArtifactCache> cache;
  std::vector<double> grid;
  std::vector<util::Bytes> bytes;
  util::Time tFrtr;
};

runtime::ScenarioOptions fig9Options(exec::ArtifactCache* cache) {
  runtime::ScenarioOptions so;
  so.layout = xd1::Layout::kDualPrr;
  so.basis = model::ConfigTimeBasis::kMeasured;
  so.tControl = util::Time::microseconds(10);
  so.forceMiss = true;
  so.prepare = runtime::PrepareSource::kQueue;
  so.artifacts = cache;
  return so;
}

/// One sweep, point by point through runtime::runScenario on the exec
/// pool, mirroring analysis::makeFig9 (the validation step checks that the
/// rendered output is identical to makeFig9's).
Fig9Sweep fig9Sweep(const Fig9Fixture& fx, const Fig9Grid& g,
                    std::size_t participants, SpanRecorder& spans,
                    bool spansOn, runtime::ScenarioSides sides) {
  const bool withMetrics = sides == runtime::ScenarioSides::kBoth;
  obs::ShardedRegistry shards;
  Fig9Sweep sweep;
  sweep.pointNs.assign(fx.grid.size(), 0.0);
  sweep.pointCpuNs.assign(fx.grid.size(), 0.0);
  std::vector<obs::MetricsSnapshot> snaps(fx.grid.size());
  std::vector<std::size_t> indices(fx.grid.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  static const obs::CounterId kPoints =
      obs::MetricTable::global().counter("fig9.points_computed");
  sweep.points = exec::parallelMap(
      indices,
      [&](const std::size_t& i) {
        analysis::Fig9Point point;
        point.xTask = fx.grid[i];
        point.dataBytes = fx.bytes[i];
        runtime::ScenarioOptions so = fig9Options(fx.cache.get());
        so.sides = sides;
        if (withMetrics) so.hooks.shardedMetrics = &shards;
        const auto workload =
            tasks::makeRoundRobinWorkload(fx.registry, g.nCalls, point.dataBytes);
        runtime::ScenarioResult result;
        const std::int64_t cpu0 = threadCpuNs();
        const Clock::time_point t0 = Clock::now();
        result = runtime::runScenario(fx.registry, workload, so);
        const Clock::time_point t1 = Clock::now();
        sweep.pointCpuNs[i] = static_cast<double>(threadCpuNs() - cpu0);
        if (spansOn) spans.record("runScenario", "fig9.point", t0, t1);
        sweep.pointNs[i] = static_cast<double>(nsBetween(t0, t1));
        if (withMetrics) shards.local().add(kPoints);
        point.simSpeedup = result.speedup;
        point.modelSpeedup = result.modelSpeedup;
        model::Params asymptotic = result.modelParams;
        point.modelAsymptote = model::asymptoticSpeedup(asymptotic);
        snaps[i] = std::move(result.metrics);
        return point;
      },
      exec::ForOptions{.threads = participants});
  for (const obs::MetricsSnapshot& m : snaps) sweep.counts.add(m);
  if (withMetrics) {
    const Clock::time_point m0 = Clock::now();
    const obs::MetricsSnapshot merged = shards.takeMerged();
    const Clock::time_point m1 = Clock::now();
    if (spansOn) spans.record("takeMerged", "fig9.merge", m0, m1);
    sweep.mergeNs = static_cast<double>(nsBetween(m0, m1));
    sweep.render = analysis::fig9Table(sweep.points).toString() +
                   merged.toString();
  }
  return sweep;
}

/// Fig-9 invariants that hold at any seed.
void checkFig9Points(const std::vector<analysis::Fig9Point>& points,
                     Outcome& out) {
  for (const analysis::Fig9Point& p : points) {
    if (!(p.simSpeedup > 0.0) || !std::isfinite(p.simSpeedup) ||
        !(p.modelSpeedup > 0.0)) {
      out.fail("fig9: non-positive speedup at X_task " +
               util::formatDouble(p.xTask, 6));
    }
    if (p.simSpeedup > p.modelAsymptote * 1.001) {
      out.fail("fig9: simulated speedup above the eq. 7 asymptote at X_task " +
               util::formatDouble(p.xTask, 6));
    }
  }
}

}  // namespace

Outcome runFig9(const Settings& s, SpanRecorder& spans) {
  Outcome out;
  const Fig9Grid g = fig9Grid(s);
  Fig9Fixture fx;
  const double setupS = medianSetup(spans, [&] {
    fx = Fig9Fixture{};
    fx.cache = std::make_unique<exec::ArtifactCache>();
    fx.grid = analysis::logGrid(g.lo, g.hi, g.points);
    sim::Simulator refSim;
    xd1::NodeConfig refCfg;
    refCfg.layout = xd1::Layout::kDualPrr;
    const xd1::Node refNode{refSim, refCfg};
    fx.tFrtr = model::configTimes(refNode).full(model::ConfigTimeBasis::kMeasured);
    const tasks::HwFunction& fn = fx.registry.byName("median");
    for (const double x : fx.grid) {
      fx.bytes.push_back(model::bytesForTaskTime(
          refNode, fn, util::Time::seconds(x * fx.tFrtr.toSeconds())));
    }
    // Artifact warm-up: one short run builds the floorplan and every
    // partial stream into the sweep's cache.
    const auto warm = tasks::makeRoundRobinWorkload(
        fx.registry, 2 * fx.registry.size(), fx.bytes.front());
    (void)runtime::runScenario(fx.registry, warm, fig9Options(fx.cache.get()));
  });
  out.set("setup_s", setupS, "s");
  const exec::ArtifactCache::Stats warmStats = fx.cache->stats();

  LoopTimes t;
  ScenarioCounts counts;
  std::vector<double> mergeMs;
  std::string reference;
  double modelErrorMax = 0;
  measureLoop(s, s.small ? 8 : 100, t, [&](bool measured, bool spansOn) {
    Fig9Sweep sweep = fig9Sweep(fx, g, s.participants, spans, spansOn,
                                runtime::ScenarioSides::kBoth);
    const std::size_t n = sweep.points.size();
    out.attempted += n;
    if (reference.empty()) {
      reference = sweep.render;
      checkFig9Points(sweep.points, out);
      for (const analysis::Fig9Point& p : sweep.points) {
        modelErrorMax = std::max(
            modelErrorMax, std::abs(p.simSpeedup - p.modelSpeedup) / p.modelSpeedup);
      }
    } else if (sweep.render != reference) {
      out.failed += n;
      out.fail("fig9: sweep " + std::to_string(t.units) +
               " differs from the reference sweep");
    }
    if (!measured) return;
    for (const double ns : sweep.pointCpuNs) t.pointCpuMs.push_back(ns / 1e6);
    for (const double ns : sweep.pointNs) t.busyNs += ns;
    counts += sweep.counts;
    mergeMs.push_back(sweep.mergeNs / 1e6);
  });
  const exec::ArtifactCache::Stats loopStats = fx.cache->stats();
  out.digest = digestHex(reference);

  // Validation: the library's own makeFig9 must render the same bytes.
  timed(spans, "makeFig9 cross-check", "validate", [&] {
    analysis::Fig9Options fo;
    fo.basis = model::ConfigTimeBasis::kMeasured;
    fo.points = g.points;
    fo.xTaskLo = g.lo;
    fo.xTaskHi = g.hi;
    fo.nCalls = g.nCalls;
    fo.threads = s.participants;
    fo.artifacts = fx.cache.get();
    obs::ShardedRegistry shards;
    fo.metrics = &shards;
    std::string lib = analysis::fig9Table(analysis::makeFig9(fo)).toString();
    lib += shards.takeMerged().toString();
    if (lib != reference) {
      out.failed = out.attempted;
      out.fail("fig9: the benchmark's sweep differs from analysis::makeFig9");
    }
  });

  const double points = static_cast<double>(t.pointCpuMs.size());
  loopMetrics(t, static_cast<double>(g.nCalls), out);
  out.set("model_error_max", modelErrorMax, "fraction");
  out.set("paper_error_max",
          paperError(fx.registry, fig9Options(nullptr)), "fraction");
  std::cout << "fig9: " << loopSummary(t, "sweeps") << "; " << g.points
            << " points, X_task in [" << g.lo << ", " << g.hi << "], "
            << g.nCalls << " calls per point, cache hit rate "
            << util::formatDouble(loopStats.hitRate(), 4) << " ("
            << warmStats.misses << " warm-up misses)\n";

  if (s.trace) {
    const UnitCosts u = measureUnitCosts(spans);
    reportUnitCosts(u, out);
    scenarioLayerMetrics(counts, points, t.busyNs, out);
    std::vector<double> prtrOnlyMs;
    timed(spans, "prtr-only sweep", "validate", [&] {
      const Fig9Sweep prtrOnly = fig9Sweep(fx, g, s.participants, spans, false,
                                           runtime::ScenarioSides::kPrtrOnly);
      for (const double ns : prtrOnly.pointCpuNs) prtrOnlyMs.push_back(ns / 1e6);
    });
    out.set("runtime.prtr_only_ms_p50", quantile(prtrOnlyMs, 0.5), "ms");
    out.set("exec.cache.hit_rate", loopStats.hitRate(), "fraction");
    out.set("exec.cache.misses", static_cast<double>(loopStats.misses), "count");
    out.set("obs.merge_ms", quantile(mergeMs, 0.5), "ms");
    tracingOverhead(t, out);

    // Pool probe: sweeps at the full pool width, which must reproduce the
    // serial reference byte for byte.
    const obs::MetricsSnapshot pool0 = exec::Pool::global().metricsSnapshot();
    double probeBusyNs = 0;
    double probePoints = 0;
    const std::int64_t probeNs = timed(spans, "pool probe", "exec", [&] {
      const Clock::time_point p0 = Clock::now();
      do {
        const Fig9Sweep sweep = fig9Sweep(fx, g, s.poolWidth, spans, false,
                                          runtime::ScenarioSides::kBoth);
        out.attempted += sweep.points.size();
        if (sweep.render != reference) {
          out.failed += sweep.points.size();
          out.fail("fig9: a sweep at " + std::to_string(s.poolWidth) +
                   " participants differs from the serial reference");
        }
        for (const double ns : sweep.pointNs) probeBusyNs += ns;
        probePoints += static_cast<double>(sweep.points.size());
      } while (secondsSince(p0) < probeSeconds(s));
    });
    const obs::MetricsSnapshot pool1 = exec::Pool::global().metricsSnapshot();
    out.set("exec.pool.steals",
            static_cast<double>(pool1.counterOr("exec.pool.steals") -
                                pool0.counterOr("exec.pool.steals")) /
                probePoints,
            "steals/point");
    out.set("exec.parallel_efficiency",
            probeBusyNs / (static_cast<double>(s.poolWidth) *
                           static_cast<double>(probeNs)),
            "fraction");

    scenarioLedger(counts, u, out);
    double mergeTotal = 0;
    for (const double ms : mergeMs) mergeTotal += ms * 1e6;
    out.ledger.push_back({"obs", "sharded-metrics merges",
                          static_cast<double>(mergeMs.size()),
                          mergeTotal / static_cast<double>(mergeMs.size())});
    out.ledgerBaseNs = t.wallNs;
    finishLedger("fig9", out);
    zeroLayerMetrics(out);
  }
  return out;
}

// --------------------------------------------------------------- chaos --

namespace {

const std::vector<double> kChaosRates = {0.0, 1e-6, 1e-4};

/// bench_chaos's options: dual PRR, H = 0, word flips at `rate` plus ICAP
/// aborts and API rejects, recovery on.
runtime::ScenarioOptions chaosOptions(double rate, std::uint64_t faultSeed,
                                      bool recovery) {
  runtime::ScenarioOptions options;
  options.layout = xd1::Layout::kDualPrr;
  options.basis = model::ConfigTimeBasis::kMeasured;
  options.forceMiss = true;
  options.faults.seed = faultSeed;
  options.faults.wordFlipRate = rate;
  options.faults.icapAbortRate = rate > 0.0 ? 0.01 : 0.0;
  options.faults.apiRejectRate = rate > 0.0 ? 0.005 : 0.0;
  options.recovery.enabled = recovery;
  return options;
}

/// Recovery-ladder consistency: per-rung landed counters and the
/// ladder_depth histogram count the same events.
bool ladderConsistent(const obs::MetricsSnapshot& m) {
  std::uint64_t landed = 0;
  for (std::size_t r = 0; r < config::kRecoveryRungCount; ++r) {
    landed += counterSum(m, std::string("recovery.landed.") +
                                config::metricSuffix(
                                    static_cast<config::RecoveryRung>(r)));
  }
  constexpr std::string_view kDepth = "recovery.ladder_depth";
  std::uint64_t depth = 0;
  for (const auto& [name, h] : m.histograms) {
    if (name.size() >= kDepth.size() &&
        name.compare(name.size() - kDepth.size(), kDepth.size(), kDepth) == 0) {
      depth += h.count;
    }
  }
  return landed == depth;
}

}  // namespace

Outcome runChaos(const Settings& s, SpanRecorder& spans) {
  Outcome out;
  const std::size_t faultSeeds = s.small ? 1 : 8;
  const std::size_t calls = s.small ? 8 : 24;
  tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  tasks::Workload workload;
  std::vector<runtime::ScenarioOptions> cycle;
  const double setupS = medianSetup(spans, [&] {
    registry = tasks::makePaperFunctions();
    workload = tasks::makeRoundRobinWorkload(registry, calls,
                                             util::Bytes{1'000'000});
    cycle.clear();
    for (std::size_t j = 0; j < faultSeeds; ++j) {
      for (const double rate : kChaosRates) {
        cycle.push_back(chaosOptions(rate, splitmix(s.seed + j), true));
      }
    }
    // Warm-up: one healthy point builds the process-wide stream memo.
    const auto warm =
        tasks::makeRoundRobinWorkload(registry, 2 * registry.size(),
                                      util::Bytes{1'000'000});
    (void)runtime::runScenario(registry, warm, cycle.front());
  });
  out.set("setup_s", setupS, "s");

  LoopTimes t;
  ScenarioCounts counts;
  std::vector<std::string> reference;
  double modelErrorMax = 0;
  measureLoop(s, s.small ? 6 : 100, t, [&](bool measured, bool spansOn) {
    const bool first = reference.empty();
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      ++out.attempted;
      std::string render;
      const std::int64_t cpu0 = threadCpuNs();
      const Clock::time_point t0 = Clock::now();
      try {
        const runtime::ScenarioResult r =
            runtime::runScenario(registry, workload, cycle[i]);
        const Clock::time_point t1 = Clock::now();
        if (spansOn) spans.record("runScenario", "chaos.point", t0, t1);
        if (measured) {
          t.pointCpuMs.push_back(static_cast<double>(threadCpuNs() - cpu0) / 1e6);
          t.busyNs += static_cast<double>(nsBetween(t0, t1));
          counts.add(r.metrics);
        }
        render = r.toString() + r.metrics.toString();
        if (first) {
          modelErrorMax = std::max(modelErrorMax, r.modelError);
          if (!ladderConsistent(r.metrics)) {
            out.fail("chaos: ladder histogram disagrees with rung counters");
          }
        }
      } catch (const util::FaultError& e) {
        ++out.failed;
        out.fail(std::string("chaos: unrecovered scenario: ") + e.what());
        render = "unrecovered";
      }
      if (first) {
        reference.push_back(render);
      } else if (render != reference[i]) {
        ++out.failed;
        out.fail("chaos: point " + std::to_string(i) + " of cycle " +
                 std::to_string(t.units) + " differs from the reference");
      }
    }
  });
  std::string joined;
  for (const std::string& r : reference) joined += r;
  out.digest = digestHex(joined);

  // Validation: zero-overhead-when-healthy — rate 0 with recovery on
  // matches the recovery-off baseline report.
  timed(spans, "healthy-vs-baseline", "validate", [&] {
    const auto base = runtime::runScenario(registry, workload,
                                           chaosOptions(0.0, s.seed, false));
    const auto healthy = runtime::runScenario(registry, workload,
                                              chaosOptions(0.0, s.seed, true));
    if (base.toString() != healthy.toString()) {
      out.fail("chaos: healthy recovery run differs from the baseline");
      ++out.failed;
    }
  });

  const double points = static_cast<double>(t.pointCpuMs.size());
  loopMetrics(t, static_cast<double>(calls), out);
  out.set("model_error_max", modelErrorMax, "fraction");
  out.set("paper_error_max", paperError(registry, cycle.front()), "fraction");
  std::cout << "chaos: " << loopSummary(t, "cycles") << "; " << cycle.size()
            << " points (" << faultSeeds << " fault seeds x "
            << kChaosRates.size() << " rates), " << calls
            << " calls per point\n";

  if (s.trace) {
    const UnitCosts u = measureUnitCosts(spans);
    reportUnitCosts(u, out);
    scenarioLayerMetrics(counts, points, t.busyNs, out);
    std::vector<double> prtrOnlyMs;
    timed(spans, "prtr-only cycle", "validate", [&] {
      for (runtime::ScenarioOptions so : cycle) {
        so.sides = runtime::ScenarioSides::kPrtrOnly;
        const std::int64_t cpu0 = threadCpuNs();
        try {
          (void)runtime::runScenario(registry, workload, so);
        } catch (const util::FaultError&) {
          // Counted by the measured loop already.
        }
        prtrOnlyMs.push_back(static_cast<double>(threadCpuNs() - cpu0) / 1e6);
      }
    });
    out.set("runtime.prtr_only_ms_p50", quantile(prtrOnlyMs, 0.5), "ms");
    tracingOverhead(t, out);

    scenarioLedger(counts, u, out);
    // Readback verification CRCs each written frame twice (memory content
    // and golden payload), about two partial streams per verification.
    out.ledger.push_back({"util", "readback-verify CRCs (2 streams each)",
                          counts.verifications,
                          2.0 * u.partialBytes / u.crcMbPerS * 1e3});
    out.ledgerBaseNs = t.wallNs;
    finishLedger("chaos", out);
    zeroLayerMetrics(out);
  }
  return out;
}

// --------------------------------------------------------------- fleet --

namespace {

/// bench_fleet's base point: 4 cells x 6 blades at 70% offered load.
fleet::FleetOptions fleetBase(const Settings& s) {
  fleet::FleetOptions options;
  options.cells = 4;
  options.bladesPerCell = 6;
  options.requests = s.small ? 20'000 : 1'000'000;
  options.seed = s.seed;
  options.offeredLoad = 0.7;
  options.threads = s.participants;
  return options;
}

fleet::FleetOptions fleetChaos(const fleet::FleetOptions& base) {
  fleet::FleetOptions options = base;
  options.degradedFraction = 0.2;
  options.degradedFaults.seed = base.seed ^ 0xC4A05u;
  options.degradedFaults.icapAbortRate = 0.30;
  options.degradedFaults.transferTimeoutRate = 0.10;
  options.degradedFaults.linkStallRate = 0.05;
  return options;
}

fleet::FleetOptions fleetSurge(const fleet::FleetOptions& base) {
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

bool sameProfile(const fleet::BladeProfile& a, const fleet::BladeProfile& b) {
  if (a.tasks.size() != b.tasks.size()) return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const fleet::TaskProfile& x = a.tasks[i];
    const fleet::TaskProfile& y = b.tasks[i];
    if (x.configPs != y.configPs || x.execFixedPs != y.execFixedPs ||
        x.execPsPerByte != y.execPsPerByte || x.configWords != y.configWords) {
      return false;
    }
  }
  return true;
}

/// The surrogate against the simulator at a payload it was not calibrated
/// on: forced-miss per-call service time, predicted (configPs + execPs)
/// vs simulated, worst relative error over the task set.
double surrogateError(const tasks::FunctionRegistry& registry,
                      const fleet::BladeProfile& profile) {
  runtime::ScenarioOptions blade =
      hprc::bladeScenarioOptions(runtime::ScenarioOptions{}, 0);
  blade.forceMiss = true;
  const util::Bytes payload{profile.calibrationPayload.count() * 3 / 4};
  constexpr std::size_t kCalls = 8;
  double worst = 0;
  for (std::size_t fn = 0; fn < registry.size(); ++fn) {
    tasks::Workload w;
    w.name = "holdout/" + registry.at(fn).name;
    w.calls.assign(kCalls, tasks::TaskCall{fn, payload});
    const runtime::ExecutionReport r =
        runtime::runScenario(registry, w, blade).prtr;
    const double simulated =
        static_cast<double>((r.total - r.initialConfig).ps()) / kCalls;
    const fleet::TaskProfile& t = profile.tasks[fn];
    const double predicted =
        static_cast<double>(t.configPs + t.execPs(payload.count()));
    worst = std::max(worst, std::abs(simulated - predicted) / predicted);
  }
  return worst;
}

std::string fleetRender(const fleet::FleetReport& r) {
  return r.toString() + r.metrics.toString();
}

}  // namespace

Outcome runFleet(const Settings& s, SpanRecorder& spans) {
  Outcome out;
  const fleet::FleetOptions base = fleetBase(s);
  tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  fleet::BladeProfile profile;
  std::vector<double> calibrateS;
  bool profilesAgree = true;
  const double setupS = medianSetup(spans, [&] {
    registry = tasks::makePaperFunctions();
    const Clock::time_point c0 = Clock::now();
    fleet::BladeProfile p = fleet::calibrateBladeProfile(
        registry, runtime::ScenarioOptions{}, base.payloadBytes);
    calibrateS.push_back(secondsSince(c0));
    if (!profile.tasks.empty() && !sameProfile(profile, p)) profilesAgree = false;
    profile = std::move(p);
  });
  out.set("setup_s", setupS, "s");
  if (!profilesAgree) out.fail("fleet: calibration is not deterministic");

  struct Kind {
    const char* name;
    fleet::FleetOptions options;
    std::vector<double> nsPerRequest;
  };
  std::vector<Kind> kinds = {{"healthy", base, {}},
                             {"chaos", fleetChaos(base), {}},
                             {"surge", fleetSurge(base), {}}};

  LoopTimes t;
  std::vector<std::string> reference;
  std::vector<fleet::FleetReport> firstRound;
  double histogramObservations = 0;
  double rssGrowthMax = 0;
  // A fleet point is one round: the three runs, on every pool thread.
  measureLoop(s, 0, t, [&](bool measured, bool spansOn) {
    const bool first = reference.empty();
    const std::int64_t cpu0 = processCpuNs();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      ++out.attempted;
      const double rss0 = currentRssMb();
      const Clock::time_point t0 = Clock::now();
      fleet::FleetReport r = fleet::runFleet(registry, profile, kinds[k].options);
      const Clock::time_point t1 = Clock::now();
      rssGrowthMax = std::max(rssGrowthMax, currentRssMb() - rss0);
      if (spansOn) spans.record(std::string("runFleet ") + kinds[k].name,
                                "fleet.point", t0, t1);
      if (measured) {
        const double ns = static_cast<double>(nsBetween(t0, t1));
        t.busyNs += ns;
        kinds[k].nsPerRequest.push_back(ns / static_cast<double>(r.offered));
        for (const auto& [name, h] : r.metrics.histograms) {
          histogramObservations += static_cast<double>(h.count);
        }
      }
      const std::string render = fleetRender(r);
      if (first) {
        reference.push_back(render);
        firstRound.push_back(std::move(r));
      } else if (render != reference[k]) {
        ++out.failed;
        out.fail(std::string("fleet: ") + kinds[k].name + " point of round " +
                 std::to_string(t.units) + " differs from the reference");
      }
    }
    if (measured) {
      t.pointCpuMs.push_back(static_cast<double>(processCpuNs() - cpu0) / 1e6);
    }
  });
  std::string joined;
  for (const std::string& r : reference) joined += r;
  out.digest = digestHex(joined);

  // bench_fleet's invariants, at any seed.
  const fleet::FleetReport& healthy = firstRound[0];
  const fleet::FleetReport& chaos = firstRound[1];
  const fleet::FleetReport& surge = firstRound[2];
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) {
      out.fail("fleet: " + what);
      ++out.failed;
    }
  };
  require(healthy.failed == 0, "healthy point has failed requests");
  require(chaos.breakerOpens > 0, "chaos point opened no breaker");
  require(chaos.retryBudgetConsumption() <=
              kinds[1].options.retry.budgetFraction + 0.01,
          "chaos retry budget exceeded");
  require(surge.shedRateLimited > 0, "surge rate limiter never engaged");
  require(surge.tailRetention() == 1.0, "surge tail retention below 1");

  loopMetrics(t, static_cast<double>(base.requests * kinds.size()), out);
  out.set("model_error_max", surrogateError(registry, profile), "fraction");
  out.set("paper_error_max", paperError(registry, runtime::ScenarioOptions{}),
          "fraction");
  std::cout << "fleet: " << loopSummary(t, "rounds") << " of healthy/chaos/surge, "
            << base.requests << " requests each on " << s.participants
            << " participant(s)\n";

  if (s.trace) {
    const UnitCosts u = measureUnitCosts(spans);
    reportUnitCosts(u, out);
    out.set("fleet.calibrate_s", quantile(calibrateS, 0.5), "s");
    for (const Kind& k : kinds) {
      out.set(std::string("fleet.") + k.name + ".ns_per_request",
              quantile(k.nsPerRequest, 0.5), "ns");
    }
    out.set("fleet.rss_growth_mb", rssGrowthMax, "MB");
    double retries = 0;
    double hedges = 0;
    double loads = 0;
    double opens = 0;
    double offeredRound = 0;
    for (const fleet::FleetReport& r : firstRound) {
      offeredRound += static_cast<double>(r.offered);
      retries += static_cast<double>(r.retries);
      hedges += static_cast<double>(r.hedges);
      loads += static_cast<double>(r.metrics.counterOr("fleet.config.loads"));
      opens += static_cast<double>(r.breakerOpens);
    }
    out.set("fleet.offered", offeredRound, "requests/round");
    out.set("fleet.retries", retries, "count/round");
    out.set("fleet.hedges", hedges, "count/round");
    out.set("fleet.config_loads", loads, "count/round");
    out.set("fleet.breaker_opens", opens, "count/round");
    out.set("fleet.retry_budget_consumption", chaos.retryBudgetConsumption(),
            "fraction");
    out.set("trace.recorded", static_cast<double>(surge.tracesRecorded), "count");
    out.set("trace.kept", static_cast<double>(surge.tracesKept), "count");

    // Request tracing on vs off for the surge point.
    std::vector<double> on;
    std::vector<double> off;
    fleet::FleetOptions untraced = kinds[2].options;
    untraced.tracing.enabled = false;
    timed(spans, "surge tracing on/off", "validate", [&] {
      for (int rep = 0; rep < 3; ++rep) {
        for (const bool tracing : {false, true}) {
          const Clock::time_point t0 = Clock::now();
          (void)fleet::runFleet(registry, profile,
                                tracing ? kinds[2].options : untraced);
          (tracing ? on : off)
              .push_back(static_cast<double>(nsBetween(t0, Clock::now())));
        }
      }
    });
    out.set("trace.overhead_frac",
            quantile(on, 0.5) / quantile(off, 0.5) - 1.0, "fraction");
    tracingOverhead(t, out);

    // Pool probe: rounds with the cells on the full pool width, which
    // must reproduce the serial reference byte for byte.
    const obs::MetricsSnapshot pool0 = exec::Pool::global().metricsSnapshot();
    std::vector<double> roundNs;
    timed(spans, "pool probe", "exec", [&] {
      const Clock::time_point p0 = Clock::now();
      do {
        const Clock::time_point r0 = Clock::now();
        for (std::size_t k = 0; k < kinds.size(); ++k) {
          fleet::FleetOptions pooled = kinds[k].options;
          pooled.threads = s.poolWidth;
          ++out.attempted;
          if (fleetRender(fleet::runFleet(registry, profile, pooled)) !=
              reference[k]) {
            ++out.failed;
            out.fail(std::string("fleet: ") + kinds[k].name + " at " +
                     std::to_string(s.poolWidth) +
                     " threads differs from the serial reference");
          }
        }
        roundNs.push_back(static_cast<double>(nsBetween(r0, Clock::now())));
      } while (secondsSince(p0) < probeSeconds(s));
    });
    const obs::MetricsSnapshot pool1 = exec::Pool::global().metricsSnapshot();
    out.set("exec.pool.steals",
            static_cast<double>(pool1.counterOr("exec.pool.steals") -
                                pool0.counterOr("exec.pool.steals")) /
                static_cast<double>(roundNs.size()),
            "steals/point");
    // Serial round time over pool width x pooled round time.
    out.set("exec.parallel_efficiency",
            quantile(t.unitMs, 0.5) * 1e6 /
                (static_cast<double>(s.poolWidth) * quantile(roundNs, 0.5)),
            "fraction");

    out.ledger.push_back({"obs", "histogram observations",
                          histogramObservations, u.observeNs});
    // Request tracing, priced by the surge point run with it on and off.
    const double surgeRuns = static_cast<double>(kinds[2].nsPerRequest.size());
    const double requests = static_cast<double>(kinds[2].options.requests);
    out.ledger.push_back({"trace", "surge requests traced", surgeRuns * requests,
                          (quantile(on, 0.5) - quantile(off, 0.5)) / requests});
    out.ledgerBaseNs = t.wallNs;
    finishLedger("fleet", out);
    zeroLayerMetrics(out);
  }
  return out;
}

}  // namespace perfbench
