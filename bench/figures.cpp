#include "bench/figures.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/figures.hpp"
#include "bitstream/builder.hpp"
#include "bitstream/compress.hpp"
#include "bitstream/library.hpp"
#include "bitstream/relocate.hpp"
#include "config/icap_controller.hpp"
#include "config/memory.hpp"
#include "config/port.hpp"
#include "config/scrubber.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "fabric/allocator.hpp"
#include "fabric/device.hpp"
#include "fabric/floorplan.hpp"
#include "hprc/chassis.hpp"
#include "model/bounds.hpp"
#include "model/insights.hpp"
#include "model/model.hpp"
#include "runtime/dynamic_executor.hpp"
#include "runtime/hwsw.hpp"
#include "runtime/multitask.hpp"
#include "runtime/scenario.hpp"
#include "sim/link.hpp"
#include "tasks/appsuite.hpp"
#include "tasks/hwfunction.hpp"
#include "tasks/locality.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace prtr::bench {
namespace {

/// Scenario options that report into the run's --profile profiler.
runtime::ScenarioOptions scenarioOptions(const Context& ctx) {
  runtime::ScenarioOptions options;
  options.hooks.profiler = ctx.profiler;
  return options;
}

/// Prints `table` and registers it on the report under `name`.
void show(obs::BenchReport& report, const std::string& name,
          const util::Table& table) {
  table.print(std::cout);
  report.table(name, table);
}

// == The paper's own results.

/// Table 2 and Figure 5 are analytic; under --trace each captures the
/// simulated dual-PRR scenario behind its operating point (Table 2's
/// measured column, Figure 5's X_PRTR = 0.17 family) with inline timeline
/// verification on, so prtr-verify has a real capture of it to check.
void traceDualPrrScenario(const Context& ctx, obs::BenchReport& report,
                          model::ConfigTimeBasis basis) {
  if (ctx.trace == nullptr) return;
  runtime::ScenarioOptions options = scenarioOptions(ctx);
  options.layout = xd1::Layout::kDualPrr;
  options.basis = basis;
  options.hooks.trace = ctx.trace;
  options.verify = true;
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 12, util::Bytes{1'000'000});
  const runtime::ScenarioResult traced =
      runtime::runScenario(registry, workload, options);
  report.scalar("traced_speedup", traced.speedup);
}

/// Figure 9: PRTR speedup vs task time requirement on the simulated Cray
/// XD1 (dual PRR, H = 0, T_control = 10 us), at the estimated (9a) or
/// measured (9b) configuration-time basis.
template <model::ConfigTimeBasis kBasis>
void runFig9(const Context& ctx, obs::BenchReport& report) {
  const bool estimated = kBasis == model::ConfigTimeBasis::kEstimated;
  analysis::Fig9Options opts;
  opts.basis = kBasis;
  opts.points = 21;
  opts.xTaskLo = 1e-3;
  opts.xTaskHi = 50.0;
  opts.nCalls = 400;
  opts.threads = ctx.options.threads();
  opts.artifacts = &exec::ArtifactCache::global();
  opts.profiler = ctx.profiler;
  opts.trace = ctx.trace;

  std::cout << (estimated ? "=== Figure 9(a): speedup vs X_task, estimated "
                            "configuration times (dual PRR, H=0) ===\n\n"
                          : "=== Figure 9(b): speedup vs X_task, measured "
                            "configuration times (dual PRR, H=0) ===\n\n");
  const auto points = analysis::makeFig9(opts);
  std::cout << analysis::fig9Plot(points, estimated
                                              ? "Fig 9(a), estimated basis"
                                              : "Fig 9(b), measured basis")
            << '\n';
  const util::Table table = analysis::fig9Table(points);
  show(report, estimated ? "fig9a" : "fig9b", table);

  double bestSim = 0.0;
  double bestInf = 0.0;
  for (const auto& p : points) {
    bestSim = std::max(bestSim, p.simSpeedup);
    bestInf = std::max(bestInf, p.modelAsymptote);
  }
  report.scalar("peak_sim_speedup", bestSim);
  if (estimated) {
    // Paper section 5: "the PRTR can not exceed 7 times the performance of
    // FRTR" (T_FRTR = 36.09 ms, dual-PRR T_PRTR = 6.12 ms).
    const model::Peak peak = model::peakSpeedup(0.0, 6.12 / 36.09);
    std::cout << "\nPeak simulated speedup: " << bestSim
              << "  (paper: cannot exceed ~7x; eq.7 peak = " << peak.speedup
              << " at X_task = " << peak.xTask << ")\n";
    std::cout
        << "Task-dominant cap: every X_task >= 1 point stays below 2x.\n";
    report.scalar("peak_model_speedup", peak.speedup);
  } else {
    // Paper section 5: "can reach up to 87x higher than the performance of
    // FRTR" -- approached asymptotically; finite runs and the dual-channel
    // input constraint land slightly below.
    std::cout << "\nPeak simulated speedup (n=400 calls): " << bestSim
              << "; eq.7 asymptotic peak on this grid: " << bestInf
              << " (paper: \"up to 87x\")\n";
    report.scalar("peak_asymptote", bestInf);
  }
  report.metrics(exec::Pool::global().metricsSnapshot());
  report.metrics(exec::ArtifactCache::global().metricsSnapshot());
}


// Table 1: "Hardware functions and their resource requirements" on the
// XC2VP50, with utilization percentages against the usable device fabric.
void runTable1(const Context&, obs::BenchReport& report) {
  std::cout << "=== Table 1: Hardware functions and their resource "
               "requirements (XC2VP50) ===\n\n";
  const util::Table table = analysis::makeTable1();
  show(report, "table1", table);
  std::cout << "\nPaper values: Static 3372/5503/25 @200, PR ctrl 418/432/8 "
               "@66, Median 3141/3270 @200,\n"
               "              Sobel 1159/1060 @200, Smoothing 2053/1601 @200 "
               "-- reproduced exactly (percentages vs 47,232 LUT/FF, 232 "
               "BRAM).\n";
}

// Table 2: bitstream sizes and estimated/measured configuration times for
// the full, single-PRR and dual-PRR layouts, with the paper's own values
// printed side by side.
void runTable2(const Context& ctx, obs::BenchReport& report) {
  std::cout << "=== Table 2: Experimental values for model parameters ===\n\n";
  const util::Table table = analysis::makeTable2();
  show(report, "table2", table);
  std::cout
      << "\nEstimated = bitstream bytes / 66 MB/s SelectMap (lower bound).\n"
         "Measured  = vendor-API driver path (full: 12 ms + 699.5 ns/B) and\n"
         "            ICAP controller path (partials: 20.31 MB/s effective "
         "FSM drain).\n"
         "Full size matches the paper exactly; PRR sizes are frame-column "
         "quantized (within 0.06%).\n";
  traceDualPrrScenario(ctx, report, model::ConfigTimeBasis::kMeasured);
}

// Figure 5: asymptotic performance of PRTR (equation 7) vs the normalized
// task time requirement, for a family of pre-fetching hit ratios, at
// X_decision = X_control = 0.
void runFig5(const Context& ctx, obs::BenchReport& report) {
  const std::size_t threads = ctx.options.threads();
  const std::vector<double> hitRatios{0.0, 0.25, 0.5, 0.75, 1.0};
  // The three X_PRTR values of Table 2's normalized column:
  // 0.37 (single PRR est.), 0.17 (dual PRR est.), 0.012 (dual PRR meas.).
  for (const double xPrtr : {0.37, 0.17, 0.012}) {
    std::cout << "=== Figure 5: asymptotic speedup S_inf vs X_task, X_PRTR = "
              << xPrtr << " ===\n";
    const auto series = analysis::makeFig5Series(xPrtr, hitRatios, 161, 1e-3,
                                                 100.0, threads);
    util::PlotOptions po;
    po.logX = true;
    po.logY = true;
    po.xLabel = "X_task";
    po.yLabel = "S_inf";
    std::cout << util::renderAsciiPlot(series, po) << '\n';

    const model::Peak h0 = model::peakSpeedup(0.0, xPrtr);
    std::cout << "H=0 peak: S_inf = " << h0.speedup
              << " at X_task = X_PRTR = " << h0.xTask << '\n';
    std::cout << "X_task >= 1 cap: S_inf <= 2 for every H (e.g. at X_task=1: "
              << model::idealAsymptote(1.0, xPrtr, 0.0) << ")\n\n";
    report.scalar("peak_sinf_xprtr_" + util::formatDouble(xPrtr, 3),
                  h0.speedup);
  }

  std::cout << "CSV (X_PRTR=0.17):\nxTask";
  const auto csvSeries = analysis::makeFig5Series(0.17, hitRatios, 31, 1e-3,
                                                  100.0, threads);
  for (const auto& s : csvSeries) std::cout << ',' << s.name;
  std::cout << '\n';
  std::vector<std::string> header{"xTask"};
  for (const auto& s : csvSeries) header.push_back(s.name);
  util::Table csv{header};
  for (std::size_t i = 0; i < csvSeries.front().x.size(); ++i) {
    std::cout << csvSeries.front().x[i];
    csv.row().cell(csvSeries.front().x[i], 6);
    for (const auto& s : csvSeries) {
      std::cout << ',' << s.y[i];
      csv.cell(s.y[i], 6);
    }
    std::cout << '\n';
  }
  report.table("fig5_xprtr_0.17", csv);
  traceDualPrrScenario(ctx, report, model::ConfigTimeBasis::kEstimated);
}

// The execution profiles of Figures 2-4 as simulator-derived Gantt charts:
//   Figure 2/3: FRTR task anatomy (full config -> control -> in -> compute
//               -> out, repeated per call);
//   Figure 4(a): PRTR missed tasks (partial configurations overlapping the
//               previous task's execution);
//   Figure 4(b): PRTR pre-fetched (hit) tasks (no configuration at all).
// Under --trace the same timelines become a Chrome trace_event document:
// load it in chrome://tracing or ui.perfetto.dev to scrub through them.
void runProfiles(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makePaperFunctions();
  const util::Bytes data{30'000'000};  // mid-range task (~0.16 s)

  {
    std::cout << "=== Figures 2/3: task execution using FRTR ===\n";
    sim::Timeline frtrTl;
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.forceMiss = true;
    so.hooks.frtrTimeline = &frtrTl;
    const auto workload = tasks::makeRoundRobinWorkload(registry, 4, data);
    const auto result = runtime::runScenario(registry, workload, so);
    std::cout << frtrTl.renderGantt(110);
    std::cout << "FRTR total: " << result.frtr.total.toString()
              << " (config overhead "
              << result.frtr.configOverheadFraction() * 100.0 << "% -- the "
              << "\"25% to 98.5%\" regime of the paper's introduction)\n\n";
    if (ctx.trace != nullptr) ctx.trace->add("fig2-3 FRTR", frtrTl);
    report.scalar("frtr_config_overhead", result.frtr.configOverheadFraction());

    std::cout << "=== Figure 4(a): PRTR, missed tasks (H=0, configs overlap "
                 "previous execution) ===\n";
    sim::Timeline prtrTl;
    so.hooks.frtrTimeline = nullptr;
    so.hooks.timeline = &prtrTl;
    const auto prtrResult = runtime::runScenario(registry, workload, so);
    std::cout << prtrTl.renderGantt(110);
    std::cout << "PRTR total: " << prtrResult.prtr.total.toString()
              << ", speedup " << prtrResult.speedup << "x\n\n";
    if (ctx.trace != nullptr) ctx.trace->add("fig4a PRTR miss", prtrTl);
    report.scalar("miss_speedup", prtrResult.speedup);
    report.metrics(prtrResult.metrics);
  }

  {
    std::cout << "=== Figure 4(b): PRTR, pre-fetched (hit) tasks ===\n";
    sim::Timeline hitTl;
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.forceMiss = false;  // alternating 2 modules stay resident in 2 PRRs
    so.hooks.timeline = &hitTl;
    tasks::Workload alternating{"alt", {}};
    for (int i = 0; i < 6; ++i) {
      alternating.calls.push_back(
          tasks::TaskCall{static_cast<std::size_t>(i % 2), data});
    }
    const auto result = runtime::runScenario(registry, alternating, so);
    std::cout << hitTl.renderGantt(110);
    std::cout << "Hit ratio: " << result.prtr.hitRatio()
              << " (only the two warm-up loads configure), speedup "
              << result.speedup << "x\n";
    if (ctx.trace != nullptr) ctx.trace->add("fig4b PRTR hit", hitTl);
    report.scalar("hit_ratio", result.prtr.hitRatio());
    report.scalar("hit_speedup", result.speedup);
  }
}

// Section 2.2 flow comparison: a module-based flow needs n fixed-size
// bitstreams per region, a difference-based flow needs n(n-1)
// variable-size bitstreams covering every module-to-module transition.
void runFlows(const Context&, obs::BenchReport& report) {
  const auto registry = tasks::makeExtendedFunctions();
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const auto specs =
      registry.moduleSpecs(plan.prr(0).resources(plan.device()));

  util::Table table{{"modules n", "module-based streams", "module-based total",
                     "diff-based streams", "diff total", "diff min..max"}};
  for (std::size_t n = 2; n <= registry.size(); n += 2) {
    std::vector<bitstream::Library::ModuleSpec> subset(
        specs.begin(), specs.begin() + static_cast<std::ptrdiff_t>(n));
    bitstream::Library lib{plan, subset};
    const auto moduleStats = lib.buildModuleFlow();
    const auto diffStats = lib.buildDifferenceFlow();
    table.row()
        .cell(std::uint64_t{n})
        .cell(std::uint64_t{moduleStats.streamCount})
        .cell(moduleStats.totalBytes.toString())
        .cell(std::uint64_t{diffStats.streamCount})
        .cell(diffStats.totalBytes.toString())
        .cell(diffStats.minBytes.toString() + " .. " +
              diffStats.maxBytes.toString());
  }

  std::cout << "=== Section 2.2: module-based vs difference-based partial "
               "bitstream flows (2 PRRs) ===\n\n";
  show(report, "flow_comparison", table);
  std::cout << "\nModule-based: n fixed-size streams per region "
               "(n*prrCount total).\n"
               "Difference-based: n(n-1) variable-size streams per region -- "
               "the development-cost explosion the paper warns about in "
               "section 5.\n";

  // Relocation (ref [24]) on the quad-PRR layout: the four regions share
  // one column signature, so one stream per module suffices.
  const fabric::Floorplan quad = fabric::makeQuadPrrLayout();
  const util::Bytes streamBytes =
      quad.prr(0).partialBitstreamBytes(quad.device());
  std::cout << "\n=== Relocation (quad-PRR layout, compatible regions) ===\n";
  util::Table reloc{{"modules n", "per-(module,PRR) storage",
                     "relocatable storage", "saving"}};
  for (std::size_t n = 2; n <= registry.size(); n += 2) {
    const auto savings = bitstream::relocationSavings(streamBytes, n, 4);
    reloc.row()
        .cell(std::uint64_t{n})
        .cell(savings.withoutRelocation.toString())
        .cell(savings.withRelocation.toString())
        .cell(util::formatDouble(savings.ratio(), 3) + "x");
  }
  show(report, "relocation_savings", reloc);
  std::cout << "Note: the paper's own dual-PRR layout has *mirrored* edge "
               "regions, so relocation is illegal there -- verified by the "
               "column-signature check.\n";
}

// == Ablations of the paper's model.

// Ablation A: sensitivity of the PRTR speedup to the transfer-of-control
// and pre-fetch-decision overheads. The paper (section 3.1) plots Figure 5
// at X_control = X_decision = 0 and notes "these overheads will reduce the
// final performance if non-zero values are considered" -- this quantifies
// by how much, analytically and on the simulator.
void runOverheads(const Context& ctx, obs::BenchReport& report) {
  // Analytic sweep at the estimated dual-PRR operating point.
  std::cout << "=== Ablation A1 (analytic): S_inf vs overheads at X_task = "
               "X_PRTR = 0.17, H = 0 ===\n\n";
  util::Table analytic{{"X_control", "X_decision", "S_inf", "loss vs ideal"}};
  model::Params base;
  base.xTask = 0.17;
  base.xPrtr = 0.17;
  base.hitRatio = 0.0;
  const double ideal = model::asymptoticSpeedup(base);
  for (const double xc : {0.0, 0.001, 0.01, 0.05}) {
    for (const double xd : {0.0, 0.001, 0.01, 0.05}) {
      model::Params p = base;
      p.xControl = xc;
      p.xDecision = xd;
      const double s = model::asymptoticSpeedup(p);
      analytic.row()
          .cell(util::formatDouble(xc, 3))
          .cell(util::formatDouble(xd, 3))
          .cell(util::formatDouble(s, 4))
          .cell(util::formatDouble((1.0 - s / ideal) * 100.0, 3) + "%");
    }
  }
  show(report, "analytic_overheads", analytic);

  // Simulated sweep of the transfer-of-control time.
  std::cout << "\n=== Ablation A2 (simulated): speedup vs T_control, "
               "estimated basis, X_task ~ 0.17 ===\n\n";
  const auto registry = tasks::makePaperFunctions();
  util::Table simulated{{"T_control", "S (simulated)", "S (model)"}};
  for (const std::int64_t controlUs : {0, 10, 100, 1000, 5000}) {
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.basis = model::ConfigTimeBasis::kEstimated;
    so.forceMiss = true;
    so.tControl = util::Time::microseconds(controlUs);
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 80, util::Bytes{1'100'000});
    const auto result = runtime::runScenario(registry, workload, so);
    simulated.row()
        .cell(so.tControl.toString())
        .cell(util::formatDouble(result.speedup, 4))
        .cell(util::formatDouble(result.modelSpeedup, 4));
  }
  show(report, "simulated_tcontrol", simulated);
  std::cout << "\nBoth overheads only hurt: the ideal Figure-5 curves are "
               "upper bounds.\n";
}

// Ablation B: the paper's future work, implemented -- configuration
// pre-fetching and caching. Sweeps workload locality against prefetcher /
// cache-policy combinations, measures the achieved hit ratio H, and checks
// that plugging the measured H into equation (6) predicts the measured
// speedup (validating the model's H axis, which the authors could only
// exercise at H = 0).
void runPrefetch(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makeExtendedFunctions();  // 8 modules, 2 PRRs

  std::cout << "=== Ablation B1: prefetcher x workload locality (8 modules, "
               "2 PRRs, LRU, measured basis) ===\n\n";
  util::Table table{{"workload", "prepare", "H (measured)", "configs",
                     "S (simulated)", "S (model @ measured H)"}};
  for (const double bias : {0.0, 0.5, 0.9}) {
    for (const char* prepare : {"none", "queue", "markov"}) {
      util::Rng rng{911};
      const auto workload = tasks::makeMarkovWorkload(
          registry, 250, util::Bytes{20'000'000}, bias, rng);
      runtime::ScenarioOptions so = scenarioOptions(ctx);
      so.forceMiss = false;
      so.cachePolicy = runtime::CachePolicy::kLru;
      if (std::string{prepare} == "none") {
        so.prepare = runtime::PrepareSource::kNone;
      } else if (std::string{prepare} == "queue") {
        so.prepare = runtime::PrepareSource::kQueue;
      } else {
        so.prepare = runtime::PrepareSource::kPrefetcher;
        so.prefetcherKind = runtime::PrefetcherKind::kMarkov;
      }
      const auto result = runtime::runScenario(registry, workload, so);
      table.row()
          .cell("markov(p=" + util::formatDouble(bias, 2) + ")")
          .cell(prepare)
          .cell(util::formatDouble(result.prtr.hitRatio(), 3))
          .cell(result.prtr.configurations)
          .cell(util::formatDouble(result.speedup, 4))
          .cell(util::formatDouble(result.modelSpeedup, 4));
    }
  }
  show(report, "prefetcher_locality", table);

  std::cout << "\n=== Ablation B2: cache policy comparison (phased workload, "
               "quad-PRR layout, PRTR only) ===\n\n";
  util::Table policies{{"policy", "H (measured)", "configs", "total"}};
  // Working set of 6 over 4 PRRs: eviction choice now matters, so the
  // policies separate (the dual-PRR layout always has exactly one victim
  // candidate while a task executes).
  util::Rng rng{77};
  // Tasks (~1.1 ms) shorter than a quad-PRR partial config (~15 ms), so
  // misses cannot hide behind execution and the totals separate too.
  const auto phased = tasks::makePhasedWorkload(
      registry, 300, util::Bytes{200'000}, 30, 6, rng);
  for (const runtime::CachePolicy policy : runtime::allCachePolicies()) {
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.sides = runtime::ScenarioSides::kPrtrOnly;
    so.layout = xd1::Layout::kQuadPrr;
    so.forceMiss = false;
    so.prepare = runtime::PrepareSource::kQueue;
    so.cachePolicy = policy;
    const auto prtr = runtime::runScenario(registry, phased, so).prtr;
    policies.row()
        .cell(runtime::toString(policy))
        .cell(util::formatDouble(prtr.hitRatio(), 3))
        .cell(prtr.configurations)
        .cell(prtr.total.toString());
  }
  show(report, "cache_policies", policies);
  std::cout << "\nBelady (offline-optimal) bounds every online policy; the "
               "measured H values map directly onto the model's H axis "
               "(Figure 5).\n";

  // Mattson stack-distance analysis: the LRU hit-ratio curve for every
  // possible PRR count in one pass over the trace -- "how many PRRs do I
  // need for H >= target?" answered analytically.
  std::cout << "\n=== Ablation B3: Mattson LRU hit-ratio curve for the "
               "phased workload ===\n\n";
  util::Table mattson{{"PRR slots", "predicted LRU H"}};
  const auto curve = tasks::lruHitRatioCurve(phased, registry.size());
  for (std::size_t k = 0; k < curve.size(); ++k) {
    mattson.row()
        .cell(std::uint64_t{k + 1})
        .cell(util::formatDouble(curve[k], 4));
  }
  show(report, "mattson_curve", mattson);
  const std::size_t needed = tasks::slotsForHitRatio(phased, 0.8);
  std::cout << "Slots needed for H >= 0.8: "
            << (needed ? std::to_string(needed) : std::string{"unattainable"})
            << " (exactness vs the simulated LRU cache is property-tested).\n";
}

// Ablation C: PRR granularity. Paper section 5: "in order to achieve the
// optimal performance ... the partitions (PRRs) must be so fine grained to
// match the task time requirements, i.e. X_PRTR = X_task". Sweeps
// hypothetical PRR sizes (frames per region) and, for each, finds the task
// size at which the speedup peaks and the peak value (1+X)/X.
void runGranularity(const Context&, obs::BenchReport& report) {
  const fabric::Device device = fabric::makeXc2vp50();
  const auto& geometry = device.geometry();
  const config::Port selectMap = config::makeSelectMap();
  const double tFull = selectMap.transferTime(geometry.fullBitstreamBytes())
                           .toSeconds();

  std::cout << "=== Ablation C: PRR granularity vs peak speedup (H = 0, "
               "estimated basis) ===\n\n";
  util::Table table{{"PRR frames", "partial bytes", "X_PRTR",
                     "peak S_inf = (1+X)/X", "task time at peak"}};
  for (const std::uint32_t frames :
       {2246u, 1123u, 834u, 380u, 190u, 86u, 22u, 4u, 1u}) {
    const util::Bytes bytes = geometry.partialBitstreamBytes(frames);
    const double xPrtr =
        selectMap.transferTime(bytes).toSeconds() / tFull;
    const model::Peak peak = model::peakSpeedup(0.0, std::min(xPrtr, 1.0));
    table.row()
        .cell(std::uint64_t{frames})
        .cell(bytes.toString())
        .cell(util::formatDouble(xPrtr, 4))
        .cell(util::formatDouble(peak.speedup, 4))
        .cell(util::Time::seconds(peak.xTask * tFull).toString());
  }
  show(report, "granularity", table);

  std::cout << "\nFiner partitions push the peak towards smaller tasks and "
               "raise it as (1+X)/X.\n"
               "The practical floor: a PRR must still fit the largest module "
               "(median filter needs 3141 LUTs ~ 5 CLB columns ~ 110 "
               "frames) plus bus macros, and the paper warns that the "
               "design-cycle cost grows with the PRR count (section 5).\n";
}

// What-if on newer silicon. The paper's conclusions hinge on the
// Virtex-II-Pro's slow 8-bit/66 MHz configuration interfaces; this
// recomputes the Table-2-style quantities and the Figure-5 peaks for the
// Virtex-4 (32-bit ICAP at 100 MHz) and for a hypothetical ideal ICAP
// controller with zero FSM overhead, quantifying how much of the PRTR
// ceiling is technology rather than model.
void runWhatif(const Context&, obs::BenchReport& report) {
  struct Scenario {
    const char* name;
    fabric::Device device;
    config::Port icap;
    std::uint32_t fsmOverheadCyclesPerWord;
  };
  Scenario scenarios[] = {
      {"XC2VP50 + paper's controller", fabric::makeXc2vp50(),
       config::makeIcapV2(), 9},
      {"XC2VP50 + ideal controller", fabric::makeXc2vp50(),
       config::makeIcapV2(), 0},
      {"XC4VLX60 + V4 ICAP (32b/100MHz)", fabric::makeXc4vlx60(),
       config::makeIcapV4(), 2},
  };

  std::cout << "=== What-if: configuration technology vs the PRTR ceiling "
               "===\n\n";
  util::Table table{{"platform", "full bytes", "ICAP eff.", "T_PRTR (1/6 dev)",
                     "X_PRTR", "H=0 peak S_inf"}};
  for (auto& s : scenarios) {
    // A PRR sized at ~1/6 of the device, mirroring the dual-PRR ratio.
    const std::uint32_t frames = s.device.geometry().totalFrames() / 6;
    const util::Bytes partial =
        s.device.geometry().partialBitstreamBytes(frames);

    sim::Simulator sim;
    config::ConfigMemory memory{s.device};
    sim::SimplexLink link{sim, "in", util::DataRate::megabytesPerSecond(1400)};
    config::IcapTiming timing;
    timing.fsmOverheadCyclesPerWord = s.fsmOverheadCyclesPerWord;
    config::IcapController icap{sim, memory, link, s.icap, timing};

    const util::Time tPrtr = icap.drainTime(partial);
    // Full configuration through the external parallel port at its raw
    // rate (the best case a fixed vendor API could reach).
    const util::Time tFrtr = config::makeSelectMap().transferTime(
        s.device.geometry().fullBitstreamBytes());
    const double xPrtr = std::min(1.0, tPrtr.toSeconds() / tFrtr.toSeconds());
    const model::Peak peak = model::peakSpeedup(0.0, xPrtr);

    table.row()
        .cell(s.name)
        .cell(s.device.geometry().fullBitstreamBytes().toString())
        .cell(icap.effectiveThroughput().toString())
        .cell(tPrtr.toString())
        .cell(util::formatDouble(xPrtr, 4))
        .cell(util::formatDouble(peak.speedup, 4));
  }
  show(report, "whatif_platforms", table);
  std::cout << "\nFaster internal ports shrink X_PRTR and raise the H=0 "
               "ceiling as (1+X)/X -- the paper's 'future usage in HPRC' "
               "argument, quantified.\n";

  std::cout << "\n=== Device catalog: configuration cost across three FPGA "
               "generations ===\n\n";
  util::Table catalog{{"device", "frames", "full bytes", "usable LUTs",
                       "full config @66MB/s", "frame time"}};
  for (const std::string& name : fabric::deviceCatalog()) {
    const fabric::Device dev = fabric::makeDevice(name);
    const util::Bytes full = dev.geometry().fullBitstreamBytes();
    catalog.row()
        .cell(name)
        .cell(std::uint64_t{dev.geometry().totalFrames()})
        .cell(full.toString())
        .cell(std::uint64_t{dev.usableResources().luts})
        .cell(config::makeSelectMap().transferTime(full).toString())
        .cell(config::makeSelectMap()
                  .transferTime(util::Bytes{dev.geometry().encoding().frameBytes})
                  .toString());
  }
  show(report, "device_catalog", catalog);
  std::cout << "\nBigger parts raise T_FRTR (and with it the PRTR win for "
               "fixed task sizes); newer families shrink the frame -- the "
               "reconfiguration quantum -- by ~6.5x.\n";
}

// Bitstream compression. Two levers on the measured configuration path --
// ZRL wire compression (smaller host transfer) and multi-frame-write dedup
// (fewer ICAP payload writes) -- swept against module occupancy, plus the
// end-to-end effect of MFW on a Figure-9-style operating point.
void runCompression(const Context& ctx, obs::BenchReport& report) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};

  std::cout << "=== Compression vs module occupancy (dual-PRR stream, "
               "404,388 B raw) ===\n\n";
  util::Table table{{"occupancy", "ZRL ratio", "MFW unique/total",
                     "MFW wire bytes", "T_PRTR raw", "T_PRTR MFW",
                     "H=0 peak (raw)", "H=0 peak (MFW)"}};

  sim::Simulator sim;
  config::ConfigMemory memory{plan.device()};
  sim::SimplexLink link{sim, "in", util::DataRate::megabytesPerSecond(1400)};
  const config::IcapController icap{sim, memory, link};
  const util::Time tFrtrMeasured =
      util::Time::seconds(1.67804);  // Table 2 measured full config

  for (const double occupancy : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const bitstream::Bitstream stream =
        builder.buildModulePartial(plan.prr(0), 7, occupancy);
    const double zrl = bitstream::zrlRatio(stream.bytes());
    const bitstream::MfwPlan mfw = bitstream::planMfw(stream, plan.device());

    const util::Time rawTime = icap.drainTime(stream.size());
    const util::Time mfwTime = icap.drainTime(mfw.wireBytes);
    const double xRaw = rawTime.toSeconds() / tFrtrMeasured.toSeconds();
    const double xMfw = mfwTime.toSeconds() / tFrtrMeasured.toSeconds();

    table.row()
        .cell(util::formatDouble(occupancy, 3))
        .cell(util::formatDouble(zrl, 3))
        .cell(std::to_string(mfw.uniqueFrames) + "/" +
              std::to_string(mfw.totalFrames))
        .cell(mfw.wireBytes.toString())
        .cell(rawTime.toString())
        .cell(mfwTime.toString())
        .cell(util::formatDouble(model::peakSpeedup(0.0, xRaw).speedup, 4))
        .cell(util::formatDouble(model::peakSpeedup(0.0, xMfw).speedup, 4));
  }
  show(report, "compression_occupancy", table);

  // End-to-end: one small-task operating point with MFW on/off. The paper
  // functions occupy 31-69% of a dual PRR, so their streams carry zero
  // fill that MFW removes.
  std::cout << "\n=== End-to-end effect at X_task ~ 0.008 (measured basis, "
               "H=0) ===\n\n";
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 200, util::Bytes{2'000'000});
  for (const bool mfwOn : {false, true}) {
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.forceMiss = true;
    so.mfwCompression = mfwOn;
    const auto result = runtime::runScenario(registry, workload, so);
    std::cout << (mfwOn ? "MFW on : " : "MFW off: ") << "S = " << result.speedup
              << " (PRTR total " << result.prtr.total.toString() << ")\n";
    report.scalar(mfwOn ? "speedup_mfw_on" : "speedup_mfw_off",
                  result.speedup);
  }
  std::cout << "\nMFW shrinks the effective X_PRTR, which raises the "
               "configuration-dominant ceiling exactly as equation (7) "
               "predicts.\n";
}

// Uncertainty propagation and the regime map.
//
// Part 1 puts Monte-Carlo error bars on Figure-9(b) operating points: the
// paper's parameters are point measurements; this shows how robust the
// headline speedups are to realistic jitter in task time, partial-config
// time, and hit ratio.
//
// Part 2 renders the (X_task, H) regime map of the asymptotic speedup at
// the measured X_PRTR -- the whole Figure-5 family as one heatmap.
void runSensitivity(const Context&, obs::BenchReport& report) {
  const double xPrtrMeasured = 19.77 / 1678.04;

  std::cout << "=== Sensitivity of S_inf to 10% parameter jitter (measured "
               "basis, H=0) ===\n\n";
  util::Table table{{"X_task", "S_inf (point)", "mean", "stddev", "p05",
                     "p50", "p95"}};
  model::Perturbation sigma;
  sigma.xTask = 0.10;
  sigma.xPrtr = 0.10;
  sigma.hitRatio = 0.02;
  for (const double xTask : {0.002, xPrtrMeasured, 0.05, 0.5, 2.0}) {
    model::Params p;
    p.xTask = xTask;
    p.xPrtr = xPrtrMeasured;
    p.hitRatio = 0.0;
    const auto r = model::sensitivity(p, sigma, 20'000, 99);
    table.row()
        .cell(util::formatDouble(xTask, 4))
        .cell(util::formatDouble(model::asymptoticSpeedup(p), 4))
        .cell(util::formatDouble(r.speedup.mean(), 4))
        .cell(util::formatDouble(r.speedup.stddev(), 4))
        .cell(util::formatDouble(r.p05, 4))
        .cell(util::formatDouble(r.p50, 4))
        .cell(util::formatDouble(r.p95, 4));
  }
  show(report, "sensitivity", table);
  std::cout << "\nAt the X_task = X_PRTR peak the distribution sits *below* "
               "the point value (perturbations only go downhill), so the "
               "paper's peak numbers are optimistic under jitter; the 2x-cap "
               "region is essentially insensitive.\n\n";

  std::cout << "=== Regime map: S_inf over (X_task, H) at X_PRTR = "
            << util::formatDouble(xPrtrMeasured, 3) << " ===\n\n";
  const int cols = 96;
  const int rowsN = 20;
  std::vector<std::vector<double>> grid;
  for (int r = 0; r < rowsN; ++r) {
    // Top row = H = 1.
    const double h = 1.0 - static_cast<double>(r) / (rowsN - 1);
    std::vector<double> row;
    for (int c = 0; c < cols; ++c) {
      const double xTask = std::pow(
          10.0, -3.0 + 5.0 * static_cast<double>(c) / (cols - 1));  // 1e-3..1e2
      row.push_back(model::idealAsymptote(xTask, xPrtrMeasured, h));
    }
    grid.push_back(std::move(row));
  }
  util::HeatmapOptions ho;
  ho.title = "S_inf (brighter = faster); x: X_task 1e-3..1e2 (log), y: H 1 "
             "(top) .. 0 (bottom)";
  ho.xLabel = "X_task";
  ho.yLabel = "H";
  ho.logScale = true;
  std::cout << util::renderHeatmap(grid, ho);
  std::cout << "\nThe bright band at small X_task widens with H; right of "
               "X_task = 1 every row collapses onto the same <=2x ridge.\n";
}

// == Extensions beyond the paper's experiments.

runtime::HwSwReport runPolicy(runtime::Partitioning policy,
                              const tasks::Workload& workload,
                              const Context& ctx) {
  sim::Simulator sim;
  xd1::Node node{sim};
  auto registry = tasks::makePaperFunctions();
  bitstream::Library library{
      node.floorplan(),
      registry.moduleSpecs(node.floorplan().prr(0).resources(node.device()))};
  runtime::LruCache cache{2};
  runtime::HwSwOptions options;
  options.policy = policy;
  options.hooks.profiler = ctx.profiler;
  runtime::HwSwExecutor executor{node, registry, library, cache, options};
  return executor.run(workload);
}


// HW/SW codesign (the software tasks the paper deferred). Sweeps task size
// and compares the four partitioning policies; the crossover where hardware
// starts paying for its reconfiguration is the system-level reading of the
// paper's X_task axis.
void runHwsw(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makePaperFunctions();

  std::cout << "=== Extension: HW/SW partitioning vs task size (3 cores, "
               "dual PRR, measured basis) ===\n\n";
  util::Table table{{"task bytes", "always-hw", "always-sw",
                     "static-threshold", "adaptive", "adaptive hw-share"}};
  for (const std::uint64_t bytes :
       {10'000ull, 100'000ull, 1'000'000ull, 5'000'000ull, 20'000'000ull,
        100'000'000ull}) {
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 30, util::Bytes{bytes});
    using runtime::Partitioning;
    const auto hw = runPolicy(Partitioning::kAlwaysHardware, workload, ctx);
    const auto sw = runPolicy(Partitioning::kAlwaysSoftware, workload, ctx);
    const auto st = runPolicy(Partitioning::kStaticThreshold, workload, ctx);
    const auto ad = runPolicy(Partitioning::kAdaptive, workload, ctx);
    report.metrics(ad.base.metrics);
    table.row()
        .cell(util::Bytes{bytes}.toString())
        .cell(hw.base.total.toString())
        .cell(sw.base.total.toString())
        .cell(st.base.total.toString())
        .cell(ad.base.total.toString())
        .cell(util::formatDouble(ad.hardwareFraction(), 3));
  }
  show(report, "hwsw_policies", table);
  std::cout << "\nSmall tasks: software wins (a partial reconfiguration "
               "costs ~20 ms). Large tasks: the 42x-faster fabric wins. "
               "Adaptive tracks the better side of the crossover.\n"
               "Caveat visible at 5 MB: the greedy per-call heuristic does "
               "not amortize the one-time 1.678 s full configuration, so "
               "right at the crossover it can commit to hardware too "
               "early -- amortization-aware placement is future work.\n";
}

// Chassis-level scaling. The paper's platform is a parallel reconfigurable
// supercomputer; this runs the same workload on 1..6 blades and shows (a)
// near-linear scaling once the per-blade initial full configuration
// amortizes and (b) the Table-2 "measured" full configuration acting as the
// Amdahl serial term for short workloads.
void runScaling(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makePaperFunctions();

  for (const auto basis : {model::ConfigTimeBasis::kEstimated,
                           model::ConfigTimeBasis::kMeasured}) {
    std::cout << "=== Chassis scaling, " << toString(basis)
              << " configuration times (60 calls x 10 MB, PRTR, H=0) ===\n\n";
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 60, util::Bytes{10'000'000});
    util::Table table{{"blades", "makespan", "speedup", "efficiency",
                       "balance", "reconfigs"}};
    double base = 0.0;
    for (std::size_t blades = 1; blades <= 6; ++blades) {
      hprc::ChassisOptions options;
      options.blades = blades;
      options.threads = ctx.options.threads();
      options.scenario.forceMiss = true;
      options.scenario.basis = basis;
      options.scenario.hooks.profiler = ctx.profiler;
      const hprc::ChassisReport chassis =
          hprc::runChassis(registry, workload, options);
      if (blades == 6) report.metrics(chassis.metrics);
      if (blades == 1) base = chassis.makespan.toSeconds();
      const double speedup = base / chassis.makespan.toSeconds();
      table.row()
          .cell(std::uint64_t{blades})
          .cell(chassis.makespan.toString())
          .cell(util::formatDouble(speedup, 4))
          .cell(util::formatDouble(speedup / static_cast<double>(blades), 4))
          .cell(util::formatDouble(chassis.balance(), 4))
          .cell(chassis.configurations);
    }
    show(report, std::string{"scaling_"} + toString(basis), table);
    std::cout << '\n';
  }
  std::cout << "On the measured basis every blade pays the 1.678 s vendor-API "
               "full configuration up front, capping short-workload scaling "
               "-- a chassis-level consequence of Table 2.\n";
}

// Multitasking / hardware virtualization (paper section 5 outlook). Four
// applications with their own arrival processes share one blade; sweeping
// the offered load and the layout shows how PRR count and configuration
// caching shape latency under multiprogramming.
void runMultitask(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makeExtendedFunctions();

  auto makeApps = [&](std::size_t nApps, util::Time interArrival) {
    std::vector<runtime::AppSpec> apps;
    for (std::size_t a = 0; a < nApps; ++a) {
      runtime::AppSpec app;
      app.name = "app" + std::to_string(a);
      app.meanInterArrival = interArrival;
      for (int i = 0; i < 25; ++i) {
        app.workload.calls.push_back(
            tasks::TaskCall{a % registry.size(), util::Bytes{10'000'000}});
      }
      apps.push_back(std::move(app));
    }
    return apps;
  };

  std::cout << "=== Multitasking: 4 apps x 25 calls x 10 MB, arrival sweep "
               "===\n\n";
  util::Table table{{"inter-arrival", "layout", "H", "configs",
                     "mean latency", "mean queueing", "makespan",
                     "PRR util"}};
  for (const std::int64_t msArrival : {200, 60, 20, 5}) {
    for (const auto layout : {xd1::Layout::kDualPrr, xd1::Layout::kQuadPrr}) {
      runtime::MultitaskOptions options;
      options.layout = layout;
      options.hooks.profiler = ctx.profiler;
      const auto apps =
          makeApps(4, util::Time::milliseconds(msArrival));
      const runtime::MultitaskReport multitask =
          runtime::runMultitask(registry, apps, options);
      report.metrics(multitask.metrics);

      double latency = 0.0;
      double queueing = 0.0;
      for (const auto& app : multitask.apps) {
        latency += app.latencySeconds.mean();
        queueing += app.queueingSeconds.mean();
      }
      latency /= static_cast<double>(multitask.apps.size());
      queueing /= static_cast<double>(multitask.apps.size());
      const std::size_t prrs = layout == xd1::Layout::kDualPrr ? 2 : 4;

      table.row()
          .cell(util::Time::milliseconds(msArrival).toString())
          .cell(toString(layout))
          .cell(util::formatDouble(multitask.hitRatio(), 3))
          .cell(multitask.configurations)
          .cell(util::Time::seconds(latency).toString())
          .cell(util::Time::seconds(queueing).toString())
          .cell(multitask.makespan.toString())
          .cell(util::formatDouble(multitask.prrUtilization(prrs), 3));
    }
  }
  show(report, "multitask_sweep", table);
  std::cout << "\nUnder light load the layouts tie; as the offered load "
               "rises, four distinct apps on two PRRs queue behind each "
               "other's regions while the quad layout gives every app a "
               "home -- the versatility argument of section 5, measured.\n";
}

// Dynamic region allocation with defragmentation (ref [24]). Small modules
// churn on the XC2VP50's 34-column CLB stretch; every 25th step a large
// (16-column) module asks for space. External fragmentation is what kills
// those large requests, and defragmentation is what rescues them -- at the
// price of relocation (partial reconfig) time.
void runDefrag(const Context&, obs::BenchReport& report) {
  const fabric::Device device = fabric::makeXc2vp50();
  const config::Port selectMap = config::makeSelectMap();

  std::cout << "=== Defragmentation ablation: small-module churn + periodic "
               "16-column requests ===\n\n";
  util::Table table{{"policy", "defrag", "large asks", "large failures",
                     "small failures", "moves", "move cost",
                     "mean fragmentation"}};

  for (const auto policy :
       {fabric::FitPolicy::kFirstFit, fabric::FitPolicy::kBestFit}) {
    for (const bool defragBeforeLarge : {false, true}) {
      fabric::ColumnAllocator alloc{device, 16, 34};
      util::Rng rng{9000};
      std::vector<std::uint64_t> ids;
      std::size_t largeAsks = 0;
      std::size_t largeFailures = 0;
      std::size_t smallFailures = 0;
      std::size_t moveCount = 0;
      util::Time moveTime;
      double fragSum = 0.0;
      const int steps = 5000;
      for (int step = 0; step < steps; ++step) {
        if (step % 25 == 24) {
          // The large tenant arrives. Optionally compact first.
          if (defragBeforeLarge) {
            for (const fabric::Move& move : alloc.defragment()) {
              ++moveCount;
              moveTime += selectMap.transferTime(alloc.moveCost(move));
            }
          }
          ++largeAsks;
          if (const auto got = alloc.allocate(16, policy, "large")) {
            alloc.release(got->id);  // it checks in, runs, checks out
          } else {
            ++largeFailures;
          }
        } else if (!ids.empty() && rng.chance(0.52)) {
          const std::size_t pick = rng.below(ids.size());
          alloc.release(ids[pick]);
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const auto width = static_cast<std::size_t>(rng.range(2, 6));
          if (const auto got = alloc.allocate(width, policy, "m")) {
            ids.push_back(got->id);
          } else {
            ++smallFailures;
          }
        }
        fragSum += alloc.fragmentation();
      }
      table.row()
          .cell(toString(policy))
          .cell(defragBeforeLarge ? "before large asks" : "never")
          .cell(std::uint64_t{largeAsks})
          .cell(std::uint64_t{largeFailures})
          .cell(std::uint64_t{smallFailures})
          .cell(std::uint64_t{moveCount})
          .cell(moveTime.toString())
          .cell(util::formatDouble(fragSum / steps, 4));
    }
  }
  show(report, "defrag", table);
  std::cout << "\nWithout compaction the 16-column tenant starves behind "
               "fragmented free space; defragmenting on demand rescues it "
               "for a bounded relocation budget (each move = one partial "
               "reconfiguration of the module's width).\n";
}

// The application suite. The paper's introduction argues PRTR from
// application studies (remote sensing, hyperspectral imaging, target
// recognition); this runs structurally faithful synthetic versions of those
// workloads end to end under FRTR and PRTR, with and without prefetching,
// on the measured-basis XD1.
void runAppsuite(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makeExtendedFunctions();
  util::Rng rng{20260705};
  const auto suite = tasks::makeApplicationSuite(registry, rng);

  std::cout << "=== Application suite on the measured-basis XD1 (dual PRR) "
               "===\n\n";
  util::Table table{{"application", "calls", "payload", "FRTR", "PRTR (LRU)",
                     "S", "H", "S model"}};
  for (const tasks::Application& app : suite) {
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.forceMiss = false;
    so.prepare = runtime::PrepareSource::kQueue;
    const auto result = runtime::runScenario(registry, app.workload, so);
    report.metrics(result.metrics);
    table.row()
        .cell(app.name)
        .cell(app.workload.callCount())
        .cell(app.workload.totalBytes().toString())
        .cell(result.frtr.total.toString())
        .cell(result.prtr.total.toString())
        .cell(util::formatDouble(result.speedup, 4))
        .cell(util::formatDouble(result.prtr.hitRatio(), 3))
        .cell(util::formatDouble(result.modelSpeedup, 4));
  }
  show(report, "appsuite_dual", table);

  std::cout << "\n=== Same suite on the quad-PRR layout (virtualized "
               "library) ===\n\n";
  util::Table quad{{"application", "PRTR (quad)", "S", "H", "configs"}};
  for (const tasks::Application& app : suite) {
    runtime::ScenarioOptions so = scenarioOptions(ctx);
    so.layout = xd1::Layout::kQuadPrr;
    so.forceMiss = false;
    so.prepare = runtime::PrepareSource::kQueue;
    const auto result = runtime::runScenario(registry, app.workload, so);
    quad.row()
        .cell(app.name)
        .cell(result.prtr.total.toString())
        .cell(util::formatDouble(result.speedup, 4))
        .cell(util::formatDouble(result.prtr.hitRatio(), 3))
        .cell(result.prtr.configurations);
  }
  show(report, "appsuite_quad", quad);
  std::cout << "\nPipelined applications have strong module locality, so "
               "PRTR's configuration cache turns most calls into hits; the "
               "branching ATR workload reconfigures most.\n";
}

// Fully dynamic PRTR with right-sized regions vs the paper's fixed layouts.
// Realizes section 5's "partitions must be so fine grained to match the
// task time requirements ... and to increase the system density":
// per-module regions let the whole 8-core library reside at once and shrink
// each configuration to the module's own width.
void runDynamic(const Context& ctx, obs::BenchReport& report) {
  const auto registry = tasks::makeExtendedFunctions();

  std::cout << "=== Right-sized dynamic regions vs fixed PRRs (8-module "
               "round-robin, steady state after the initial full config) "
               "===\n\n";
  util::Table table{{"task bytes", "fixed dual", "fixed quad",
                     "dynamic", "dyn configs", "dyn mean cols"}};
  for (const std::uint64_t bytes :
       {50'000ull, 500'000ull, 5'000'000ull, 50'000'000ull}) {
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 96, util::Bytes{bytes});

    auto fixedSteady = [&](xd1::Layout layout) {
      runtime::ScenarioOptions so = scenarioOptions(ctx);
      so.sides = runtime::ScenarioSides::kPrtrOnly;
      so.layout = layout;
      so.forceMiss = false;
      so.prepare = runtime::PrepareSource::kNone;
      const auto prtr = runtime::runScenario(registry, workload, so).prtr;
      return prtr.total - prtr.initialConfig;
    };
    const util::Time dual = fixedSteady(xd1::Layout::kDualPrr);
    const util::Time quad = fixedSteady(xd1::Layout::kQuadPrr);

    sim::Simulator sim;
    xd1::Node node{sim};
    runtime::DynamicPrtrExecutor dynamic{node, registry};
    const runtime::DynamicReport dyn = dynamic.run(workload);
    const util::Time dynSteady = dyn.base.total - dyn.base.initialConfig;
    report.metrics(dyn.base.metrics);

    table.row()
        .cell(util::Bytes{bytes}.toString())
        .cell(dual.toString())
        .cell(quad.toString())
        .cell(dynSteady.toString())
        .cell(dyn.base.configurations)
        .cell(util::formatDouble(dyn.meanOccupiedColumns, 4));
  }
  show(report, "dynamic_vs_fixed", table);
  std::cout << "\nWith 8 modules over 2 or 4 fixed regions every call "
               "reconfigures a full-size region; right-sized regions hold "
               "the whole library (23 of 34 columns) so steady state has "
               "zero reconfigurations. The advantage shrinks as tasks grow "
               "(the 2x cap reasserts itself).\n";
}

// SEU scrubbing. Sweeps upset rate x scrub period over a dual-PRR region
// and reports detection/repair behaviour and the share of
// configuration-port bandwidth the scrubber consumes -- another tenant of
// the same bandwidth the paper's model prices for reconfiguration.
void runScrubbing(const Context&, obs::BenchReport& report) {
  std::cout << "=== SEU scrubbing over one dual-PRR region (380 frames, "
               "2 s mission) ===\n\n";
  util::Table table{{"upset mean", "scrub period", "injected", "detected",
                     "repairs", "residual", "port busy", "busy %"}};

  const util::Time mission = util::Time::seconds(2.0);
  for (const std::int64_t upsetMs : {500, 100, 20}) {
    for (const std::int64_t scrubMs : {250, 100, 25}) {
      fabric::Floorplan plan = fabric::makeDualPrrLayout();
      bitstream::Builder builder{plan.device()};
      sim::Simulator sim;
      config::ConfigMemory memory{plan.device()};
      memory.enableReadback();
      memory.applyFull(bitstream::parse(builder.buildFull(1), plan.device()));
      sim::SimplexLink link{sim, "HT-in",
                            util::DataRate::megabytesPerSecond(1400)};
      config::IcapController icap{sim, memory, link};

      const bitstream::Bitstream golden =
          builder.buildModulePartial(plan.prr(0), 7);
      memory.applyPartial(bitstream::parse(golden, plan.device()));

      config::Scrubber scrubber{sim,    memory, icap, plan.device(), golden,
                                util::Time::milliseconds(scrubMs)};
      config::UpsetInjector injector{
          sim, memory, plan.prr(0).frames(plan.device()),
          util::Time::milliseconds(upsetMs), 1234};
      sim.spawn(
          scrubber.run(static_cast<std::uint64_t>(2000 / scrubMs)));
      sim.spawn(injector.run(mission));
      sim.run();

      const auto& stats = scrubber.stats();
      const std::size_t residual = config::verifyRegion(memory, golden).size();
      const double busyPct = 100.0 * stats.busyTime().toSeconds() /
                             mission.toSeconds();
      table.row()
          .cell(util::Time::milliseconds(upsetMs).toString())
          .cell(util::Time::milliseconds(scrubMs).toString())
          .cell(injector.injected())
          .cell(stats.upsetsDetected)
          .cell(stats.repairs)
          .cell(std::uint64_t{residual})
          .cell(stats.busyTime().toString())
          .cell(util::formatDouble(busyPct, 3) + "%");
    }
  }
  show(report, "scrubbing", table);
  std::cout << "\nFaster scrubbing shortens the corrupted-exposure window "
               "but eats configuration-port bandwidth (readback 19.9 ms + "
               "repair 19.9 ms per pass at the paper's effective ICAP "
               "rate); at a 25 ms period the port is busy most of the "
               "mission.\n";
}

constexpr Figure kFigures[] = {
    {"table1", "Table 1: hardware functions and resources", false, runTable1},
    {"table2", "Table 2: bitstream sizes and config times", true, runTable2},
    {"fig5", "Fig. 5: asymptotic speedup vs X_task and H", true, runFig5},
    {"fig9a", "Fig. 9(a): speedup, estimated config times", true,
     runFig9<model::ConfigTimeBasis::kEstimated>},
    {"fig9b", "Fig. 9(b): speedup, measured config times", true,
     runFig9<model::ConfigTimeBasis::kMeasured>},
    {"profiles", "Figs. 2-4: FRTR/PRTR execution profiles", true, runProfiles},
    {"flows", "Sec. 2.2: module vs difference flows", false, runFlows},
    {"overheads", "Control/decision overheads vs S_inf", false, runOverheads},
    {"prefetch", "Prefetchers, cache policies, Mattson", false, runPrefetch},
    {"granularity", "PRR granularity vs peak speedup", false, runGranularity},
    {"hwsw", "HW/SW partitioning vs task size", false, runHwsw},
    {"scaling", "Chassis scaling over 1..6 blades", false, runScaling},
    {"whatif", "Newer config ports, device catalog", false, runWhatif},
    {"multitask", "Four apps sharing one blade", false, runMultitask},
    {"compression", "ZRL and MFW bitstream compression", false, runCompression},
    {"defrag", "Column allocation with defragmentation", false, runDefrag},
    {"appsuite", "Synthetic application suite", false, runAppsuite},
    {"sensitivity", "Jitter error bars, regime map", false, runSensitivity},
    {"dynamic", "Right-sized regions vs fixed PRRs", false, runDynamic},
    {"scrubbing", "SEU scrubbing: upset rate x period", false, runScrubbing},
};

/// Attaches a profiler to the process-wide exec seams for its lifetime.
struct Attachment {
  explicit Attachment(prof::Profiler* profiler) { attach(profiler); }
  ~Attachment() { attach(nullptr); }
  Attachment(const Attachment&) = delete;
  Attachment& operator=(const Attachment&) = delete;
  static void attach(prof::Profiler* profiler) {
    exec::Pool::global().setProfiler(profiler);
    exec::ArtifactCache::global().setProfiler(profiler);
  }
};

}  // namespace

std::span<const Figure> figures() { return kFigures; }

const Figure* findFigure(std::string_view name) {
  for (const Figure& figure : kFigures) {
    if (figure.name == name) return &figure;
  }
  return nullptr;
}

int runFigure(const Figure& figure, const Options& options) {
  obs::ChromeTrace trace;
  obs::ChromeTrace* const traced = options.traceRequested() ? &trace : nullptr;
  const std::string name{figure.name};
  obs::BenchReport report{name, options};
  profiled(options, name, [&](prof::Profiler* profiler) {
    figure.run(Context{options, profiler, traced}, report);
    return 0;
  });
  if (traced != nullptr) {
    trace.writeFile(options.tracePath());
    std::cout << "trace written to " << options.tracePath() << '\n';
  }
  return report.finish();
}

int profiled(const Options& options, const std::string& name,
             const std::function<int(prof::Profiler*)>& body) {
  if (!options.profileRequested()) return body(nullptr);
  prof::Profiler profiler;
  const std::string label = "bench." + name;
  int code = 0;
  {
    const Attachment attachment{&profiler};
    const prof::Scope scope{&profiler, label};
    code = body(&profiler);
  }
  std::ofstream out{options.profilePath()};
  if (!out) {
    throw util::Error{"cannot open " + options.profilePath() +
                      " for writing"};
  }
  out << profiler.snapshot().toJson() << '\n';
  return code;
}

}  // namespace prtr::bench
