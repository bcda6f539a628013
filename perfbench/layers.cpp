// Per-layer unit costs and the count x unit-cost ledger of the traced run.
//
// Every unit cost times one public library call in a loop, from outside:
// the DES kernel's delay loop, partial-bitstream synthesis, parse and CRC,
// the configuration-memory apply, and the metrics registry's record paths.
// Each is the median of several repetitions, so one preempted repetition
// does not move it.
#include <array>
#include <iostream>

#include "bitstream/builder.hpp"
#include "bitstream/parser.hpp"
#include "common.hpp"
#include "config/memory.hpp"
#include "fabric/floorplan.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/crc32.hpp"
#include "util/table.hpp"

namespace perfbench {
namespace {

using namespace prtr;

constexpr int kRepetitions = 5;

/// Median over repetitions of `perRep()`, which returns one unit cost.
template <typename Fn>
double medianOf(Fn&& perRep) {
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) samples.push_back(perRep());
  return quantile(samples, 0.5);
}

/// ns per call of `fn`, over `iterations` back-to-back calls.
template <typename Fn>
double nsPerCall(std::size_t iterations, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  return static_cast<double>(nsBetween(start, Clock::now())) /
         static_cast<double>(iterations);
}

sim::Process delayLoop(sim::Simulator& sim, std::int64_t hops) {
  for (std::int64_t i = 0; i < hops; ++i) {
    co_await sim.delay(util::Time::nanoseconds(1));
  }
}

double mbPerS(double bytes, double nsPerCallValue) {
  return bytes / nsPerCallValue * 1e3;  // bytes/ns -> MB/s (1e6 B)
}

// Results are folded into a volatile sink so the timed calls stay live.
volatile std::uint64_t gSink = 0;

}  // namespace

UnitCosts measureUnitCosts(SpanRecorder& spans) {
  UnitCosts c;
  timed(spans, "unit.sim.kernel", "unit", [&] {
    c.kernelNsPerEvent = medianOf([] {
      constexpr std::int64_t kHops = 200'000;
      sim::Simulator sim;
      sim.spawn(delayLoop(sim, kHops));
      const Clock::time_point start = Clock::now();
      sim.run();
      const double ns = static_cast<double>(nsBetween(start, Clock::now()));
      return ns / static_cast<double>(sim.eventsProcessed());
    });
  });

  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  const bitstream::Bitstream partial = builder.buildModulePartial(plan.prr(0), 7);
  const double bytes = static_cast<double>(partial.size().count());
  c.partialBytes = bytes;
  timed(spans, "unit.bitstream.build", "unit", [&] {
    c.buildMbPerS = mbPerS(bytes, medianOf([&] {
      return nsPerCall(8, [&](std::size_t i) {
        gSink = gSink + builder.buildModulePartial(plan.prr(0), 7 + i % 2)
                            .size().count();
      });
    }));
  });
  timed(spans, "unit.bitstream.parse", "unit", [&] {
    c.parseMbPerS = mbPerS(bytes, medianOf([&] {
      return nsPerCall(16, [&](std::size_t) {
        gSink = gSink + bitstream::parse(partial, plan.device()).writes.size();
      });
    }));
  });
  timed(spans, "unit.util.crc", "unit", [&] {
    c.crcMbPerS = mbPerS(bytes, medianOf([&] {
      return nsPerCall(64, [&](std::size_t) {
        gSink = gSink + util::Crc32::of(partial.bytes());
      });
    }));
  });
  timed(spans, "unit.config.apply", "unit", [&] {
    const bitstream::ParsedStream full =
        bitstream::parse(builder.buildFull(1), plan.device());
    const bitstream::ParsedStream parsed = bitstream::parse(partial, plan.device());
    config::ConfigMemory memory{plan.device()};
    c.applyFullNs = medianOf([&] {
      return nsPerCall(16, [&](std::size_t) { memory.applyFull(full); });
    });
    c.applyMbPerS = mbPerS(bytes, medianOf([&] {
      return nsPerCall(256, [&](std::size_t) { memory.applyPartial(parsed); });
    }));
    gSink = gSink + memory.framesWritten();
  });

  timed(spans, "unit.obs.record", "unit", [&] {
    obs::MetricTable& t = obs::MetricTable::global();
    const std::array<obs::CounterId, 4> ids{
        t.counter("perfbench.unit.a"), t.counter("perfbench.unit.b"),
        t.counter("perfbench.unit.c"), t.counter("perfbench.unit.d")};
    const obs::HistogramId hist = t.histogram("perfbench.unit.lat_ps");
    obs::Registry reg;
    c.addNs = medianOf([&] {
      return nsPerCall(2'000'000, [&](std::size_t i) { reg.add(ids[i & 3]); });
    });
    c.observeNs = medianOf([&] {
      return nsPerCall(2'000'000, [&](std::size_t i) {
        reg.observe(hist, static_cast<std::int64_t>((i * 33) % 100'000 + 1));
      });
    });
    gSink = gSink + reg.snapshot().counterOr("perfbench.unit.a");
  });
  return c;
}

void reportUnitCosts(const UnitCosts& c, Outcome& out) {
  out.set("sim.kernel_ns_per_event", c.kernelNsPerEvent, "ns");
  out.set("bitstream.build_mb_per_s", c.buildMbPerS, "MB/s");
  out.set("bitstream.parse_mb_per_s", c.parseMbPerS, "MB/s");
  out.set("util.crc_mb_per_s", c.crcMbPerS, "MB/s");
  out.set("config.apply_mb_per_s", c.applyMbPerS, "MB/s");
  out.set("obs.add_ns", c.addNs, "ns");
  out.set("obs.observe_ns", c.observeNs, "ns");
}

void finishLedger(const std::string& workload, Outcome& out) {
  double explained = 0.0;
  for (const LedgerRow& row : out.ledger) explained += row.totalNs();
  const double base = out.ledgerBaseNs;
  const double residual = base - explained;
  const double residualFrac = base > 0.0 ? residual / base : 0.0;
  out.set("ledger.residual_frac", residualFrac, "fraction");

  auto share = [&](double ns) {
    return base > 0.0 ? util::formatDouble(100.0 * ns / base, 3) + "%" : "-";
  };
  util::Table table{{"layer", "counted", "count", "unit cost (ns)",
                     "sum (ms)", "share of base"}};
  for (const LedgerRow& row : out.ledger) {
    table.row()
        .cell(row.layer)
        .cell(row.what)
        .cell(util::formatDouble(row.count, 6))
        .cell(util::formatDouble(row.unitNs, 5))
        .cell(util::formatDouble(row.totalNs() / 1e6, 5))
        .cell(share(row.totalNs()));
  }
  table.row()
      .cell("residual")
      .cell("not explained by the rows above")
      .cell("-")
      .cell("-")
      .cell(util::formatDouble(residual / 1e6, 5))
      .cell(share(residual));
  std::cout << "\nledger (" << workload << "): base = measured loop wall = "
            << util::formatDouble(base / 1e6, 6) << " ms\n";
  table.print(std::cout);
}

}  // namespace perfbench
