#include "analyze/checks_fleet.hpp"

#include <algorithm>
#include <cmath>

#include "analyze/spec_util.hpp"

namespace prtr::analyze {

FleetSpec parseFleetSpec(std::istream& in) {
  using namespace specdetail;
  FleetSpec spec;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens.size() != 2) fail(lineNo, "expected '<key> <value>'");
    const std::string& key = tokens[0];
    const std::string& value = tokens[1];
    if (key == "cells") {
      spec.cells = parseU64(value, lineNo);
    } else if (key == "blades") {
      spec.blades = parseU64(value, lineNo);
    } else if (key == "requests") {
      spec.requests = parseU64(value, lineNo);
    } else if (key == "seed") {
      spec.seed = parseU64(value, lineNo);
    } else if (key == "arrival") {
      spec.arrival = value;
    } else if (key == "offered-load") {
      spec.offeredLoad = parseDouble(value, lineNo);
    } else if (key == "users") {
      spec.users = parseU64(value, lineNo);
    } else if (key == "task-affinity") {
      spec.taskAffinity = parseDouble(value, lineNo);
    } else if (key == "payload-kib") {
      spec.payloadKib = parseU64(value, lineNo);
    } else if (key == "payload-spread") {
      spec.payloadSpread = parseDouble(value, lineNo);
    } else if (key == "routing") {
      spec.routing = value;
    } else if (key == "max-attempts") {
      spec.maxAttempts = parseU64(value, lineNo);
    } else if (key == "retry-budget") {
      spec.retryBudget = parseDouble(value, lineNo);
    } else if (key == "retry-burst") {
      spec.retryBurst = parseDouble(value, lineNo);
    } else if (key == "retry-backoff-us") {
      spec.retryBackoffUs = parseDouble(value, lineNo);
    } else if (key == "retry-backoff-factor") {
      spec.retryBackoffFactor = parseDouble(value, lineNo);
    } else if (key == "breaker") {
      spec.breaker = parseBool(value, lineNo);
    } else if (key == "breaker-failures") {
      spec.breakerFailures = parseU64(value, lineNo);
    } else if (key == "breaker-open-us") {
      spec.breakerOpenUs = parseDouble(value, lineNo);
    } else if (key == "breaker-probes") {
      spec.breakerProbes = parseU64(value, lineNo);
    } else if (key == "breaker-probe-successes") {
      spec.breakerProbeSuccesses = parseU64(value, lineNo);
    } else if (key == "slo-factor") {
      spec.sloFactor = parseDouble(value, lineNo);
    } else if (key == "max-queue-depth") {
      spec.maxQueueDepth = parseU64(value, lineNo);
    } else if (key == "hedge") {
      spec.hedge = parseBool(value, lineNo);
    } else if (key == "hedge-quantile") {
      spec.hedgeQuantile = parseDouble(value, lineNo);
    } else if (key == "hedge-min-samples") {
      spec.hedgeMinSamples = parseU64(value, lineNo);
    } else if (key == "hedge-budget") {
      spec.hedgeBudget = parseDouble(value, lineNo);
    } else if (key == "degraded-fraction") {
      spec.degradedFraction = parseDouble(value, lineNo);
    } else if (key == "escalate-after") {
      spec.escalateAfter = parseU64(value, lineNo);
    } else if (key == "recover-after") {
      spec.recoverAfter = parseU64(value, lineNo);
    } else if (key == "rate-limit") {
      spec.rateLimit = parseBool(value, lineNo);
    } else if (key == "rate-limit-rps") {
      spec.rateLimitRps = parseDouble(value, lineNo);
    } else if (key == "rate-limit-burst") {
      spec.rateLimitBurst = parseDouble(value, lineNo);
    } else if (key == "trace") {
      spec.trace = parseBool(value, lineNo);
    } else if (key == "trace-sample-rate") {
      spec.traceSampleRate = parseDouble(value, lineNo);
    } else if (key == "trace-slow-quantile") {
      spec.traceSlowQuantile = parseDouble(value, lineNo);
    } else if (key == "trace-slow-min-samples") {
      spec.traceSlowMinSamples = parseU64(value, lineNo);
    } else if (key == "trace-max-per-cell") {
      spec.traceMaxPerCell = parseU64(value, lineNo);
    } else if (key == "slo") {
      spec.slo = parseBool(value, lineNo);
    } else if (key == "slo-objective") {
      spec.sloObjective = parseDouble(value, lineNo);
    } else if (key == "slo-latency-us") {
      spec.sloLatencyUs = parseDouble(value, lineNo);
    } else if (key == "slo-window-us") {
      spec.sloWindowUs = parseDouble(value, lineNo);
    } else if (key == "slo-fast-windows") {
      spec.sloFastWindows = parseU64(value, lineNo);
    } else if (key == "slo-slow-windows") {
      spec.sloSlowWindows = parseU64(value, lineNo);
    } else if (key == "slo-fast-burn") {
      spec.sloFastBurn = parseDouble(value, lineNo);
    } else if (key == "slo-slow-burn") {
      spec.sloSlowBurn = parseDouble(value, lineNo);
    } else {
      fail(lineNo, "unrecognized key '" + key + "'");
    }
  }
  return spec;
}

void checkFleetOptions(const fleet::FleetOptions& options,
                       DiagnosticSink& sink) {
  if (options.cells < 1 || options.bladesPerCell < 1 ||
      options.bladesPerCell > 6) {
    sink.emit("FL001", "fleet.topology",
              std::to_string(options.cells) + " cell(s) of " +
                  std::to_string(options.bladesPerCell) + " blade(s)");
  }
  if (options.requests < 1) {
    sink.emit("FL002", "fleet.requests", "requests = 0");
  } else if (options.maxCellQuota() >
             fleet::FleetOptions::kMaxRequestsPerCell) {
    // Checked in 64 bits, before the per-cell sequence narrows to 32.
    sink.emit("FL002", "fleet.requests",
              "requests = " + std::to_string(options.requests) + " over " +
                  std::to_string(options.cells) +
                  " cell(s) exceeds 2^32 - 1 per cell");
  }
  if (!(options.offeredLoad > 0.0) || !std::isfinite(options.offeredLoad)) {
    sink.emit("FL003", "fleet.offered-load",
              "offered-load = " + std::to_string(options.offeredLoad));
  }
  if (options.arrival == fleet::ArrivalProcess::kTrace &&
      options.trace.empty()) {
    sink.emit("FL006", "fleet.arrival",
              "arrival is 'trace' but the trace is empty");
  }
  if (options.retry.maxAttempts < 1 ||
      options.retry.maxAttempts > fleet::RetryPolicy::kMaxAttempts ||
      options.retry.budgetFraction < 0.0) {
    sink.emit("FL007", "fleet.retry",
              "max-attempts = " + std::to_string(options.retry.maxAttempts) +
                  ", retry-budget = " +
                  std::to_string(options.retry.budgetFraction));
  }
  if (options.breaker.enabled &&
      (options.breaker.consecutiveFailures < 1 ||
       options.breaker.halfOpenProbes < 1 ||
       options.breaker.probeSuccesses < 1 ||
       options.breaker.probeSuccesses > options.breaker.halfOpenProbes ||
       options.breaker.openDuration <= util::Time::zero())) {
    sink.emit("FL008", "fleet.breaker",
              "failures = " +
                  std::to_string(options.breaker.consecutiveFailures) +
                  ", probes = " +
                  std::to_string(options.breaker.halfOpenProbes) + "/" +
                  std::to_string(options.breaker.probeSuccesses) +
                  ", open = " + options.breaker.openDuration.toString());
  }
  if (options.hedge.enabled &&
      (options.hedge.quantile <= 0.0 || options.hedge.quantile >= 1.0 ||
       options.hedge.budgetFraction < 0.0)) {
    sink.emit("FL009", "fleet.hedge",
              "quantile = " + std::to_string(options.hedge.quantile) +
                  ", hedge-budget = " +
                  std::to_string(options.hedge.budgetFraction));
  }
  if (options.users < 1 || options.taskAffinity < 0.0 ||
      options.taskAffinity > 1.0 || options.payloadSpread < 0.0 ||
      options.payloadSpread >= 1.0 || options.degradedFraction < 0.0 ||
      options.degradedFraction > 1.0 || options.payloadBytes.count() < 2) {
    sink.emit("FL010", "fleet.mix",
              "users = " + std::to_string(options.users) +
                  ", task-affinity = " +
                  std::to_string(options.taskAffinity) +
                  ", payload-spread = " +
                  std::to_string(options.payloadSpread) +
                  ", degraded-fraction = " +
                  std::to_string(options.degradedFraction) + ", payload = " +
                  std::to_string(options.payloadBytes.count()) + " B");
  }
  if (options.admission.maxQueueDepth < 1 ||
      !(options.admission.sloFactor > 0.0)) {
    sink.emit("FL011", "fleet.admission",
              "max-queue-depth = " +
                  std::to_string(options.admission.maxQueueDepth) +
                  ", slo-factor = " +
                  std::to_string(options.admission.sloFactor));
  }
  if (options.offeredLoad >= 1.0 && std::isfinite(options.offeredLoad)) {
    sink.emit("FL012", "fleet.offered-load",
              "offered-load = " + std::to_string(options.offeredLoad) +
                  " saturates every blade");
  }
  if (options.retry.budgetFraction > 0.5) {
    sink.emit("FL013", "fleet.retry-budget",
              "retry-budget = " +
                  std::to_string(options.retry.budgetFraction));
  }
  if (options.degradedFraction > 0.0 && !options.degradedFaults.active()) {
    sink.emit("FL014", "fleet.degraded",
              "degraded-fraction = " +
                  std::to_string(options.degradedFraction) +
                  " but the degraded plan injects nothing");
  }
  if (options.degradedFraction > 0.0 && options.degradedFaults.active() &&
      !options.breaker.enabled) {
    sink.emit("FL015", "fleet.breaker",
              "degraded blades configured with the breaker disabled");
  }
  if (options.rateLimit.enabled &&
      (!(options.rateLimit.ratePerSecond > 0.0) ||
       !(options.rateLimit.burst > 0.0) ||
       !std::isfinite(options.rateLimit.ratePerSecond) ||
       !std::isfinite(options.rateLimit.burst))) {
    sink.emit("FL016", "fleet.rate-limit",
              "rate-limit-rps = " +
                  std::to_string(options.rateLimit.ratePerSecond) +
                  ", rate-limit-burst = " +
                  std::to_string(options.rateLimit.burst));
  }
  if (options.tracing.enabled) {
    if (options.tracing.sampleRate < 0.0 ||
        options.tracing.sampleRate > 1.0 ||
        !std::isfinite(options.tracing.sampleRate)) {
      sink.emit("TR001", "fleet.trace",
                "trace-sample-rate = " +
                    std::to_string(options.tracing.sampleRate));
    }
    if (options.tracing.slowQuantile <= 0.0 ||
        options.tracing.slowQuantile >= 1.0) {
      sink.emit("TR002", "fleet.trace",
                "trace-slow-quantile = " +
                    std::to_string(options.tracing.slowQuantile));
    }
    if (options.tracing.sampleRate > 0.0 &&
        options.tracing.maxSampledPerCell == 0) {
      sink.emit("TR003", "fleet.trace",
                "trace-sample-rate = " +
                    std::to_string(options.tracing.sampleRate) +
                    " with trace-max-per-cell = 0");
    }
    if (options.tracing.sampleRate >= 0.5 && options.requests >= 1'000'000) {
      sink.emit("TR004", "fleet.trace",
                "trace-sample-rate = " +
                    std::to_string(options.tracing.sampleRate) + " over " +
                    std::to_string(options.requests) + " requests");
    }
  }
  if (options.slo.enabled) {
    if (options.slo.objective <= 0.0 || options.slo.objective >= 1.0 ||
        !std::isfinite(options.slo.objective)) {
      sink.emit("SL001", "fleet.slo",
                "slo-objective = " + std::to_string(options.slo.objective));
    }
    if (options.slo.windowPs <= 0 || options.slo.latencyTargetPs < 0) {
      sink.emit("SL002", "fleet.slo",
                "slo-window = " + std::to_string(options.slo.windowPs) +
                    " ps, slo-latency-target = " +
                    std::to_string(options.slo.latencyTargetPs) + " ps");
    }
    if (options.slo.fastWindows < 1 ||
        options.slo.slowWindows < options.slo.fastWindows) {
      sink.emit("SL003", "fleet.slo",
                "slo-fast-windows = " +
                    std::to_string(options.slo.fastWindows) +
                    ", slo-slow-windows = " +
                    std::to_string(options.slo.slowWindows));
    }
    if (!(options.slo.fastBurn > 0.0) || !(options.slo.slowBurn > 0.0) ||
        options.slo.fastBurn < options.slo.slowBurn) {
      sink.emit("SL004", "fleet.slo",
                "slo-fast-burn = " + std::to_string(options.slo.fastBurn) +
                    ", slo-slow-burn = " +
                    std::to_string(options.slo.slowBurn));
    }
    if (options.slo.objective > 0.0 && options.slo.objective < 1.0 &&
        (1.0 - options.slo.objective) *
                static_cast<double>(options.requests) <
            10.0) {
      sink.emit("SL005", "fleet.slo",
                "error budget is " +
                    std::to_string((1.0 - options.slo.objective) *
                                   static_cast<double>(options.requests)) +
                    " requests over the whole run");
    }
  }
}

void checkBladeProfile(const fleet::BladeProfile& profile,
                       DiagnosticSink& sink) {
  for (std::size_t fn = 0; fn < profile.tasks.size(); ++fn) {
    const fleet::TaskProfile& t = profile.tasks[fn];
    const bool freeExec = t.execFixedPs <= 0 && t.execPsPerByte <= 0.0;
    if (freeExec || t.configPs <= 0) {
      sink.emit("FL017", "task " + std::to_string(fn),
                std::string(freeExec ? "zero execution cost"
                                     : "zero reconfiguration cost") +
                    " (configPs = " + std::to_string(t.configPs) +
                    ", execFixedPs = " + std::to_string(t.execFixedPs) +
                    ", execPsPerByte = " + std::to_string(t.execPsPerByte) +
                    ")");
    }
  }
}

fleet::FleetOptions fleetSpecToOptions(const FleetSpec& spec) {
  fleet::FleetOptions options;
  options.cells = static_cast<std::size_t>(spec.cells);
  options.bladesPerCell = static_cast<std::size_t>(spec.blades);
  options.requests = spec.requests;
  options.seed = spec.seed;
  options.arrival = spec.arrival == "fixed-rate"
                        ? fleet::ArrivalProcess::kFixedRate
                    : spec.arrival == "trace"
                        ? fleet::ArrivalProcess::kTrace
                        : fleet::ArrivalProcess::kPoisson;
  options.offeredLoad = spec.offeredLoad;
  options.users = spec.users;
  options.taskAffinity = spec.taskAffinity;
  options.payloadBytes = util::Bytes::kibi(spec.payloadKib);
  options.payloadSpread = spec.payloadSpread;
  options.routing = spec.routing == "least-loaded"
                        ? fleet::RoutingPolicy::kLeastLoaded
                    : spec.routing == "round-robin"
                        ? fleet::RoutingPolicy::kRoundRobin
                        : fleet::RoutingPolicy::kPowerOfTwoChoices;
  // Saturate rather than wrap: 2^32 + 1 must not turn into a valid 1.
  options.retry.maxAttempts = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(spec.maxAttempts, 0xFFFF'FFFFu));
  options.retry.budgetFraction = spec.retryBudget;
  options.retry.burstTokens = spec.retryBurst;
  options.retry.backoffBase = util::Time::picoseconds(
      static_cast<std::int64_t>(spec.retryBackoffUs * 1e6));
  options.retry.backoffFactor = spec.retryBackoffFactor;
  options.breaker.enabled = spec.breaker;
  options.breaker.consecutiveFailures =
      static_cast<std::uint32_t>(spec.breakerFailures);
  options.breaker.openDuration = util::Time::picoseconds(
      static_cast<std::int64_t>(spec.breakerOpenUs * 1e6));
  options.breaker.halfOpenProbes =
      static_cast<std::uint32_t>(spec.breakerProbes);
  options.breaker.probeSuccesses =
      static_cast<std::uint32_t>(spec.breakerProbeSuccesses);
  options.admission.sloFactor = spec.sloFactor;
  options.admission.maxQueueDepth =
      static_cast<std::uint32_t>(spec.maxQueueDepth);
  options.hedge.enabled = spec.hedge;
  options.hedge.quantile = spec.hedgeQuantile;
  options.hedge.minSamples = spec.hedgeMinSamples;
  options.hedge.budgetFraction = spec.hedgeBudget;
  options.degradedFraction = spec.degradedFraction;
  options.escalateAfter = static_cast<std::uint32_t>(spec.escalateAfter);
  options.recoverAfter = static_cast<std::uint32_t>(spec.recoverAfter);
  options.rateLimit.enabled = spec.rateLimit;
  options.rateLimit.ratePerSecond = spec.rateLimitRps;
  options.rateLimit.burst = spec.rateLimitBurst;
  options.tracing.enabled = spec.trace;
  options.tracing.sampleRate = spec.traceSampleRate;
  options.tracing.slowQuantile = spec.traceSlowQuantile;
  options.tracing.slowMinSamples = spec.traceSlowMinSamples;
  options.tracing.maxSampledPerCell = spec.traceMaxPerCell;
  options.slo.enabled = spec.slo;
  options.slo.objective = spec.sloObjective;
  options.slo.latencyTargetPs =
      static_cast<std::int64_t>(spec.sloLatencyUs * 1e6);
  options.slo.windowPs = static_cast<std::int64_t>(spec.sloWindowUs * 1e6);
  options.slo.fastWindows = static_cast<std::uint32_t>(spec.sloFastWindows);
  options.slo.slowWindows = static_cast<std::uint32_t>(spec.sloSlowWindows);
  options.slo.fastBurn = spec.sloFastBurn;
  options.slo.slowBurn = spec.sloSlowBurn;
  return options;
}

DiagnosticSink lintFleetSpec(const FleetSpec& spec) {
  DiagnosticSink sink;
  // String-boundary rules first, mirroring MD011/MD012 and FT004/FT005:
  // the typed options below fall back to defaults so the remaining rules
  // still run.
  if (spec.routing != "least-loaded" && spec.routing != "p2c" &&
      spec.routing != "round-robin") {
    sink.emit("FL004", "routing", "unknown routing '" + spec.routing + "'");
  }
  if (spec.arrival != "poisson" && spec.arrival != "fixed-rate" &&
      spec.arrival != "trace") {
    sink.emit("FL005", "arrival", "unknown arrival '" + spec.arrival + "'");
  }
  // max-attempts is range-checked as written, before the narrowing cast,
  // so the message carries the value the spec actually holds.
  fleet::FleetOptions options = fleetSpecToOptions(spec);
  if (spec.maxAttempts > fleet::RetryPolicy::kMaxAttempts) {
    sink.emit("FL007", "fleet.retry",
              "max-attempts = " + std::to_string(spec.maxAttempts) +
                  " exceeds the 8-bit attempt counter (at most " +
                  std::to_string(fleet::RetryPolicy::kMaxAttempts) + ")");
    options.retry.maxAttempts = fleet::RetryPolicy{}.maxAttempts;
  }
  checkFleetOptions(options, sink);
  return sink;
}

}  // namespace prtr::analyze
