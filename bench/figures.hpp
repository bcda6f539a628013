#pragma once
/// \file figures.hpp
/// The figure registry behind `prtr-bench <figure>|all`. Each reproducible
/// result -- the paper's Tables 1-2 and Figs. 2-5 and 9, and the studies
/// built on them -- is one Figure: its options (the shared bench::Options),
/// its run, and its statistics (the obs::BenchReport it fills). A run
/// prints its tables to stdout and registers them on the report; prtr-bench
/// owns everything else once: flag parsing, --help, the JSON document, the
/// trace file and the host profile. profiled() is that host-profile path,
/// shared with the sweep, chaos and fleet gate benches.

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "bench/options.hpp"
#include "obs/bench_io.hpp"
#include "obs/trace_export.hpp"
#include "prof/profiler.hpp"

namespace prtr::bench {

/// What a figure run sees. Each pointer is null unless its flag was given.
struct Context {
  const Options& options;
  /// --profile: figures pass it into the hooks of every run they build.
  prof::Profiler* profiler = nullptr;
  /// --trace (tracing figures only): runFigure() writes it after the run.
  obs::ChromeTrace* trace = nullptr;
};

struct Figure {
  std::string_view name;
  std::string_view summary;
  bool traces = false;  ///< fills Context::trace; else --trace is rejected
  void (*run)(const Context&, obs::BenchReport&) = nullptr;
};

/// Every figure, in the order `prtr-bench all` runs them.
[[nodiscard]] std::span<const Figure> figures();

/// The figure called `name`, or null.
[[nodiscard]] const Figure* findFigure(std::string_view name);

/// Runs `figure` under `options` as prtr-bench does: profiled(), then the
/// --trace document (tracing figures only; the caller rejects --trace
/// otherwise) and the --json report are written. Returns the exit code.
int runFigure(const Figure& figure, const Options& options);

/// Runs `body(profiler)` and returns its exit code. With `--profile`, the
/// profiler is attached to the global exec pool and artifact cache while
/// `body` runs, the whole run is timed as the phase `bench.<name>`, and the
/// snapshot is written to the `--profile` path afterwards (util::Error when
/// it cannot be opened). Without it, `body` gets null and nothing is
/// attached. Call it after any exec::Pool::setGlobalThreads.
int profiled(const Options& options, const std::string& name,
             const std::function<int(prof::Profiler*)>& body);

}  // namespace prtr::bench
