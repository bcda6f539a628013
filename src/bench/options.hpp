#pragma once
/// \file options.hpp
/// One command-line vocabulary for every bench binary and the prtrsim CLI.
///
/// Options is the single parser: it consumes the shared flags, leaves
/// everything it does not recognise in `rest` (so prtr-bench can take its
/// figure name, bench_micro can forward to google-benchmark and prtrsim can
/// layer its domain flags on top), and renders one uniform usage block.
///
/// The shared vocabulary:
///
///   --json <path>      write the machine-readable report/result JSON
///   --trace <path>     export a Chrome trace of the simulated run
///   --profile <path>   export a host-side prof::Profiler snapshot
///   --threads <n>      worker threads for parallel sweeps (default: hw)
///   --seed <n>         override the deterministic RNG seed
///   --help             print the usage block and exit 0
///
/// Numbers are checked: digits only, no sign, no overflow, and `--threads`
/// at most kMaxThreads. Every bench main turns a util::DomainError from
/// parsing into usageError(): the message and usage on stderr, exit 2.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace prtr::bench {

/// Largest `--threads` value parse() accepts (and the cap on the hardware
/// default): a typo must not ask the OS for millions of threads.
inline constexpr std::size_t kMaxThreads = 1024;

/// Parses `text` as a decimal unsigned 64-bit integer. Rejects an empty
/// string, a sign, any non-digit and overflow with a util::DomainError
/// naming `bench` and `flag`.
[[nodiscard]] std::uint64_t parseUnsigned(std::string_view bench,
                                          std::string_view flag,
                                          std::string_view text);

/// Prints `message` and then `usage` to stderr; returns 2, the exit code of
/// a usage error in every bench binary.
int usageError(std::string_view message, std::string_view usage);

class Options {
 public:
  /// Parses the shared flags out of argv. `bench` names the binary in
  /// diagnostics. Unrecognised arguments are kept, in order, in rest().
  /// Throws util::DomainError when a flag is missing its value, a path is
  /// empty, `--threads` is not in [1, kMaxThreads], or `--seed` is not an
  /// unsigned integer.
  static Options parse(std::string bench, int argc, const char* const* argv);

  /// The uniform usage block: "usage:" line, the shared flags, then
  /// `extra` (one "  --flag ...  description" line per domain flag) when
  /// the caller layers its own vocabulary on top.
  static std::string usage(const std::string& bench,
                           const std::string& extra = {});

  [[nodiscard]] const std::string& jsonPath() const noexcept { return json_; }
  [[nodiscard]] const std::string& tracePath() const noexcept { return trace_; }
  [[nodiscard]] const std::string& profilePath() const noexcept {
    return profile_;
  }
  [[nodiscard]] bool jsonRequested() const noexcept { return !json_.empty(); }
  [[nodiscard]] bool traceRequested() const noexcept { return !trace_.empty(); }
  [[nodiscard]] bool profileRequested() const noexcept {
    return !profile_.empty();
  }

  /// Worker threads: the `--threads` value, defaulting to the hardware
  /// concurrency. Always in [1, kMaxThreads].
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// True when `--seed` appeared; seedOr() then returns its value. Benches
  /// with a fixed reference seed use seedOr(kDefault) so the published
  /// numbers stay reproducible unless the user asks otherwise.
  [[nodiscard]] bool seedSet() const noexcept { return seedSet_; }
  [[nodiscard]] std::uint64_t seedOr(std::uint64_t fallback) const noexcept {
    return seedSet_ ? seed_ : fallback;
  }

  /// True when `--help` appeared. The caller prints usage() (plus any
  /// domain flags) and exits 0; helpRequestedAndHandled() does exactly
  /// that for callers whose usage line is just the binary name.
  [[nodiscard]] bool helpRequested() const noexcept { return help_; }

  /// Prints usage() to stdout when --help was given. Returns true when it
  /// did (the caller returns 0 from main).
  [[nodiscard]] bool helpRequestedAndHandled(const std::string& extra = {}) const;

  /// Arguments parse() did not recognise, in their original order.
  [[nodiscard]] const std::vector<std::string>& rest() const noexcept {
    return rest_;
  }

  /// Throws util::DomainError unless rest() is empty: for binaries that
  /// take no argument beyond the shared vocabulary.
  void requireNoRest() const;

  /// Throws util::DomainError ("<who> does not take --flag") for the first
  /// of `flags` that was given. Each entry is one of "--json", "--trace",
  /// "--profile" or "--seed": the shared flags the caller does not honour.
  void reject(std::initializer_list<std::string_view> flags,
              std::string_view who) const;

 private:
  std::string bench_;
  std::string json_;
  std::string trace_;
  std::string profile_;
  std::size_t threads_ = 1;
  std::uint64_t seed_ = 0;
  bool seedSet_ = false;
  bool help_ = false;
  std::vector<std::string> rest_;
};

}  // namespace prtr::bench
