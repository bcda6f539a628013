#include "bench/options.hpp"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <thread>

#include "util/error.hpp"

namespace prtr::bench {

std::uint64_t parseUnsigned(std::string_view bench, std::string_view flag,
                            std::string_view text) {
  // from_chars takes no '+', whitespace or (for an unsigned target) '-', so
  // only digits get through; it reports overflow as an error too.
  std::uint64_t parsed = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  util::require(!text.empty() && error == std::errc{} && stop == end,
                std::string{bench} + ": " + std::string{flag} +
                    " requires an unsigned 64-bit integer, got '" +
                    std::string{text} + "'");
  return parsed;
}

int usageError(std::string_view message, std::string_view usage) {
  std::cerr << message << "\n\n" << usage;
  return 2;
}

Options Options::parse(std::string bench, int argc,
                       const char* const* argv) {
  Options options;
  options.bench_ = std::move(bench);
  const std::string& name = options.bench_;
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads_ = std::clamp<std::size_t>(hw, 1, kMaxThreads);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      options.help_ = true;
      continue;
    }
    std::string* const path = arg == "--json"      ? &options.json_
                              : arg == "--trace"   ? &options.trace_
                              : arg == "--profile" ? &options.profile_
                                                   : nullptr;
    if (path == nullptr && arg != "--threads" && arg != "--seed") {
      options.rest_.push_back(arg);
      continue;
    }
    util::require(i + 1 < argc, name + ": " + arg + " requires a value");
    const std::string value = argv[++i];
    if (path != nullptr) {
      util::require(!value.empty(), name + ": " + arg + " requires a path");
      *path = value;
    } else if (arg == "--threads") {
      const std::uint64_t parsed = parseUnsigned(name, arg, value);
      util::require(parsed >= 1 && parsed <= kMaxThreads,
                    name + ": --threads must be in [1, " +
                        std::to_string(kMaxThreads) + "], got " + value);
      options.threads_ = static_cast<std::size_t>(parsed);
    } else {
      options.seed_ = parseUnsigned(name, arg, value);
      options.seedSet_ = true;
    }
  }
  return options;
}

std::string Options::usage(const std::string& bench,
                           const std::string& extra) {
  std::string text = "usage: " + bench + " [options]\n\n";
  text +=
      "  --json <path>      write the machine-readable report JSON\n"
      "  --trace <path>     export a Chrome trace of the simulated run\n"
      "  --profile <path>   export a host-side profiler snapshot\n"
      "  --threads <n>      worker threads for parallel sweeps (default: "
      "hardware)\n"
      "  --seed <n>         override the deterministic RNG seed\n"
      "  --help             print this message and exit\n";
  if (!extra.empty()) {
    text += "\n";
    text += extra;
    if (text.back() != '\n') text += '\n';
  }
  return text;
}

bool Options::helpRequestedAndHandled(const std::string& extra) const {
  if (!help_) return false;
  std::cout << usage(bench_, extra);
  return true;
}

void Options::requireNoRest() const {
  util::require(rest_.empty(), bench_ + ": unknown argument '" +
                                   (rest_.empty() ? "" : rest_.front()) + "'");
}

void Options::reject(std::initializer_list<std::string_view> flags,
                     std::string_view who) const {
  for (const std::string_view flag : flags) {
    const bool given = flag == "--json"      ? jsonRequested()
                       : flag == "--trace"   ? traceRequested()
                       : flag == "--profile" ? profileRequested()
                       : flag == "--seed"    ? seedSet_
                                             : false;
    util::require(!given, std::string{who} + " does not take " +
                              std::string{flag});
  }
}

}  // namespace prtr::bench
