// Host-side helpers: order statistics, memory probes, output digests, and
// the Chrome-trace span recorder of the traced run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "common.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double currentRssMb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string digestHex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void SpanRecorder::record(const std::string& name, const std::string& category,
                          Clock::time_point start, Clock::time_point end) {
  const std::size_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto [it, inserted] =
      threads_.emplace(self, static_cast<std::uint32_t>(threads_.size() + 1));
  spans_.push_back(Span{name, category, nsBetween(origin_, start),
                        nsBetween(start, end), it->second});
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_.size();
}

void SpanRecorder::writeChromeTrace(const std::string& path,
                                    const std::string& metadata) const {
  std::ofstream out{path};
  prtr::util::require(out.good(), "perfbench: cannot write " + path);
  const std::lock_guard<std::mutex> lock{mutex_};
  prtr::util::json::Writer w{out};
  w.beginObject().key("traceEvents").beginArray();
  for (const Span& s : spans_) {
    w.beginObject()
        .key("name").value(s.name)
        .key("cat").value(s.category)
        .key("ph").value("X")
        .key("ts").value(static_cast<double>(s.startNs) / 1e3)
        .key("dur").value(static_cast<double>(s.durNs) / 1e3)
        .key("pid").value(std::uint64_t{1})
        .key("tid").value(std::uint64_t{s.thread})
        .endObject();
  }
  w.endArray().key("displayTimeUnit").value("ms");
  w.key("metadata").raw(metadata);
  w.endObject();
  out << '\n';
}

}  // namespace perfbench
