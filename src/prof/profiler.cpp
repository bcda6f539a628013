#include "prof/profiler.hpp"

#include <chrono>
#include <sstream>

namespace prtr::prof {
namespace {

void writeSummaryJson(util::json::Writer& w, const obs::HistogramSummary& h) {
  w.beginObject();
  w.key("count").value(h.count);
  w.key("total").value(h.sum);
  w.key("min").value(h.min);
  w.key("max").value(h.max);
  w.key("p50").value(h.p50());
  w.key("p95").value(h.p95());
  w.endObject();
}

}  // namespace

std::string ProfileSnapshot::toString() const {
  std::ostringstream os;
  for (const auto& [label, h] : phases) {
    os << label << " count=" << h.count << " total=" << h.sum
       << " min=" << h.min << " max=" << h.max
       << " p50=" << util::json::formatNumber(h.p50())
       << " p95=" << util::json::formatNumber(h.p95()) << '\n';
  }
  for (const auto& [label, value] : counts) {
    os << label << ' ' << value << '\n';
  }
  for (const auto& [label, h] : samples) {
    os << label << " count=" << h.count << " min=" << h.min
       << " max=" << h.max << " p50=" << util::json::formatNumber(h.p50())
       << " p95=" << util::json::formatNumber(h.p95()) << '\n';
  }
  return os.str();
}

void ProfileSnapshot::writeJson(util::json::Writer& w) const {
  w.beginObject();
  w.key("phases").beginObject();
  for (const auto& [label, h] : phases) {
    w.key(label);
    writeSummaryJson(w, h);
  }
  w.endObject();
  w.key("counts").beginObject();
  for (const auto& [label, value] : counts) w.key(label).value(value);
  w.endObject();
  w.key("samples").beginObject();
  for (const auto& [label, h] : samples) {
    w.key(label);
    writeSummaryJson(w, h);
  }
  w.endObject();
  w.endObject();
}

std::string ProfileSnapshot::toJson() const {
  std::ostringstream os;
  util::json::Writer w{os};
  writeJson(w);
  return os.str();
}

std::int64_t Profiler::nowNanoseconds() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::record(std::string_view label, std::int64_t elapsed_ns) {
  const std::scoped_lock lock{mutex_};
  state_.phases[std::string{label}].observe(elapsed_ns);
}

void Profiler::count(std::string_view label, std::uint64_t delta) {
  const std::scoped_lock lock{mutex_};
  state_.counts[std::string{label}] += delta;
}

void Profiler::sample(std::string_view label, std::int64_t value) {
  const std::scoped_lock lock{mutex_};
  state_.samples[std::string{label}].observe(value);
}

ProfileSnapshot Profiler::snapshot() const {
  const std::scoped_lock lock{mutex_};
  return state_;
}

}  // namespace prtr::prof
