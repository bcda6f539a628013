#include "obs/timeseries.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace prtr::obs {

TimeSeries::Window& TimeSeries::at(std::int64_t atPs) {
  const std::int64_t clamped = std::max<std::int64_t>(atPs, 0);
  const std::size_t idx = static_cast<std::size_t>(clamped / windowPs_);
  if (idx >= windows_.size()) windows_.resize(idx + 1);
  return windows_[idx];
}

void TimeSeries::fold(const TimeSeries& other) {
  util::require(windowPs_ == other.windowPs_,
                "TimeSeries::fold: window widths differ");
  if (other.windows_.size() > windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    Window& into = windows_[i];
    const Window& from = other.windows_[i];
    into.good += from.good;
    into.bad += from.bad;
    into.completed += from.completed;
    into.failed += from.failed;
    into.shed += from.shed;
    into.retries += from.retries;
    into.breakerOpens += from.breakerOpens;
  }
}

std::uint64_t TimeSeries::totalGood() const noexcept {
  std::uint64_t total = 0;
  for (const Window& w : windows_) total += w.good;
  return total;
}

std::uint64_t TimeSeries::totalBad() const noexcept {
  std::uint64_t total = 0;
  for (const Window& w : windows_) total += w.bad;
  return total;
}

std::vector<CounterTrack> TimeSeries::counterTracks(
    const std::string& prefix) const {
  CounterTrack throughput{prefix + ".throughput", {}};
  CounterTrack shed{prefix + ".shed", {}};
  CounterTrack failed{prefix + ".failed", {}};
  CounterTrack retries{prefix + ".retries", {}};
  CounterTrack breakerOpens{prefix + ".breaker.opens", {}};
  CounterTrack badFraction{prefix + ".bad_fraction", {}};
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    const std::int64_t atPs = static_cast<std::int64_t>(i) * windowPs_;
    throughput.samples.push_back({atPs, static_cast<double>(w.completed)});
    shed.samples.push_back({atPs, static_cast<double>(w.shed)});
    failed.samples.push_back({atPs, static_cast<double>(w.failed)});
    retries.samples.push_back({atPs, static_cast<double>(w.retries)});
    breakerOpens.samples.push_back({atPs, static_cast<double>(w.breakerOpens)});
    const std::uint64_t decided = w.good + w.bad;
    badFraction.samples.push_back(
        {atPs, decided == 0
                   ? 0.0
                   : static_cast<double>(w.bad) / static_cast<double>(decided)});
  }
  return {std::move(throughput), std::move(shed),     std::move(failed),
          std::move(retries),    std::move(breakerOpens),
          std::move(badFraction)};
}

SloResult evaluateSlo(const TimeSeries& series, const SloSpec& spec) {
  SloResult out;
  out.good = series.totalGood();
  out.bad = series.totalBad();
  const std::uint64_t decided = out.good + out.bad;
  if (decided > 0) {
    out.goodFraction =
        static_cast<double>(out.good) / static_cast<double>(decided);
  }
  const double budget = 1.0 - spec.objective;
  if (budget <= 0.0 || series.windows().empty()) {
    out.pass = true;
    return out;
  }
  // Prefix sums so each trailing-window burn is O(1).
  const std::vector<TimeSeries::Window>& windows = series.windows();
  std::vector<std::uint64_t> goodSum(windows.size() + 1, 0);
  std::vector<std::uint64_t> badSum(windows.size() + 1, 0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    goodSum[i + 1] = goodSum[i] + windows[i].good;
    badSum[i + 1] = badSum[i] + windows[i].bad;
  }
  const auto burnOver = [&](std::size_t end, std::uint32_t count) {
    const std::size_t from = end >= count ? end - count : 0;
    const std::uint64_t g = goodSum[end] - goodSum[from];
    const std::uint64_t b = badSum[end] - badSum[from];
    if (g + b == 0) return 0.0;
    const double fraction =
        static_cast<double>(b) / static_cast<double>(g + b);
    return fraction / budget;
  };
  for (std::size_t end = 1; end <= windows.size(); ++end) {
    const double fast = burnOver(end, spec.fastWindows);
    const double slow = burnOver(end, spec.slowWindows);
    out.fastBurnMax = std::max(out.fastBurnMax, fast);
    out.slowBurnMax = std::max(out.slowBurnMax, slow);
    if (fast > spec.fastBurn && slow > spec.slowBurn) ++out.breachWindows;
  }
  out.pass = out.breachWindows == 0;
  return out;
}

}  // namespace prtr::obs
