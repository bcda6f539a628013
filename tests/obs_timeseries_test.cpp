// obs::TimeSeries contract tests: dense window growth indexed by simulated
// time, element-wise fold across cells, counter-track rendering, and the
// multi-window SLO burn-rate evaluation (fast window catches cliffs, slow
// window suppresses blips, both must trip for a breach).
#include <gtest/gtest.h>

#include "obs/timeseries.hpp"
#include "util/error.hpp"

namespace prtr {
namespace {

/// Series with `windowPs` = 100 where window i received `good[i]` good and
/// `bad[i]` bad decisions.
obs::TimeSeries makeSeries(const std::vector<std::uint64_t>& good,
                           const std::vector<std::uint64_t>& bad) {
  obs::TimeSeries series{100};
  for (std::size_t i = 0; i < good.size(); ++i) {
    const std::int64_t atPs = static_cast<std::int64_t>(i) * 100;
    series.at(atPs).good = good[i];
    series.at(atPs).bad = i < bad.size() ? bad[i] : 0;
  }
  return series;
}

// A window is its seven counters and nothing else: no per-window latency
// histogram (fleet latency lives in the fleet.latency_ps histogram).
static_assert(sizeof(obs::TimeSeries::Window) == 7 * sizeof(std::uint64_t));

TEST(TimeSeriesTest, AtGrowsDenselyAndClampsNegativeTime) {
  obs::TimeSeries series{100};
  EXPECT_TRUE(series.empty());
  series.at(250).completed = 7;
  ASSERT_EQ(series.windows().size(), 3u) << "windows 0..2 must exist";
  EXPECT_EQ(series.windows()[2].completed, 7u);
  EXPECT_EQ(series.windows()[0].completed, 0u);
  series.at(-5).shed = 1;  // pre-epoch events land in window 0
  EXPECT_EQ(series.windows()[0].shed, 1u);
  EXPECT_EQ(series.windowPs(), 100);
}

TEST(TimeSeriesTest, FoldAccumulatesElementWiseAndGrows) {
  obs::TimeSeries into{100};
  into.at(0).good = 1;
  obs::TimeSeries from{100};
  from.at(0).good = 2;
  from.at(150).bad = 3;
  from.at(150).retries = 4;
  into.fold(from);
  ASSERT_EQ(into.windows().size(), 2u);
  EXPECT_EQ(into.windows()[0].good, 3u);
  EXPECT_EQ(into.windows()[1].bad, 3u);
  EXPECT_EQ(into.windows()[1].retries, 4u);
  EXPECT_EQ(into.totalGood(), 3u);
  EXPECT_EQ(into.totalBad(), 3u);
}

TEST(TimeSeriesTest, FoldRejectsMismatchedWindowWidths) {
  obs::TimeSeries a{100};
  obs::TimeSeries b{200};
  EXPECT_THROW(a.fold(b), util::DomainError);
}

TEST(TimeSeriesTest, CounterTracksRenderOneSamplePerWindow) {
  obs::TimeSeries series{100};
  series.at(0).completed = 5;
  series.at(0).good = 4;
  series.at(0).bad = 1;
  series.at(120).shed = 2;  // no decided traffic: bad_fraction must be 0
  const auto tracks = series.counterTracks("fleet");
  ASSERT_EQ(tracks.size(), 6u);
  EXPECT_EQ(tracks[0].name, "fleet.throughput");
  EXPECT_EQ(tracks[1].name, "fleet.shed");
  EXPECT_EQ(tracks[5].name, "fleet.bad_fraction");
  ASSERT_EQ(tracks[0].samples.size(), 2u);
  EXPECT_EQ(tracks[0].samples[0].at_ps, 0);
  EXPECT_EQ(tracks[0].samples[1].at_ps, 100);
  EXPECT_DOUBLE_EQ(tracks[0].samples[0].value, 5.0);
  EXPECT_DOUBLE_EQ(tracks[1].samples[1].value, 2.0);
  EXPECT_DOUBLE_EQ(tracks[5].samples[0].value, 0.2);
  EXPECT_DOUBLE_EQ(tracks[5].samples[1].value, 0.0);
}

TEST(SloEvaluateTest, EmptySeriesAndExhaustedBudgetBothPass) {
  const obs::SloSpec spec;  // objective 0.999
  const obs::SloResult empty = evaluateSlo(obs::TimeSeries{100}, spec);
  EXPECT_TRUE(empty.pass);
  EXPECT_EQ(empty.breachWindows, 0u);
  EXPECT_DOUBLE_EQ(empty.goodFraction, 1.0) << "no traffic counts as good";

  obs::SloSpec degenerate;
  degenerate.objective = 1.0;  // zero error budget: the gate disables itself
  const obs::SloResult noBudget =
      evaluateSlo(makeSeries({0, 0}, {10, 10}), degenerate);
  EXPECT_TRUE(noBudget.pass);
  EXPECT_DOUBLE_EQ(noBudget.goodFraction, 0.0);
}

TEST(SloEvaluateTest, AllGoodTrafficPassesWithZeroBurn) {
  obs::SloSpec spec;
  spec.objective = 0.9;
  const obs::SloResult result =
      evaluateSlo(makeSeries({100, 100, 100, 100}, {}), spec);
  EXPECT_TRUE(result.pass);
  EXPECT_EQ(result.good, 400u);
  EXPECT_EQ(result.bad, 0u);
  EXPECT_DOUBLE_EQ(result.goodFraction, 1.0);
  EXPECT_DOUBLE_EQ(result.fastBurnMax, 0.0);
  EXPECT_DOUBLE_EQ(result.slowBurnMax, 0.0);
}

TEST(SloEvaluateTest, SustainedBadnessBreachesBothWindows) {
  obs::SloSpec spec;
  spec.objective = 0.9;  // budget 0.1
  spec.fastWindows = 1;
  spec.slowWindows = 4;
  spec.fastBurn = 5.0;
  spec.slowBurn = 3.0;
  // Every window is all-bad: burn = 1.0 / 0.1 = 10 in both windows.
  const obs::SloResult result =
      evaluateSlo(makeSeries({0, 0, 0, 0}, {10, 10, 10, 10}), spec);
  EXPECT_FALSE(result.pass);
  EXPECT_EQ(result.breachWindows, 4u);
  EXPECT_DOUBLE_EQ(result.fastBurnMax, 10.0);
  EXPECT_DOUBLE_EQ(result.slowBurnMax, 10.0);
  EXPECT_DOUBLE_EQ(result.goodFraction, 0.0);
}

TEST(SloEvaluateTest, BriefBlipTripsFastWindowButNotSlow) {
  obs::SloSpec spec;
  spec.objective = 0.9;  // budget 0.1
  spec.fastWindows = 1;
  spec.slowWindows = 4;
  spec.fastBurn = 5.0;
  spec.slowBurn = 3.0;
  // One all-bad window surrounded by heavy good traffic: the fast burn
  // spikes to 10 but the trailing slow window dilutes the blip below 3, so
  // no breach is recorded — the whole point of the multi-window alert.
  const obs::SloResult result =
      evaluateSlo(makeSeries({100, 0, 100, 100}, {0, 10, 0, 0}), spec);
  EXPECT_TRUE(result.pass);
  EXPECT_EQ(result.breachWindows, 0u);
  EXPECT_DOUBLE_EQ(result.fastBurnMax, 10.0);
  EXPECT_LT(result.slowBurnMax, 3.0);
  EXPECT_GT(result.slowBurnMax, 0.0);
}

TEST(SloEvaluateTest, BurnIsBadFractionOverBudget) {
  obs::SloSpec spec;
  spec.objective = 0.99;  // budget 0.01
  spec.fastWindows = 1;
  spec.slowWindows = 1;
  const obs::SloResult result = evaluateSlo(makeSeries({95}, {5}), spec);
  EXPECT_NEAR(result.fastBurnMax, 0.05 / 0.01, 1e-9);
  EXPECT_NEAR(result.slowBurnMax, 0.05 / 0.01, 1e-9);
  EXPECT_DOUBLE_EQ(result.goodFraction, 0.95);
}

}  // namespace
}  // namespace prtr
