// trace::CellRecorder driven directly, without the fleet: a shed, a
// failure after a retry whose budget was denied, a hedge win that clips
// the still-queued primary at the terminal decision, and slot reuse (a
// recycled slot starts empty; a stale or mis-keyed call trips the owner
// check).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "obs/trace_export.hpp"
#include "trace/recorder.hpp"
#include "util/error.hpp"
#include "verify/trace_load.hpp"

namespace prtr {
namespace {

using trace::CellRecorder;
using trace::MarkKind;
using trace::SpanKind;

trace::TracePolicy keepEverything() {
  trace::TracePolicy policy;
  policy.enabled = true;
  policy.sampleRate = 1.0;
  return policy;
}

std::vector<MarkKind> markKinds(const trace::CellTrace& cell,
                                const trace::RequestTrace& rt) {
  std::vector<MarkKind> kinds;
  for (const trace::MarkRec& m : cell.marksOf(rt)) kinds.push_back(m.kind);
  return kinds;
}

/// The span of `kind` for `attempt`; fails the test when absent.
trace::SpanRec spanOf(const trace::CellTrace& cell,
                      const trace::RequestTrace& rt, SpanKind kind,
                      std::uint8_t attempt) {
  for (const trace::SpanRec& s : cell.spansOf(rt)) {
    if (s.kind == kind && s.attempt == attempt) return s;
  }
  ADD_FAILURE() << "no span of kind " << static_cast<int>(kind)
                << " for attempt " << static_cast<int>(attempt);
  return {};
}

/// Exports `cell` and runs the TL/RQ trace rules over it; "" when clean.
std::string traceDiagnostics(trace::CellTrace cell) {
  trace::FleetTrace fleet;
  fleet.cells.push_back(std::move(cell));
  obs::ChromeTrace chrome;
  trace::exportFleetTrace(fleet, chrome);
  analyze::DiagnosticSink sink;
  verify::checkTrace(verify::loadChromeTrace(chrome.toJson()), sink);
  return sink.empty() ? "" : sink.toText();
}

TEST(CellRecorderTest, ShedKeepsOneRootSpanAndOneMark) {
  CellRecorder rec{keepEverything(), 7, 0};
  const CellRecorder::Slot slot = 4;
  rec.onArrival(slot, 3, 1'000);
  rec.onShed(slot, 3, trace::Outcome::kShedRateLimit, 1'000);
  const trace::CellTrace cell = rec.take();

  EXPECT_EQ(cell.recorded, 1u);
  EXPECT_EQ(cell.tailEligible, 1u);
  ASSERT_EQ(cell.kept.size(), 1u);
  const trace::RequestTrace& rt = cell.kept[0];
  EXPECT_EQ(rt.index, 3u);
  EXPECT_EQ(rt.traceId, trace::requestTraceId(7, 0, 3));
  EXPECT_EQ(rt.outcome, trace::Outcome::kShedRateLimit);
  EXPECT_EQ(rt.keep, trace::KeepReason::kShed);
  ASSERT_EQ(cell.spansOf(rt).size(), 1u);
  EXPECT_EQ(cell.spansOf(rt)[0].kind, SpanKind::kRequest);
  EXPECT_EQ(cell.spansOf(rt)[0].startPs, 1'000);
  EXPECT_EQ(cell.spansOf(rt)[0].endPs, 1'000);
  EXPECT_EQ(markKinds(cell, rt),
            (std::vector<MarkKind>{MarkKind::kShedRateLimit}));
  EXPECT_EQ(traceDiagnostics(cell), "");
}

TEST(CellRecorderTest, FailureAfterADeniedRetryKeepsBothAttempts) {
  CellRecorder rec{keepEverything(), 7, 1};
  const CellRecorder::Slot slot = 0;
  rec.onArrival(slot, 0, 0);
  // Attempt 1 queues on blade 2, then faults during its persona reload.
  rec.onDispatch(slot, 0, 1, false, 2, 10);
  rec.onServiceStart(slot, 0, 1, 2, 20, 0, 5, 0, 25);
  // Attempt 2 (a budget-approved retry) faults too; the next retry is
  // denied and the request fails.
  rec.onDispatch(slot, 0, 2, false, 4, 40);
  rec.onServiceStart(slot, 0, 2, 4, 50, 3, 7, 0, 60);
  rec.onRetryDenied(slot, 0, 60);
  rec.onFailed(slot, 0, 60);
  const trace::CellTrace cell = rec.take();

  ASSERT_EQ(cell.kept.size(), 1u);
  const trace::RequestTrace& rt = cell.kept[0];
  EXPECT_EQ(rt.outcome, trace::Outcome::kFailed);
  EXPECT_EQ(rt.keep, trace::KeepReason::kFailed);
  EXPECT_EQ(rt.latencyPs(), 60);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kAttempt, 1).endPs, 25);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kQueue, 1).endPs, 20);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kService, 1).blade, 2);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kReload, 1).endPs, 25);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kStall, 2).endPs, 53);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kReload, 2).startPs, 53);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kReload, 2).endPs, 60);
  const trace::SpanRec root = spanOf(cell, rt, SpanKind::kRequest, 0);
  EXPECT_EQ(root.startPs, 0);
  EXPECT_EQ(root.endPs, 60);
  // attempt, queue, service, reload for attempt 1; attempt, queue,
  // service, stall, reload for attempt 2; the root last.
  EXPECT_EQ(cell.spansOf(rt).size(), 10u);
  EXPECT_EQ(cell.spansOf(rt).back().kind, SpanKind::kRequest);
  EXPECT_EQ(markKinds(cell, rt),
            (std::vector<MarkKind>{MarkKind::kRetryDenied}));
  EXPECT_EQ(traceDiagnostics(cell), "");
}

TEST(CellRecorderTest, HedgeWinClipsTheQueuedLoserAtTheTerminalDecision) {
  CellRecorder rec{keepEverything(), 7, 2};
  const CellRecorder::Slot slot = 1;
  rec.onArrival(slot, 5, 0);
  // The primary queues behind other work on blade 0 and never starts.
  rec.onDispatch(slot, 5, 1, false, 0, 0);
  // The hedge goes to idle blade 1 and wins.
  rec.onHedgeLaunch(slot, 5, 100);
  rec.onDispatch(slot, 5, 2, true, 1, 100);
  rec.onServiceStart(slot, 5, 2, 1, 100, 0, 0, 200, 300);
  rec.onDone(slot, 5, /*hedgeWin=*/true, 300, -1, 0);
  const trace::CellTrace cell = rec.take();

  ASSERT_EQ(cell.kept.size(), 1u);
  const trace::RequestTrace& rt = cell.kept[0];
  EXPECT_EQ(rt.outcome, trace::Outcome::kOk);
  EXPECT_EQ(rt.keep, trace::KeepReason::kHedgeWon);
  // The losing copy's open spans end at the terminal decision, with a
  // hedge:cancel mark naming its attempt.
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kAttempt, 1).endPs, 300);
  EXPECT_EQ(spanOf(cell, rt, SpanKind::kQueue, 1).endPs, 300);
  EXPECT_EQ(markKinds(cell, rt),
            (std::vector<MarkKind>{MarkKind::kHedgeLaunch,
                                   MarkKind::kHedgeWin,
                                   MarkKind::kHedgeCancel}));
  EXPECT_EQ(cell.marksOf(rt).back().attempt, 1u);
  // RQ001: every child lies inside the root.
  const trace::SpanRec root = spanOf(cell, rt, SpanKind::kRequest, 0);
  for (const trace::SpanRec& s : cell.spansOf(rt)) {
    EXPECT_GE(s.startPs, root.startPs);
    EXPECT_LE(s.endPs, root.endPs);
  }
  EXPECT_EQ(traceDiagnostics(cell), "");
}

TEST(CellRecorderTest, RecycledSlotStartsEmptyAndStaleHandlesThrow) {
  CellRecorder rec{keepEverything(), 7, 3};
  const CellRecorder::Slot slot = 0;
  rec.onArrival(slot, 0, 0);
  // A live slot cannot be handed out twice.
  EXPECT_THROW(rec.onArrival(slot, 1, 0), util::DomainError);
  rec.onDispatch(slot, 0, 1, false, 0, 0);
  rec.onHedgeLaunch(slot, 0, 5);
  rec.onServiceStart(slot, 0, 1, 0, 0, 0, 4, 6, 10);
  rec.onDone(slot, 0, false, 10, -1, 0);

  // The terminal call idled the record; the fleet reuses the slot for
  // request 1.
  rec.onArrival(slot, 1, 20);
  // A call for the finished request through the recycled slot must not
  // write into request 1's record.
  EXPECT_THROW(rec.onDispatch(slot, 0, 2, false, 1, 20), util::DomainError);
  EXPECT_THROW(rec.onFailed(slot, 0, 20), util::DomainError);
  // A slot the recorder was never handed is stale too.
  EXPECT_THROW(rec.onHedgeLaunch(slot + 1, 1, 20), util::DomainError);
  rec.onShed(slot, 1, trace::Outcome::kShedQueue, 20);
  // Once idle, even the last owner's sequence is stale.
  EXPECT_THROW(rec.onRetryDenied(slot, 1, 21), util::DomainError);

  const trace::CellTrace cell = rec.take();
  ASSERT_EQ(cell.kept.size(), 2u);
  EXPECT_EQ(cell.kept[0].keep, trace::KeepReason::kSampled);
  EXPECT_EQ(cell.spansOf(cell.kept[0]).size(), 6u);
  EXPECT_EQ(cell.marksOf(cell.kept[0]).size(), 1u);
  // Request 1 sees only its own root span and shed mark.
  const trace::RequestTrace& shed = cell.kept[1];
  EXPECT_EQ(shed.index, 1u);
  ASSERT_EQ(cell.spansOf(shed).size(), 1u);
  EXPECT_EQ(cell.spansOf(shed)[0].kind, SpanKind::kRequest);
  EXPECT_EQ(cell.spansOf(shed)[0].startPs, 20);
  EXPECT_EQ(markKinds(cell, shed),
            (std::vector<MarkKind>{MarkKind::kShedQueue}));
  EXPECT_EQ(traceDiagnostics(cell), "");
}

}  // namespace
}  // namespace prtr
