#include "trace/recorder.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace prtr::trace {
namespace {

/// Salt separating the sampler's hash stream from the trace-id stream.
constexpr std::uint64_t kSampleSalt = 0x5ca1ab1e0ddba11ULL;

/// Canonical export order: start time, then longer spans first (parents
/// before children at equal starts), then nesting rank (the enum order).
bool spanBefore(const SpanRec& a, const SpanRec& b) noexcept {
  if (a.startPs != b.startPs) return a.startPs < b.startPs;
  const std::int64_t durA = a.endPs - a.startPs;
  const std::int64_t durB = b.endPs - b.startPs;
  if (durA != durB) return durA > durB;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

SpanRec* findSpan(std::vector<SpanRec>& spans, SpanKind kind,
                  std::uint8_t attempt) {
  for (SpanRec& s : spans) {
    if (s.kind == kind && s.attempt == attempt) return &s;
  }
  return nullptr;
}

}  // namespace

CellRecorder::CellRecorder(const TracePolicy& policy, std::uint64_t seed,
                           std::size_t cellIndex)
    : policy_(policy), seed_(seed) {
  out_.cell = cellIndex;
  if (policy_.sampleRate >= 1.0) {
    sampleAll_ = true;
  } else if (policy_.sampleRate > 0.0) {
    // rate < 1 keeps the product below 2^64, so the cast is exact enough
    // and well-defined.
    sampleThreshold_ = static_cast<std::uint64_t>(
        policy_.sampleRate * 18446744073709551616.0);
  }
}

CellRecorder::LiveRecord& CellRecorder::owned(Slot slot, std::uint32_t seq) {
  util::require(slot < slots_.size() && slots_[slot].owner == seq,
                "CellRecorder: stale request-trace slot");
  return slots_[slot];
}

void CellRecorder::onArrival(Slot slot, std::uint32_t seq,
                             std::int64_t nowPs) {
  if (slot >= slots_.size()) slots_.resize(std::size_t{slot} + 1);
  LiveRecord& live = slots_[slot];
  util::require(live.owner == kFree, "CellRecorder: request slot still live");
  live.owner = seq;
  live.arrivalPs = nowPs;
}

void CellRecorder::onShed(Slot slot, std::uint32_t seq, Outcome outcome,
                          std::int64_t nowPs) {
  LiveRecord& live = owned(slot, seq);
  MarkKind mark = MarkKind::kShedBreaker;
  switch (outcome) {
    case Outcome::kShedQueue: mark = MarkKind::kShedQueue; break;
    case Outcome::kShedDeadline: mark = MarkKind::kShedDeadline; break;
    case Outcome::kShedRateLimit: mark = MarkKind::kShedRateLimit; break;
    default: break;
  }
  live.marks.push_back(MarkRec{mark, 0, nowPs});
  finalize(live, seq, outcome, nowPs, KeepReason::kShed);
}

void CellRecorder::onDispatch(Slot slot, std::uint32_t seq,
                              std::uint8_t attempt, bool hedge,
                              std::uint32_t blade, std::int64_t nowPs) {
  LiveRecord& live = owned(slot, seq);
  // Open spans carry endPs = -1 until service start closes them (or the
  // terminal decision clips a losing hedge copy).
  live.spans.push_back(SpanRec{SpanKind::kAttempt, attempt, hedge,
                               static_cast<std::int32_t>(blade), nowPs, -1});
  live.spans.push_back(
      SpanRec{SpanKind::kQueue, attempt, hedge, -1, nowPs, -1});
}

void CellRecorder::onServiceStart(Slot slot, std::uint32_t seq,
                                  std::uint8_t attempt, std::uint32_t blade,
                                  std::int64_t startPs, std::int64_t stallPs,
                                  std::int64_t reloadPs, std::int64_t execPs,
                                  std::int64_t completionPs) {
  std::vector<SpanRec>& spans = owned(slot, seq).spans;
  if (SpanRec* queue = findSpan(spans, SpanKind::kQueue, attempt)) {
    queue->endPs = startPs;
  }
  if (SpanRec* att = findSpan(spans, SpanKind::kAttempt, attempt)) {
    att->endPs = completionPs;
  }
  spans.push_back(SpanRec{SpanKind::kService, attempt, false,
                          static_cast<std::int32_t>(blade), startPs,
                          completionPs});
  std::int64_t cursor = startPs;
  if (stallPs > 0) {
    spans.push_back(SpanRec{SpanKind::kStall, attempt, false, -1, cursor,
                            cursor + stallPs});
    cursor += stallPs;
  }
  if (reloadPs > 0) {
    spans.push_back(SpanRec{SpanKind::kReload, attempt, false, -1, cursor,
                            cursor + reloadPs});
    cursor += reloadPs;
  }
  if (execPs > 0) {
    spans.push_back(SpanRec{SpanKind::kExecute, attempt, false, -1,
                            completionPs - execPs, completionPs});
  }
}

void CellRecorder::onRetryDenied(Slot slot, std::uint32_t seq,
                                 std::int64_t nowPs) {
  owned(slot, seq).marks.push_back(MarkRec{MarkKind::kRetryDenied, 0, nowPs});
}

void CellRecorder::onHedgeLaunch(Slot slot, std::uint32_t seq,
                                 std::int64_t nowPs) {
  owned(slot, seq).marks.push_back(MarkRec{MarkKind::kHedgeLaunch, 0, nowPs});
}

void CellRecorder::onDone(Slot slot, std::uint32_t seq, bool hedgeWin,
                          std::int64_t nowPs, std::int64_t slowThresholdPs,
                          std::int64_t deadlinePs) {
  LiveRecord& live = owned(slot, seq);
  const std::int64_t latencyPs = nowPs - live.arrivalPs;
  if (hedgeWin) live.marks.push_back(MarkRec{MarkKind::kHedgeWin, 0, nowPs});
  KeepReason tail = KeepReason::kNone;
  if (deadlinePs > 0 && latencyPs > deadlinePs) {
    tail = KeepReason::kDeadlineMiss;
  } else if (hedgeWin) {
    tail = KeepReason::kHedgeWon;
  } else if (slowThresholdPs >= 0 && latencyPs >= slowThresholdPs) {
    tail = KeepReason::kSlow;
  }
  finalize(live, seq, Outcome::kOk, nowPs, tail);
}

void CellRecorder::onFailed(Slot slot, std::uint32_t seq, std::int64_t nowPs) {
  finalize(owned(slot, seq), seq, Outcome::kFailed, nowPs,
           KeepReason::kFailed);
}

void CellRecorder::bladeMark(std::uint32_t blade, BladeMarkKind kind,
                             std::int64_t nowPs) {
  out_.bladeMarks.push_back(BladeMark{blade, kind, nowPs});
}

void CellRecorder::finalize(LiveRecord& live, std::uint32_t seq,
                            Outcome outcome, std::int64_t nowPs,
                            KeepReason tailReason) {
  // Clip copies still open at the terminal decision (a queued hedge loser:
  // it will be discarded at dequeue, costing the blade nothing further).
  std::int64_t resolvedPs = nowPs;
  for (SpanRec& s : live.spans) {
    if (s.endPs < 0) {
      s.endPs = nowPs;
      if (s.kind == SpanKind::kAttempt) {
        live.marks.push_back(
            MarkRec{MarkKind::kHedgeCancel, s.attempt, nowPs});
      }
    }
    resolvedPs = std::max(resolvedPs, s.endPs);
  }
  // The root spans the full resolution window: a losing hedge copy already
  // in service runs past the terminal decision, and no child span may
  // outlive its request (RQ001).
  live.spans.push_back(SpanRec{SpanKind::kRequest, 0, false, -1,
                               live.arrivalPs, resolvedPs});
  ++out_.recorded;
  const std::uint64_t traceId = requestTraceId(seed_, out_.cell, seq);
  if (tailReason != KeepReason::kNone) {
    ++out_.tailEligible;
    ++out_.keptTail;
    keep(live, seq, traceId, outcome, tailReason, nowPs);
  } else if (sampleAll_ ||
             (sampleThreshold_ > 0 &&
              mix64(traceId ^ kSampleSalt) < sampleThreshold_)) {
    if (out_.keptSampled >= policy_.maxSampledPerCell) {
      ++out_.droppedCap;
    } else {
      ++out_.keptSampled;
      keep(live, seq, traceId, outcome, KeepReason::kSampled, nowPs);
    }
  }
  // Idle the record; its vectors keep their capacity for the slot's next
  // owner.
  live.owner = kFree;
  live.spans.clear();
  live.marks.clear();
}

void CellRecorder::keep(const LiveRecord& live, std::uint32_t seq,
                        std::uint64_t traceId, Outcome outcome,
                        KeepReason reason, std::int64_t nowPs) {
  // RequestTrace ranges are 32-bit indices into the arenas.
  constexpr std::size_t kArenaMax = 0xFFFF'FFFFu;
  util::require(out_.spans.size() + live.spans.size() <= kArenaMax &&
                    out_.marks.size() + live.marks.size() <= kArenaMax,
                "CellRecorder: kept-trace arena exceeds 2^32 entries");
  RequestTrace rt;
  rt.traceId = traceId;
  rt.index = seq;
  rt.outcome = outcome;
  rt.keep = reason;
  rt.arrivalPs = live.arrivalPs;
  rt.endPs = nowPs;
  rt.spanBegin = static_cast<std::uint32_t>(out_.spans.size());
  rt.spanCount = static_cast<std::uint32_t>(live.spans.size());
  rt.markBegin = static_cast<std::uint32_t>(out_.marks.size());
  rt.markCount = static_cast<std::uint32_t>(live.marks.size());
  out_.spans.insert(out_.spans.end(), live.spans.begin(), live.spans.end());
  out_.marks.insert(out_.marks.end(), live.marks.begin(), live.marks.end());
  out_.kept.push_back(rt);
}

CellTrace CellRecorder::take() {
  slots_.clear();
  CellTrace out = std::move(out_);
  out_ = CellTrace{};
  out_.cell = out.cell;
  return out;
}

void exportFleetTrace(const FleetTrace& fleet, obs::ChromeTrace& chrome) {
  for (const CellTrace& cell : fleet.cells) {
    obs::ProcessTrace proc;
    proc.name = "fleet/cell" + std::to_string(cell.cell);

    // Blade-mark lanes first, in blade order, so breaker/ladder context
    // sits above the request lanes.
    std::vector<std::uint32_t> bladesWithMarks;
    for (const BladeMark& mark : cell.bladeMarks) {
      bladesWithMarks.push_back(mark.blade);
    }
    std::sort(bladesWithMarks.begin(), bladesWithMarks.end());
    bladesWithMarks.erase(
        std::unique(bladesWithMarks.begin(), bladesWithMarks.end()),
        bladesWithMarks.end());
    for (const std::uint32_t blade : bladesWithMarks) {
      proc.lanes.push_back("blade" + std::to_string(blade));
    }
    for (const BladeMark& mark : cell.bladeMarks) {
      proc.instants.push_back(
          obs::TraceInstant{"blade" + std::to_string(mark.blade),
                            toString(mark.kind), mark.atPs});
    }

    std::vector<SpanRec> spans;
    std::vector<const SpanRec*> attempts;
    for (const RequestTrace& rt : cell.kept) {
      const std::string lane = requestLaneName(rt.traceId);
      proc.lanes.push_back(lane);

      const std::span<const SpanRec> recorded = cell.spansOf(rt);
      spans.assign(recorded.begin(), recorded.end());
      std::stable_sort(spans.begin(), spans.end(), spanBefore);
      for (const SpanRec& span : spans) {
        proc.spans.push_back(
            sim::NamedSpan{lane, spanLabel(span, rt.outcome), '#',
                           util::Time::picoseconds(span.startPs),
                           util::Time::picoseconds(span.endPs)});
      }
      for (const MarkRec& mark : cell.marksOf(rt)) {
        proc.instants.push_back(
            obs::TraceInstant{lane, toString(mark.kind), mark.atPs});
      }

      // Flow arrows: attempt N -> N+1. A hedge copy links from its launch;
      // a retry links from the end of the failed attempt.
      attempts.clear();
      for (const SpanRec& span : spans) {
        if (span.kind == SpanKind::kAttempt) attempts.push_back(&span);
      }
      std::sort(attempts.begin(), attempts.end(),
                [](const SpanRec* a, const SpanRec* b) {
                  return a->attempt < b->attempt;
                });
      for (std::size_t i = 1; i < attempts.size(); ++i) {
        const SpanRec& prev = *attempts[i - 1];
        const SpanRec& next = *attempts[i];
        const std::string id =
            traceIdHex(rt.traceId) + "." + std::to_string(next.attempt);
        const char* label = next.hedge ? "hedge" : "retry";
        const std::int64_t fromPs =
            next.hedge ? next.startPs : std::min(prev.endPs, next.startPs);
        proc.flows.push_back(obs::TraceFlow{lane, label, id, fromPs, true});
        proc.flows.push_back(
            obs::TraceFlow{lane, label, id, next.startPs, false});
      }
    }
    chrome.addProcess(std::move(proc));
  }
}

}  // namespace prtr::trace
