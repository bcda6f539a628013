#include "verify/timeline_rules.hpp"

#include <algorithm>
#include <map>

namespace prtr::verify {
namespace {

/// Overlap rule code for one lane class.
const char* overlapCode(LaneKind kind) noexcept {
  switch (kind) {
    case LaneKind::kConfigPort: return "TL005";
    case LaneKind::kComputeRegion: return "TL004";
    case LaneKind::kLink: return "TL006";
    case LaneKind::kRecovery:
    case LaneKind::kRequest:
    case LaneKind::kSerial: return "TL003";
  }
  return "TL003";
}

std::string where(const std::string& process, const std::string& lane) {
  return "process '" + process + "' lane '" + lane + "'";
}

std::string timesOf(const sim::NamedSpan& span) {
  std::string times = "[";
  times += span.start.toString();
  times += ", ";
  times += span.end.toString();
  times += ')';
  return times;
}

bool overlaps(const sim::NamedSpan& a, const sim::NamedSpan& b) noexcept {
  // Half-open intervals: touching endpoints are not an overlap.
  return a.start < b.end && b.start < a.end;
}

}  // namespace

LaneKind classifyLane(std::string_view lane) noexcept {
  if (lane == "config") return LaneKind::kConfigPort;
  if (lane.starts_with("PRR") || lane == "FPGA") {
    return LaneKind::kComputeRegion;
  }
  if (lane.starts_with("HT")) return LaneKind::kLink;
  if (lane == "recovery") return LaneKind::kRecovery;
  if (lane.starts_with("rq:")) return LaneKind::kRequest;
  return LaneKind::kSerial;
}

void checkSpans(const std::string& process,
                const std::vector<sim::NamedSpan>& spans,
                analyze::DiagnosticSink& sink) {
  // Bucket per lane in record order (std::map: deterministic lane order in
  // the report regardless of recording interleavings).
  std::map<std::string, std::vector<const sim::NamedSpan*>> lanes;
  for (const sim::NamedSpan& span : spans) {
    if (span.end < span.start) {
      sink.emit("TL001", where(process, span.lane) + " span '" + span.label + "'",
                "span " + timesOf(span) + " ends " +
                    (span.start - span.end).toString() + " before it starts");
    }
    lanes[span.lane].push_back(&span);
  }

  for (auto& [lane, laneSpans] : lanes) {
    const LaneKind kind = classifyLane(lane);

    // TL002: the recorder appends in event order, so per-lane starts must
    // be nondecreasing; an out-of-order start means a component stamped a
    // span with a clock it had already passed.
    for (std::size_t i = 1; i < laneSpans.size(); ++i) {
      if (laneSpans[i]->start < laneSpans[i - 1]->start) {
        sink.emit("TL002",
                  where(process, lane) + " span '" + laneSpans[i]->label + "'",
                  "span " + timesOf(*laneSpans[i]) +
                      " recorded after span '" + laneSpans[i - 1]->label +
                      "' " + timesOf(*laneSpans[i - 1]) +
                      " but starts earlier");
        break;  // one report per lane: later pairs are usually the same bug
      }
    }

    // Request lanes hold one nested span tree: the root contains every
    // attempt, so overlap is the design, not a violation. The RQ rules
    // (request_rules.hpp) check the nesting instead.
    if (kind == LaneKind::kRequest) continue;

    // Overlap check on start-sorted spans; the running max-end span is the
    // only candidate an in-order span can still overlap.
    std::vector<const sim::NamedSpan*> sorted = laneSpans;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const sim::NamedSpan* a, const sim::NamedSpan* b) {
                       return a->start < b->start;
                     });
    const sim::NamedSpan* busiest = nullptr;
    for (const sim::NamedSpan* span : sorted) {
      if (span->end < span->start) continue;  // already reported as TL001
      if (busiest != nullptr && overlaps(*busiest, *span)) {
        sink.emit(overlapCode(kind),
                  where(process, lane) + " span '" + span->label + "'",
                  "span " + timesOf(*span) + " overlaps span '" +
                      busiest->label + "' " + timesOf(*busiest));
      }
      if (busiest == nullptr || busiest->end < span->end) busiest = span;
    }
  }

  // TL007: every recovery episode must contain configuration activity
  // (a retry or degraded reload on the config lane). Only checkable when
  // the capture includes the config lane at all.
  const auto recovery = lanes.find("recovery");
  const auto config = lanes.find("config");
  if (recovery != lanes.end() && config != lanes.end()) {
    for (const sim::NamedSpan* episode : recovery->second) {
      const bool paired = std::any_of(
          config->second.begin(), config->second.end(),
          [&](const sim::NamedSpan* load) { return overlaps(*episode, *load); });
      if (!paired) {
        sink.emit("TL007",
                  where(process, "recovery") + " span '" + episode->label + "'",
                  "recovery episode " + timesOf(*episode) +
                      " contains no configuration activity");
      }
    }
  }
}

void checkTimeline(const std::string& process, const sim::Timeline& timeline,
                   analyze::DiagnosticSink& sink) {
  checkSpans(process, timeline.materialize(), sink);
}

}  // namespace prtr::verify
