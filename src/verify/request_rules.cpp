#include "verify/request_rules.hpp"

#include <map>
#include <vector>

namespace prtr::verify {
namespace {

/// Parses a decimal integer prefix of `text`, advancing it. Returns -1 when
/// no digit is present.
int parseInt(std::string_view& text) noexcept {
  if (text.empty() || text.front() < '0' || text.front() > '9') return -1;
  int value = 0;
  while (!text.empty() && text.front() >= '0' && text.front() <= '9') {
    value = value * 10 + (text.front() - '0');
    text.remove_prefix(1);
  }
  return value;
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

}  // namespace

RequestLabel parseRequestLabel(std::string_view label) noexcept {
  RequestLabel out;
  if (label.starts_with("request ")) {
    out.kind = RequestLabel::Kind::kRequest;
    out.outcome = label.substr(8);
    return out;
  }
  const auto numbered = [&](std::string_view prefix,
                            RequestLabel::Kind kind) {
    if (!label.starts_with(prefix)) return false;
    std::string_view rest = label.substr(prefix.size());
    const int attempt = parseInt(rest);
    if (attempt < 0) return false;
    out.kind = kind;
    out.attempt = attempt;
    if (kind == RequestLabel::Kind::kAttempt && rest == ":hedge") {
      out.hedge = true;
      rest = {};
    }
    if (kind == RequestLabel::Kind::kService && rest.starts_with("@b")) {
      rest.remove_prefix(2);
      out.blade = parseInt(rest);
    }
    if (!rest.empty()) {
      out = RequestLabel{};
      return false;
    }
    return true;
  };
  if (numbered("attempt#", RequestLabel::Kind::kAttempt)) return out;
  if (numbered("queue#", RequestLabel::Kind::kQueue)) return out;
  if (numbered("service#", RequestLabel::Kind::kService)) return out;
  if (numbered("stall#", RequestLabel::Kind::kStall)) return out;
  if (numbered("reload#", RequestLabel::Kind::kReload)) return out;
  if (numbered("execute#", RequestLabel::Kind::kExecute)) return out;
  return out;
}

bool isRequestLane(std::string_view lane) noexcept {
  return lane.starts_with("rq:");
}

void checkRequestLanes(const TraceProcess& process,
                       analyze::DiagnosticSink& sink) {
  std::map<std::string, std::vector<const sim::NamedSpan*>> lanes;
  for (const sim::NamedSpan& span : process.spans) {
    if (isRequestLane(span.lane)) lanes[span.lane].push_back(&span);
  }
  std::map<std::string, std::vector<const InstantEvent*>> marks;
  for (const InstantEvent& instant : process.instants) {
    if (isRequestLane(instant.lane)) marks[instant.lane].push_back(&instant);
  }

  for (const auto& [lane, spans] : lanes) {
    const std::string location = where(process.name, lane);

    const sim::NamedSpan* root = nullptr;
    std::size_t rootCount = 0;
    for (const sim::NamedSpan* span : spans) {
      if (parseRequestLabel(span->label).kind ==
          RequestLabel::Kind::kRequest) {
        root = span;
        ++rootCount;
      }
    }
    if (rootCount != 1) {
      sink.emit("RQ002", location,
                rootCount == 0
                    ? "request lane has no root 'request ...' span"
                    : "request lane has " + std::to_string(rootCount) +
                          " root spans");
      continue;  // nothing to anchor the remaining rules to
    }
    const RequestLabel rootLabel = parseRequestLabel(root->label);

    // Attempt spans by number; component containment checks hang off them.
    std::map<int, const sim::NamedSpan*> attempts;
    bool anyHedge = false;
    for (const sim::NamedSpan* span : spans) {
      const RequestLabel label = parseRequestLabel(span->label);
      if (label.kind == RequestLabel::Kind::kAttempt) {
        attempts[label.attempt] = span;
        anyHedge = anyHedge || label.hedge;
      }
    }

    for (const sim::NamedSpan* span : spans) {
      if (span == root) continue;
      const RequestLabel label = parseRequestLabel(span->label);
      if (span->start < root->start || root->end < span->end) {
        sink.emit("RQ001", location + " span '" + span->label + "'",
                  "span " + timesOf(*span) + " escapes its request's root " +
                      timesOf(*root));
      }
      if (label.kind == RequestLabel::Kind::kUnknown ||
          label.kind == RequestLabel::Kind::kAttempt) {
        continue;
      }
      const auto attempt = attempts.find(label.attempt);
      if (attempt == attempts.end()) {
        sink.emit("RQ004", location + " span '" + span->label + "'",
                  "component span references attempt#" +
                      std::to_string(label.attempt) +
                      " but the lane has no such attempt span");
        continue;
      }
      if (span->start < attempt->second->start ||
          attempt->second->end < span->end) {
        sink.emit("RQ003", location + " span '" + span->label + "'",
                  "span " + timesOf(*span) + " escapes its attempt '" +
                      attempt->second->label + "' " +
                      timesOf(*attempt->second));
      }
    }

    std::size_t hedgeWins = 0;
    const auto laneMarks = marks.find(lane);
    if (laneMarks != marks.end()) {
      for (const InstantEvent* mark : laneMarks->second) {
        if (mark->label == "hedge:win") ++hedgeWins;
      }
    }
    if (hedgeWins > 1) {
      sink.emit("RQ005", location,
                "request has " + std::to_string(hedgeWins) +
                    " 'hedge:win' marks; the hedge winner must be unique");
    } else if (hedgeWins == 1 && !anyHedge) {
      sink.emit("RQ005", location,
                "'hedge:win' mark on a request with no hedged attempt");
    }

    if (rootLabel.outcome.substr(0, 5) == "shed:" && !attempts.empty()) {
      sink.emit("RQ006", location,
                "request shed at admission ('" + std::string{root->label} +
                    "') but the lane records " +
                    std::to_string(attempts.size()) + " attempt span(s)");
    }
  }
}

}  // namespace prtr::verify
