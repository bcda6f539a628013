#pragma once
/// \file recorder.hpp
/// Per-cell request-trace recorder and the Perfetto exporter.
///
/// The fleet simulator drives one CellRecorder per cell from its event
/// loop. A request's live record is keyed by the fleet's request slot: the
/// fleet owns the one slot pool (see fleet.cpp) and the recorder mirrors it,
/// growing its record table to the highest slot it is handed. onArrival
/// opens the record in the slot, every later call names the slot and the
/// request's per-cell arrival sequence, and the terminal decision (onShed /
/// onDone / onFailed) either appends the record to the kept arenas (see
/// request.hpp) or discards it, then marks the slot idle. Records keep
/// their span and mark capacity across reuse, so the table grows with the
/// in-flight population, not the request count, and a steady-state request
/// allocates nothing.
///
/// Slot lifetime: a slot names a request from onArrival up to and including
/// its terminal call, and no call may follow it. The fleet hands the slot
/// out again only after that. Every call checks that the slot is owned by
/// the sequence it names, so a stale or mis-keyed call throws instead of
/// writing into another request's record.
///
/// Everything is keyed off simulated time and the deterministic trace id,
/// so the recorder is a pure observer: it consumes no RNG draws and the
/// simulated bytes are identical with tracing on or off.
///
/// exportFleetTrace renders the kept set through obs::ChromeTrace — one
/// process per cell, blade-mark lanes first, then one lane per kept
/// request in terminal-decision order, with retry/hedge flow arrows
/// synthesized from the attempt spans.

#include <cstdint>
#include <vector>

#include "obs/trace_export.hpp"
#include "trace/policy.hpp"
#include "trace/request.hpp"

namespace prtr::trace {

class CellRecorder {
 public:
  /// The fleet's request slot a live record is keyed by.
  using Slot = std::uint32_t;

  CellRecorder(const TracePolicy& policy, std::uint64_t seed,
               std::size_t cellIndex);

  /// A fresh request with arrival sequence `seq` now occupies `slot`;
  /// opens its live record (root span start). Throws when the slot is
  /// still live.
  void onArrival(Slot slot, std::uint32_t seq, std::int64_t nowPs);

  /// Terminal: shed at admission. `outcome` must be one of the kShed*.
  void onShed(Slot slot, std::uint32_t seq, Outcome outcome,
              std::int64_t nowPs);

  /// A copy was dispatched (queued or started): opens attempt + queue.
  void onDispatch(Slot slot, std::uint32_t seq, std::uint8_t attempt,
                  bool hedge, std::uint32_t blade, std::int64_t nowPs);

  /// Service begins; the completion time is already decided by the DES, so
  /// the whole service breakdown is recorded at once. Zero-length
  /// components (no stall, resident persona, faulted execute) are omitted.
  void onServiceStart(Slot slot, std::uint32_t seq, std::uint8_t attempt,
                      std::uint32_t blade, std::int64_t startPs,
                      std::int64_t stallPs, std::int64_t reloadPs,
                      std::int64_t execPs, std::int64_t completionPs);

  void onRetryDenied(Slot slot, std::uint32_t seq, std::int64_t nowPs);
  void onHedgeLaunch(Slot slot, std::uint32_t seq, std::int64_t nowPs);

  /// Terminal: completed. `slowThresholdPs` < 0 means the slow quantile is
  /// not yet trusted; `deadlinePs` is the SLO latency target. A copy still
  /// queued here (a hedge loser) is clipped at `nowPs` with a hedge:cancel
  /// mark; the fleet later discards it at dequeue without a recorder call.
  void onDone(Slot slot, std::uint32_t seq, bool hedgeWin, std::int64_t nowPs,
              std::int64_t slowThresholdPs, std::int64_t deadlinePs);

  /// Terminal: attempts exhausted or retry budget empty.
  void onFailed(Slot slot, std::uint32_t seq, std::int64_t nowPs);

  /// Breaker / recovery-ladder transition on a blade lane.
  void bladeMark(std::uint32_t blade, BladeMarkKind kind, std::int64_t nowPs);

  /// Hands the kept set back and resets the recorder.
  [[nodiscard]] CellTrace take();

 private:
  static constexpr std::uint32_t kFree = 0xFFFF'FFFF;

  /// A live record; `owner` is the request's arrival sequence, kFree when
  /// idle. Sequences stay below kFree: fleet::validate caps a cell at
  /// 2^32 - 1 requests, so the largest sequence is 2^32 - 2.
  struct LiveRecord {
    std::uint32_t owner = kFree;
    std::int64_t arrivalPs = 0;
    std::vector<SpanRec> spans;
    std::vector<MarkRec> marks;
  };

  LiveRecord& owned(Slot slot, std::uint32_t seq);
  void finalize(LiveRecord& live, std::uint32_t seq, Outcome outcome,
                std::int64_t nowPs, KeepReason tailReason);
  void keep(const LiveRecord& live, std::uint32_t seq, std::uint64_t traceId,
            Outcome outcome, KeepReason reason, std::int64_t nowPs);

  TracePolicy policy_;
  std::uint64_t seed_ = 0;
  bool sampleAll_ = false;
  std::uint64_t sampleThreshold_ = 0;
  std::vector<LiveRecord> slots_;  ///< indexed by the fleet's slot
  CellTrace out_;
};

/// Renders the kept traces into `chrome`: process "fleet/cell<i>" per
/// cell, "blade<k>" instant lanes first (blades with marks, in index
/// order), then "rq:<hex16>" lanes in kept order. Spans are emitted in
/// canonical order (start time, then longer-first, then kind) so lanes
/// are time-ordered and nest correctly in Perfetto.
void exportFleetTrace(const FleetTrace& fleet, obs::ChromeTrace& chrome);

}  // namespace prtr::trace
