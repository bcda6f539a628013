#pragma once
/// \file event_heap.hpp
/// The pending-event set shared by the simulator and the fleet.
///
/// Events are ordered by exact (timePs, seq): earlier time first, then
/// earlier push. seq is stamped by the heap itself, so equal-time events
/// pop in push order and any run is bit-reproducible. A plain binary
/// min-heap over a vector; its capacity is retained across pops, so
/// steady-state push/pop allocates nothing. Not thread-safe.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prtr::sim {

template <typename Payload>
class EventHeap {
 public:
  /// One pending event: its absolute time (integer picoseconds), the
  /// push sequence number that breaks ties, and the caller's payload.
  struct Entry {
    std::int64_t timePs;
    std::uint64_t seq;
    Payload payload;
  };

  void push(std::int64_t timePs, Payload payload) {
    heap_.push_back(Entry{timePs, seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// Removes and returns the minimum event. Precondition: !empty().
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  /// Time of the minimum event. Precondition: !empty().
  [[nodiscard]] std::int64_t peekTimePs() const { return heap_.front().timePs; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// std heap comparator yielding a MIN-heap on (timePs, seq).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.timePs != b.timePs ? a.timePs > b.timePs : a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace prtr::sim
