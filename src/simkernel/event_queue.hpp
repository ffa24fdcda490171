// event_queue.hpp - the pending-event set of the discrete-event simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "simkernel/time.hpp"

namespace lmon::sim {

/// Opaque handle to a scheduled event; used to cancel timers.
struct EventId {
  std::uint64_t seq = 0;
  friend bool operator==(EventId a, EventId b) { return a.seq == b.seq; }
};

/// Min-heap of timestamped callbacks with stable FIFO ordering for equal
/// timestamps: events pop in (time, push order). Each heap entry holds its
/// callback, so scheduling an event allocates nothing beyond the callback
/// itself once the heap has grown.
class EventQueue {
 public:
  EventId push(Time when, std::function<void()> fn);

  /// Removes a pending event. Cancelling an already fired or unknown event
  /// is a no-op. Linear in the pending events: the simulator itself never
  /// cancels, so nothing indexes events by id.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the next event; only valid when !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the next event's callback. Precondition: !empty().
  std::pair<Time, std::function<void()>> pop();

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  /// Heap order: `a` pops after `b`.
  static bool later(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace lmon::sim
