// event_queue.hpp - the pending-event set of the discrete-event simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simkernel/callback.hpp"
#include "simkernel/time.hpp"

namespace lmon::sim {

/// Pending events, popped in (time, push order): equal timestamps run FIFO.
/// That order is a strict total order, so it fixes the whole event sequence
/// independently of the heap's shape.
///
/// The heap orders small {when, seq, slot} keys (4-ary: half the depth of a
/// binary heap); the callbacks stay put in a slot array with a free list. Slots live in fixed blocks, so
/// a callback runs in place and keeps its address while it schedules more
/// events. Once the queue has grown to its working size, pushing and
/// running an event whose callback fits Callback's inline storage allocates
/// nothing.
class EventQueue {
 public:
  void push(Time when, Callback fn);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the next event; only valid when !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes the next event and runs its callback, which may push more
  /// events. The callback is destroyed once it returns. Precondition:
  /// !empty().
  void run_next();

 private:
  struct Key {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  static constexpr std::uint32_t kBlockShift = 7;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
  struct Block {
    Callback slots[kBlockSize];
  };

  Callback& slot(std::uint32_t i) noexcept {
    return blocks_[i >> kBlockShift]->slots[i & (kBlockSize - 1)];
  }
  std::uint32_t acquire_slot();

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slots_used_ = 0;  ///< slots handed out at least once
  std::uint64_t next_seq_ = 1;
};

}  // namespace lmon::sim
