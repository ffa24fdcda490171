#include "simkernel/event_queue.hpp"

#include <cassert>

namespace lmon::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t i = free_slots_.back();
    free_slots_.pop_back();
    return i;
  }
  if ((slots_used_ & (kBlockSize - 1)) == 0) {
    blocks_.push_back(std::make_unique<Block>());
  }
  return slots_used_++;
}

void EventQueue::push(Time when, Callback fn) {
  const std::uint32_t s = acquire_slot();
  slot(s) = std::move(fn);
  const Key key{when, next_seq_++, s};
  // Sift up: parent of i is (i - 1) / 4.
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Time EventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_.front().when;
}

void EventQueue::run_next() {
  assert(!heap_.empty());
  const std::uint32_t s = heap_.front().slot;
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root: children of i are 4i+1 .. 4i+4.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  // The slot is not on the free list while its callback runs, so events the
  // callback pushes never land on top of it.
  Callback& fn = slot(s);
  fn();
  fn.reset();
  free_slots_.push_back(s);
}

}  // namespace lmon::sim
