#include "simkernel/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace lmon::sim {

EventId EventQueue::push(Time when, std::function<void()> fn) {
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Entry{when, seq, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
  return EventId{seq};
}

void EventQueue::cancel(EventId id) {
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [id](const Entry& e) { return e.seq == id.seq; });
  if (it == heap_.end()) return;
  *it = std::move(heap_.back());
  heap_.pop_back();
  std::make_heap(heap_.begin(), heap_.end(), later);
}

Time EventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_.front().when;
}

std::pair<Time, std::function<void()>> EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  return {e.when, std::move(e.fn)};
}

}  // namespace lmon::sim
