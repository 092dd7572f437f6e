#include "sim/event_queue.hpp"

namespace stabl::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  heap_pos_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action.reset();
  // Stale handles to this slot die here: the generation advances, so a
  // later cancel() with the old id no longer matches.
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::cancel(TimerId id) {
  if (id == kInvalidTimer) return;
  const std::uint64_t biased = id >> 32;
  if (biased == 0 || biased > slots_.size()) return;
  const auto slot = static_cast<std::uint32_t>(biased - 1);
  if (slots_[slot].generation != static_cast<std::uint32_t>(id)) {
    return;  // already fired or cancelled (slot possibly reused)
  }
  remove_heap_entry(heap_pos_[slot]);
  release_slot(slot);
}

// Bottom-up removal: the hole at `pos` sinks along the smaller children
// to a leaf, then the last entry fills it and sifts up. The last entry
// usually belongs near the bottom, so this skips most of the comparisons
// a top-down sift of it would make.
void EventQueue::remove_heap_entry(std::uint32_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  const auto n = static_cast<std::uint32_t>(heap_.size());
  if (pos == n) return;
  for (std::uint32_t first = kArity * pos + 1; first < n;
       first = kArity * pos + 1) {
    const std::uint32_t child = min_child(first, n);
    place(pos, heap_[child]);
    pos = child;
  }
  sift_up(pos, last);
}

std::uint32_t EventQueue::min_child(std::uint32_t first,
                                    std::uint32_t n) const {
  if (first + kArity <= n) {
    // A full group: two independent comparisons, then one.
    const std::uint32_t a =
        heap_[first + 1] < heap_[first] ? first + 1 : first;
    const std::uint32_t b =
        heap_[first + 3] < heap_[first + 2] ? first + 3 : first + 2;
    return heap_[b] < heap_[a] ? b : a;
  }
  std::uint32_t best = first;
  for (std::uint32_t c = first + 1; c < n; ++c) {
    if (heap_[c] < heap_[best]) best = c;
  }
  return best;
}

void EventQueue::sift_up(std::uint32_t pos, Entry moving) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!(moving < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

Time EventQueue::next_time() const {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time() called on empty queue");
  }
  return time_of(heap_.front());
}

EventQueue::Action EventQueue::pop(Time& fired_at, TimerId* fired_id) {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop() called on empty queue");
  }
  const Entry top = heap_.front();
  const std::uint32_t slot = slot_of(top);
  Slot& s = slots_[slot];
  fired_at = time_of(top);
  if (fired_id != nullptr) *fired_id = make_id(slot, s.generation);
  Action action = std::move(s.action);
  remove_heap_entry(0);
  release_slot(slot);
  // The next pop reads the new earliest event's slot, and the slab
  // outgrows the caches at scale: start loading both ends of that slot
  // now, while the caller runs this event's action.
  if (!heap_.empty()) {
    const auto* next =
        reinterpret_cast<const char*>(&slots_[slot_of(heap_.front())]);
    __builtin_prefetch(next);
    __builtin_prefetch(next + sizeof(Slot) - 1);
  }
  return action;
}

void EventQueue::reserve(std::size_t events) {
  slots_.reserve(events);
  heap_pos_.reserve(events);
  heap_.reserve(events);
}

}  // namespace stabl::sim
