// The simulator's time-ordered event queue.
//
// Scale redesign (DESIGN.md §14): events live in a slab of pooled slots
// recycled through a free list, ordered by a 4-ary min-heap whose entries
// carry their own ordering key (time, and the schedule sequence number
// packed with the slot index), so a sift compares entries without reading
// the slab. A slot -> heap-position array beside the slab serves eager
// cancel(). Event actions are stored inline in the slot (small-buffer
// storage, no per-event heap allocation for the closures the simulator
// actually schedules); oversized callables fall back to one heap block.
// Cancellation is *eager*: the slot's heap entry is removed in O(log n)
// and the slot recycled immediately, so schedule/cancel churn — timeout
// timers that almost always get cancelled — no longer grows any internal
// structure. TimerIds carry a per-slot generation tag, which makes a
// stale handle (already fired or cancelled, slot possibly reused) a
// harmless no-op to cancel, exactly like the previous design's lazy set.
//
// Ordering contract (unchanged): earliest time first, ties broken FIFO in
// scheduling order via a monotone sequence number. This is a strict total
// order, so any correct priority queue over it pops the same sequence;
// that is what keeps every report byte-identical across changes of the
// heap's layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace stabl::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Encodes (slot index + 1) in the high 32 bits and the slot's generation
/// in the low 32 bits; callers must treat it as opaque.
using TimerId = std::uint64_t;

/// Sentinel returned by operations that have no timer to identify. No
/// valid handle is ever 0 (the encoded slot index is biased by one).
inline constexpr TimerId kInvalidTimer = 0;

namespace detail {

/// Move-only callable with fixed inline storage. The simulator's closures
/// (a captured `this` plus a few ids, an envelope with a shared_ptr
/// payload, ...) fit the inline buffer; anything larger transparently
/// falls back to a single heap allocation. Replaces std::function on the
/// event hot path, where the latter's allocation per schedule dominated
/// large-cell profiles.
class InlineAction {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineAction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction>>>
  InlineAction(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  InlineAction(InlineAction&& other) noexcept { take(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage()); }

  template <typename F>
  void emplace(F&& fn) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage()) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (storage()) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    // Move-construct `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops kBoxedOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* p) { delete *static_cast<Fn**>(p); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      }};

  void take(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage(), other.storage());
      other.ops_ = nullptr;
    }
  }

  void* storage() { return static_cast<void*>(buf_); }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Low bits of a heap key that hold the event's slot index. The packed
/// range bounds a queue to 2^24 (16,777,216) live events and 2^40
/// schedules over its lifetime.
inline constexpr unsigned kEventSlotBits = 24;

/// Heap key of the event scheduled `seq`-th into slot `slot`: the
/// sequence number above the slot index. Sequence numbers are unique, so
/// keys order exactly as sequence numbers do. Throws std::length_error
/// outside the packed range — in every build type, like pop() on an
/// empty queue.
inline std::uint64_t pack_event_key(std::uint64_t seq, std::uint64_t slot) {
  if ((slot >> kEventSlotBits) != 0 || (seq >> (64 - kEventSlotBits)) != 0) {
    throw std::length_error(
        "EventQueue: more than 2^24 live events or 2^40 schedules");
  }
  return (seq << kEventSlotBits) | slot;
}

}  // namespace detail

class EventQueue {
 public:
  /// The type pop() hands back: a move-only callable owning the event's
  /// action. Invoke it at most once.
  using Action = detail::InlineAction;

  /// Schedule `action` (any void() callable) to run at absolute time `at`.
  /// Returns a handle that can be passed to cancel(). `at` must not be in
  /// the past relative to the last popped event; the Simulation enforces
  /// this. No heap allocation when the callable fits the inline buffer.
  template <typename F>
  TimerId schedule(Time at, F&& action) {
    // Checked before any state changes, so a throw leaves the queue as
    // it was.
    const std::uint64_t key = detail::pack_event_key(next_seq_, next_slot());
    const std::uint32_t slot = acquire_slot();
    ++next_seq_;
    Slot& s = slots_[slot];
    s.action.emplace(std::forward<F>(action));
    heap_.emplace_back();
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), make_entry(at, key));
    return make_id(slot, s.generation);
  }

  /// Cancel a previously scheduled event: its heap entry is removed and
  /// its slot recycled immediately (eager — nothing lingers until the
  /// fire time). Cancelling an already-fired, already-cancelled or
  /// invalid handle is a harmless no-op.
  void cancel(TimerId id);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Time of the earliest live event. Throws std::logic_error when the
  /// queue is empty — in every build type, not just with assertions on.
  [[nodiscard]] Time next_time() const;

  /// Pop and return the earliest live event's action, advancing internal
  /// bookkeeping. `fired_at` receives the event's time; `fired_id` (when
  /// non-null) its handle. Throws std::logic_error when empty.
  Action pop(Time& fired_at, TimerId* fired_id = nullptr);

  /// Number of live events currently scheduled.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Pre-size the slab, position array and heap for an expected peak of
  /// live events (plumbed from cluster size so large cells skip growth
  /// reallocation).
  void reserve(std::size_t events);

  /// Slots ever allocated (live + free-listed). Bounded by the peak live
  /// count, NOT by total schedule/cancel traffic — the regression test
  /// for the old lazy-cancel leak asserts exactly this.
  [[nodiscard]] std::size_t allocated_slots() const { return slots_.size(); }

 private:
  // One heap entry: the event's whole ordering key, its slot index in the
  // low bits, so a sift compares two integers and never reads the slab.
  // Bits 127..64 hold `at` with its sign bit flipped, which makes unsigned
  // order time order; bits 63..0 hold pack_event_key(seq, slot). A
  // group of four siblings is 64 bytes, at most two cache lines.
  using Entry = unsigned __int128;

  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNpos;  // free-list link while free
    detail::InlineAction action;
  };

  static constexpr std::uint32_t kNpos = ~std::uint32_t{0};
  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << detail::kEventSlotBits) - 1;
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

  static TimerId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<TimerId>(slot + 1) << 32) | generation;
  }

  static Entry make_entry(Time at, std::uint64_t key) {
    return (Entry{static_cast<std::uint64_t>(at.count()) ^ kSignBit} << 64) |
           key;
  }
  static Time time_of(Entry e) {
    return Time{static_cast<std::int64_t>(
        static_cast<std::uint64_t>(e >> 64) ^ kSignBit)};
  }
  static std::uint32_t slot_of(Entry e) {
    return static_cast<std::uint32_t>(e & kSlotMask);
  }

  /// The slot the next acquire_slot() returns.
  [[nodiscard]] std::uint64_t next_slot() const {
    return free_head_ != kNpos ? free_head_ : slots_.size();
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void remove_heap_entry(std::uint32_t pos);
  [[nodiscard]] std::uint32_t min_child(std::uint32_t first,
                                        std::uint32_t n) const;
  void sift_up(std::uint32_t pos, Entry moving);
  void place(std::uint32_t pos, Entry e) {
    heap_[pos] = e;
    heap_pos_[slot_of(e)] = pos;
  }

  std::vector<Slot> slots_;              // pooled actions, free-list recycled
  std::vector<std::uint32_t> heap_pos_;  // slot -> index in heap_ while live
  std::vector<Entry> heap_;              // 4-ary min-heap
  std::uint32_t free_head_ = kNpos;
  std::uint64_t next_seq_ = 0;           // FIFO tie-break, monotone forever
};

}  // namespace stabl::sim
