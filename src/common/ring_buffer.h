// Bounded FIFO ring behind RxRing, which models the NIC RX descriptor rings
// (per-flow rings, CEIO's fast rings, ShRing's shared ring).
//
// This mirrors the semantics of hardware RX rings: a bounded circular queue
// with head (consumer) and tail (producer) indices that grow monotonically.
// Exposing the raw head/tail counters matters for CEIO because credit
// replenishment is keyed to head-pointer advancement (lazy release, paper
// §4.1/§4.2).
//
// Capacity and storage are separate. The configured capacity is only the
// drop bound: push() refuses once size() reaches it, exactly as a full HW
// ring drops. The entries themselves live in a GrowRing, whose power-of-two
// buffer starts empty and doubles when the ring's occupancy first exceeds
// it. A 4096-entry ring that never holds more than a few packets therefore
// owns a few slots, not 4096 — which is what lets flow-scale runs keep one
// ring per flow — and slot indexing is a mask rather than `index % capacity`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "common/grow_ring.h"

namespace ceio {

template <typename T>
class RingBuffer {
 public:
  /// A zero-capacity ring would silently drop every push, so the capacity
  /// is checked here instead of at first use.
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("RingBuffer capacity must be at least 1");
    }
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return size() == capacity_; }

  /// Monotonic producer index (number of items ever pushed).
  std::uint64_t tail() const { return head_ + entries_.size(); }
  /// Monotonic consumer index (number of items ever popped).
  std::uint64_t head() const { return head_; }

  /// Pushes an entry; returns false (and drops) when the ring is full, which
  /// models the packet-drop behaviour of a full HW RX ring.
  bool push(T value) {
    if (full()) return false;
    entries_.push_back(std::move(value));
    return true;
  }

  /// Pops the oldest entry, or nullopt when empty.
  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    ++head_;
    return entries_.pop_front();
  }

 private:
  GrowRing<T> entries_;
  std::size_t capacity_;
  std::uint64_t head_ = 0;
};

}  // namespace ceio
