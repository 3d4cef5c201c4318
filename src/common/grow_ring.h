// Minimal growable FIFO ring so steady-state push/pop never allocates.
//
// The hot pipeline keeps several small FIFOs (coalesced-stream backlogs, a
// core's work queue, the DMA read queue, a source's retransmission queue,
// the entries of every bounded RX ring via RingBuffer) whose steady-state
// depth is a handful of items. A std::deque releases its blocks as the
// queue drains, so a push/pop cycle that straddles a block boundary
// re-pays the allocator every few items. This ring's capacity is a
// power of two and only ever grows: once warmed to the high-water depth,
// every push and pop is a move into a retained slot.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ceio {

template <typename T>
class GrowRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[(head_ + count_ - 1) & (buf_.size() - 1)]; }
  const T& back() const { return buf_[(head_ + count_ - 1) & (buf_.size() - 1)]; }

  /// i-th element from the front (audit sweeps over queued entries).
  const T& at(std::size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }

  void push_back(T value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(value);
    ++count_;
  }

  T pop_front() {
    T value = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return value;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    // Start tiny: there is one of these per flow in several per-flow
    // structures, and at million-flow scale an eager 16-slot buffer is
    // real memory; two extra doublings on first warm-up are not.
    const std::size_t cap = buf_.empty() ? 4 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ceio
