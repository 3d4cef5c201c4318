// Host-visible RX descriptor ring.
//
// A thin wrapper over RingBuffer<PacketRef> with drop accounting and the
// monotonic head/tail counters the CEIO driver keys credit release to.
// One ring per flow in the legacy/HostCC/CEIO designs; one shared ring for
// all flows in ShRing.
//
// Slots hold 4-byte PacketRef handles, not Packets, and the ring allocates
// slots for the handles it has held, not for its capacity (RingBuffer): a
// 4096-entry ring whose flow never has more than three packets landed owns
// 16 bytes of slots. The capacity stays the drop bound, so flow-scale runs
// keep a deep ring per flow without the descriptor arrays dominating
// resident memory. The packets stay parked in the event domain's single
// PacketPool: post() takes a handle the caller already owns, poll() hands
// it back, and no packet is copied on the way through. A ring destroyed
// while still holding handles (its flow was unregistered) releases them.
#pragma once

#include <cstdint>
#include <string>

#include "common/ring_buffer.h"
#include "nic/packet.h"

namespace ceio {

class RxRing {
 public:
  RxRing(std::size_t entries, PacketPool& pool, std::string name = "rx")
      : ring_(entries), pool_(pool), name_(std::move(name)) {}

  ~RxRing() {
    // The pool outlives every ring of its domain.
    while (auto ref = ring_.pop()) pool_.release(*ref);
  }

  RxRing(const RxRing&) = delete;
  RxRing& operator=(const RxRing&) = delete;

  /// Posts a received packet. Returns false (drop) when the ring is full;
  /// the handle then stays with the caller.
  bool post(PacketRef ref) {
    if (ring_.push(ref)) return true;
    ++drops_;
    return false;
  }

  /// The oldest posted handle, or a null one when the ring is empty.
  PacketRef poll() { return ring_.pop().value_or(PacketRef{}); }

  bool empty() const { return ring_.empty(); }
  bool full() const { return ring_.full(); }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  double occupancy_fraction() const {
    return capacity() > 0 ? static_cast<double>(size()) / static_cast<double>(capacity()) : 0.0;
  }

  std::uint64_t head() const { return ring_.head(); }
  std::uint64_t tail() const { return ring_.tail(); }
  std::int64_t drops() const { return drops_; }
  const std::string& name() const { return name_; }

 private:
  RingBuffer<PacketRef> ring_;
  PacketPool& pool_;
  std::string name_;
  std::int64_t drops_ = 0;
};

}  // namespace ceio
