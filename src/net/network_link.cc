#include "net/network_link.h"

#include <algorithm>

namespace ceio {

Bytes NetworkLink::queue_depth(Nanos now) const {
  // Backlog implied by the serializer's reservation horizon: bytes that have
  // been admitted but not yet put on the wire.
  if (egress_free_ <= now) return Bytes{0};
  const double backlog_ns = static_cast<double>((egress_free_ - now).count());
  return Bytes{static_cast<std::int64_t>(backlog_ns * config_.rate.count() / 8.0 / 1e9)};
}

void NetworkLink::send(const Packet& pkt) {
  const Nanos now = sched_.now();
  const Bytes depth = queue_depth(now);
  if (depth + pkt.size > config_.queue_capacity) {
    ++stats_.drops;
    if (on_drop_) on_drop_(pkt);
    return;
  }
  const PacketRef ref = packets_.make(pkt);
  if (depth >= config_.ecn_threshold) {
    packets_.get(ref)->ecn = true;
    ++stats_.ecn_marks;
  }
  stats_.peak_queue = std::max(stats_.peak_queue, depth + pkt.size);
  ++stats_.packets;
  stats_.bytes += pkt.size;

  const Nanos start = std::max(now, egress_free_);
  egress_free_ = start + transmit_time(pkt.size, config_.rate);
  // Egress mode hands the packet off at serialization exit; the propagation
  // is accounted as cross-domain transit by the harness.
  const Nanos at = nic_ != nullptr ? egress_free_ + config_.propagation : egress_free_;
  arrivals_.push(at, ref);
}

}  // namespace ceio
