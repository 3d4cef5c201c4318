#include "ceio/elastic_buffer.h"

#include <utility>

#include "telemetry/telemetry.h"

namespace ceio {

ElasticBuffer::ElasticBuffer(EventScheduler& sched, PacketPool& packets, NicMemory& nic_mem,
                             DmaEngine& dma, std::size_t drain_window, LandedHandler handler,
                             IssueGate gate)
    : sched_(sched),
      packets_(packets),
      nic_mem_(nic_mem),
      dma_(dma),
      handler_(std::move(handler)),
      gate_(std::move(gate)),
      drain_window_(static_cast<int>(drain_window)) {}

bool ElasticBuffer::buffer_packet(PacketRef ref) {
  const Bytes size = packets_.get(ref)->size;
  if (!nic_mem_.allocate(size)) {
    ++stats_.dropped_pkts;
    return false;
  }
  // The write into on-NIC DRAM happens off the critical path; the descriptor
  // becomes drainable once the write completes.
  const Nanos written = nic_mem_.write(sched_.now(), size);
  stats_.buffered_bytes += size;
  ++stats_.buffered_pkts;
  ++pending_writes_;
  sched_.schedule_at(written, [this, ref]() {
    --pending_writes_;
    if (discarded_) {
      packets_.release(ref);
      return;
    }
    ring_.push_back(ref);
    CEIO_T_COUNTER(tele_, TraceTrack::kElasticBuffer, "elastic.ring_depth", sched_.now(),
                   static_cast<double>(ring_.size()));
    if (draining_) issue_ready();
  });
  return true;
}

void ElasticBuffer::discard() {
  if (draining_) return;  // the running drain reads everything out
  discarded_ = true;
  while (!ring_.empty()) packets_.release(ring_.pop_front());
}

void ElasticBuffer::drain() {
  draining_ = true;
  issue_ready();
}

void ElasticBuffer::issue_ready() {
  while (in_flight_ < drain_window_ && !ring_.empty() &&
         (!gate_ || gate_())) {
    const PacketRef ref = ring_.pop_front();
    ++in_flight_;
    CEIO_T_COUNTER(tele_, TraceTrack::kElasticBuffer, "elastic.in_flight", sched_.now(),
                   static_cast<double>(in_flight_));
    const Bytes size = packets_.get(ref)->size;
    dma_.read_from_nic(
        size, [this, size](Nanos issue) { return nic_mem_.read(issue, size); },
        [this, ref, size](Nanos now) {
          nic_mem_.free(size);
          --in_flight_;
          ++stats_.drained_pkts;
          if (idle()) draining_ = false;  // drain satisfied; re-arm on demand
          handler_(ref, now);
          if (draining_) issue_ready();
        });
  }
}

}  // namespace ceio
