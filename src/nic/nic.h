// NIC RX pipeline shell.
//
// The NIC receives packets from the network link, charges the (small)
// per-packet firmware pipeline cost, and hands each packet to the attached
// I/O datapath. The four systems under study (legacy, HostCC, ShRing, CEIO)
// are all `PacketSink`s composed from the same substrates — the NIC itself
// is policy-free.
//
// Packets pass through as PacketRef handles into the event domain's one
// PacketPool: the NIC stamps the parked packet in place and hands the sink
// the handle, which then owns it. The NIC stores no packets of its own.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "nic/packet.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"
#include "telemetry/telemetry.h"

namespace ceio {

/// Receives packets at the exit of the NIC RX pipeline. The sink takes
/// ownership of the handle: it must eventually release it (or pass it on).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(PacketRef ref) = 0;
};

struct NicConfig {
  // BlueField-3 processes small packets at line rate; the pipeline cost only
  // matters as a serialization floor.
  Nanos per_packet_cost{4};
};

struct NicRxStats {
  std::int64_t packets = 0;
  Bytes bytes{0};
};

class Nic {
 public:
  Nic(EventScheduler& sched, PacketPool& packets, const NicConfig& config = {})
      : sched_(sched),
        packets_(packets),
        config_(config),
        egress_(sched, [this](Nanos, PacketRef ref) {
          if (sink_ != nullptr) {
            sink_->on_packet(ref);
          } else {
            packets_.release(ref);
          }
        }) {}

  void attach(PacketSink* sink) { sink_ = sink; }

  /// Attaches a trace sink: records the per-packet path-trace origin hop.
  void set_telemetry(Telemetry* tele) { tele_ = tele; }

  /// Registers nic.rx.* gauges.
  void register_metrics(MetricRegistry& registry) const {
    registry.add_gauge("nic.rx.packets",
                       [this]() { return static_cast<double>(stats_.packets); });
    registry.add_gauge("nic.rx.bytes",
                       [this]() { return static_cast<double>(stats_.bytes.count()); });
  }

  /// Entry point for the network link: packet hits the RX MAC. Pipeline
  /// exits are serialised on per_packet_cost, so exit times are
  /// non-decreasing and the whole RX pipeline is one coalesced stream:
  /// back-to-back packets drain through the firmware in a single event
  /// (each still delivered at its exact per-packet exit time).
  void receive(PacketRef ref) {
    Packet& pkt = *packets_.get(ref);
    ++stats_.packets;
    stats_.bytes += pkt.size;
    const Nanos start = sched_.now() > pipeline_free_ ? sched_.now() : pipeline_free_;
    pipeline_free_ = start + config_.per_packet_cost;
    pkt.nic_arrival = pipeline_free_;
    CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kNicArrival, pipeline_free_);
    egress_.push(pipeline_free_, ref);
  }

  const NicRxStats& stats() const { return stats_; }

 private:
  EventScheduler& sched_;
  PacketPool& packets_;
  NicConfig config_;
  PacketSink* sink_ = nullptr;
  Nanos pipeline_free_{0};
  NicRxStats stats_;
  Telemetry* tele_ = nullptr;
  CoalescedStream<PacketRef> egress_;
};

}  // namespace ceio
