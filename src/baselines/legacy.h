// Legacy DDIO datapath (the paper's "Baseline").
//
// Plain per-flow RX rings with an abundant buffer pool and no LLC
// management: every packet DMAs straight into the DDIO ways. Under load the
// in-flight I/O footprint exceeds the DDIO partition, buffers are evicted
// before the CPU reads them, and the datapath degrades to the extended path
// ❸ NIC -> LLC -> DRAM -> LLC -> CPU of Figure 3.
#pragma once

#include "iopath/datapath.h"

namespace ceio {

struct LegacyConfig {
  std::size_t ring_entries = 4096;  // per-flow RX descriptor ring
};

class LegacyDatapath : public DatapathBase {
 public:
  LegacyDatapath(EventScheduler& sched, PacketPool& packets, DmaEngine& dma,
                 MemoryController& mc, BufferPool& host_pool, const LegacyConfig& config = {})
      : DatapathBase(sched, packets, dma, mc, host_pool), config_(config) {}

  const char* name() const override { return "legacy-ddio"; }

 protected:
  void on_flow_registered(FlowState& fs) override {
    if (!fs.ring) fs.ring = std::make_unique<RxRing>(config_.ring_entries, packets_, "legacy-rx");
  }

 private:
  LegacyConfig config_;
};

}  // namespace ceio
