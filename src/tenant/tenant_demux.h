// TenantDemux: one IoDatapath fronting several per-tenant datapaths.
//
// Each tenant owns a contiguous flow-id block; the demux routes packets and
// flow registrations to the owning tenant's datapath and fans management
// calls (ring sweeps, telemetry, metrics) out to all of them. This is what a
// multi-tenant NIC does in hardware: per-tenant queues and rings behind one
// physical port.
#pragma once

#include <memory>
#include <vector>

#include "iopath/datapath.h"

namespace ceio::tenant {

class TenantDemux final : public IoDatapath {
 public:
  /// `packets`: the domain's pool, shared with the tenant datapaths.
  explicit TenantDemux(PacketPool& packets) : packets_(packets) {}

  /// Adds a tenant datapath owning flow ids in [first, last].
  void add_tenant(std::unique_ptr<IoDatapath> datapath, FlowId first, FlowId last);

  IoDatapath* tenant_datapath(std::size_t tenant) {
    return tenants_[tenant].datapath.get();
  }
  std::size_t tenant_count() const { return tenants_.size(); }
  /// Index of the tenant owning `flow`, or npos when unmapped.
  std::size_t tenant_of_flow(FlowId flow) const;

  const char* name() const override { return "tenant-demux"; }
  void on_packet(PacketRef ref) override;
  void register_flow(const FlowRuntime& rt) override;
  void unregister_flow(FlowId id) override;
  void for_each_ring(const std::function<void(const RxRing&)>& fn) const override;
  void set_telemetry(Telemetry* tele) override;
  void register_metrics(MetricRegistry& registry) override;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  struct Slot {
    std::unique_ptr<IoDatapath> datapath;
    FlowId first = 0;
    FlowId last = 0;
  };
  IoDatapath* route(FlowId flow);
  PacketPool& packets_;
  std::vector<Slot> tenants_;
};

}  // namespace ceio::tenant
