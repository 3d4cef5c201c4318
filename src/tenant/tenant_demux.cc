#include "tenant/tenant_demux.h"

#include <stdexcept>

namespace ceio::tenant {

void TenantDemux::add_tenant(std::unique_ptr<IoDatapath> datapath, FlowId first,
                             FlowId last) {
  if (first > last) throw std::invalid_argument("tenant flow block is empty");
  tenants_.push_back({std::move(datapath), first, last});
}

std::size_t TenantDemux::tenant_of_flow(FlowId flow) const {
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (flow >= tenants_[t].first && flow <= tenants_[t].last) return t;
  }
  return npos;
}

IoDatapath* TenantDemux::route(FlowId flow) {
  const std::size_t t = tenant_of_flow(flow);
  return t == npos ? nullptr : tenants_[t].datapath.get();
}

void TenantDemux::on_packet(PacketRef ref) {
  if (IoDatapath* dp = route(packets_.get(ref)->flow)) {
    dp->on_packet(ref);
  } else {
    packets_.release(ref);  // unmapped flow: dropped at the port
  }
}

void TenantDemux::register_flow(const FlowRuntime& rt) {
  IoDatapath* dp = route(rt.config.id);
  if (dp == nullptr) {
    throw std::invalid_argument("flow id is outside every tenant's block");
  }
  dp->register_flow(rt);
}

void TenantDemux::unregister_flow(FlowId id) {
  if (IoDatapath* dp = route(id)) dp->unregister_flow(id);
}

void TenantDemux::for_each_ring(const std::function<void(const RxRing&)>& fn) const {
  for (const auto& slot : tenants_) slot.datapath->for_each_ring(fn);
}

void TenantDemux::set_telemetry(Telemetry* tele) {
  for (auto& slot : tenants_) slot.datapath->set_telemetry(tele);
}

void TenantDemux::register_metrics(MetricRegistry& registry) {
  // Deliberately empty: the per-tenant datapaths would all claim the same
  // flat gauge names (ceio.*, path.*) and collide. TenantAssembly registers
  // the per-tenant subtrees under "tenant.<name>.*" instead.
  (void)registry;
}

}  // namespace ceio::tenant
