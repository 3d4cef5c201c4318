#include "layers.h"

#include <algorithm>

#include "json.h"

namespace perfbench {

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  const std::int64_t peak = std::max(nicmem_peak_bytes, o.nicmem_peak_bytes);
  for (const auto f : kFields) this->*f += o.*f;
  nicmem_peak_bytes = peak;
  return *this;
}

LayerCounts LayerCounts::delta(const LayerCounts& later, const LayerCounts& earlier) {
  LayerCounts d;
  for (const auto f : kFields) d.*f = later.*f - earlier.*f;
  d.nicmem_peak_bytes = later.nicmem_peak_bytes;
  return d;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void write_layer_metrics(JsonWriter& out, const LayerCounts& c, const LayerTimes& t) {
  const auto count = [&out](const char* name, std::int64_t v) {
    out.field(name, static_cast<double>(v));
  };
  const auto real = [&out](const char* name, double v) { out.field(name, v); };
  constexpr double kMiB = 1024.0 * 1024.0;

  count("sched.events", c.sched_events);
  real("sched.events_per_pkt",
       ratio(static_cast<double>(c.sched_events), static_cast<double>(c.net_sent)));
  real("sched.ns_per_event", t.sched_ns_per_event);

  count("shard.epochs", c.shard_epochs);
  real("shard.us_per_epoch", t.shard_us_per_epoch);
  real("shard.sync_ns", t.shard_sync_ns);
  real("shard.speedup", t.shard_speedup);
  count("shard.mailbox_spills", c.shard_spills);

  count("llc.ddio_writes", c.llc_ddio_writes);
  count("llc.cpu_hits", c.llc_hits);
  count("llc.cpu_misses", c.llc_misses);
  count("llc.premature_evictions", c.llc_premature);
  count("llc.writebacks", c.llc_writebacks);
  real("llc.ns_per_op", t.llc_ns_per_op);

  count("dram.requests", c.dram_requests);
  real("dram.busy_us", static_cast<double>(c.dram_busy_ns) / 1e3);
  count("mc.iio_stalls", c.mc_iio_stalls);

  count("cpu.packets", c.cpu_packets);
  real("cpu.busy_us", static_cast<double>(c.cpu_busy_ns) / 1e3);
  real("cpu.mem_stall_us", static_cast<double>(c.cpu_stall_ns) / 1e3);

  count("dma.writes", c.dma_writes);
  count("dma.reads", c.dma_reads);
  real("pcie.up_mib", static_cast<double>(c.pcie_up_bytes) / kMiB);
  real("pcie.down_mib", static_cast<double>(c.pcie_down_bytes) / kMiB);

  count("nic.rx_packets", c.nic_rx);
  count("nicmem.reads", c.nicmem_reads);
  count("nicmem.writes", c.nicmem_writes);
  real("nicmem.peak_kib", static_cast<double>(c.nicmem_peak_bytes) / 1024.0);

  count("net.pkts_sent", c.net_sent);
  count("net.pkts_dropped", c.net_dropped);

  count("ceio.to_slow", c.ceio_to_slow);
  count("ceio.to_fast", c.ceio_to_fast);
  count("ceio.reclaims", c.ceio_reclaims);
  count("ceio.cca_triggers", c.ceio_cca);
  count("ebuf.buffered_pkts", c.ebuf_buffered);
  count("ebuf.drained_pkts", c.ebuf_drained);

  count("policy.repartitions", c.policy_repartitions);

  count("app.calls", c.app_calls);
  real("app.ns_per_call", t.app_ns_per_call);

  real("setup.us_per_flow", t.setup_us_per_flow);
  real("flow.state_kib", t.flow_state_kib);
}

}  // namespace perfbench
