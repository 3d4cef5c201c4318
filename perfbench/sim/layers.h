// Per-layer counters read from the simulator's public stats() accessors,
// summed over event domains.
#pragma once

#include <cstdint>

namespace perfbench {

class JsonWriter;

struct LayerCounts {
  // scheduler
  std::int64_t sched_events = 0;
  // shard coordinator
  std::int64_t shard_epochs = 0;
  std::int64_t shard_spills = 0;
  // LLC
  std::int64_t llc_ddio_writes = 0;
  std::int64_t llc_hits = 0;
  std::int64_t llc_misses = 0;
  std::int64_t llc_premature = 0;
  std::int64_t llc_writebacks = 0;
  // DRAM + memory controller
  std::int64_t dram_requests = 0;
  std::int64_t dram_busy_ns = 0;
  std::int64_t mc_iio_stalls = 0;
  // CPU cores (single-domain deployments only: a sharded deployment keeps
  // its cores private to its domain slices)
  std::int64_t cpu_packets = 0;
  std::int64_t cpu_busy_ns = 0;
  std::int64_t cpu_stall_ns = 0;
  // PCIe + DMA
  std::int64_t dma_writes = 0;
  std::int64_t dma_reads = 0;
  std::int64_t pcie_up_bytes = 0;
  std::int64_t pcie_down_bytes = 0;
  // NIC + on-NIC memory
  std::int64_t nic_rx = 0;
  std::int64_t nicmem_reads = 0;
  std::int64_t nicmem_writes = 0;
  std::int64_t nicmem_peak_bytes = 0;  // summed over domains; a level in deltas and sums
  // flow sources + link
  std::int64_t net_sent = 0;
  std::int64_t net_dropped = 0;
  // CEIO datapath, credits and elastic buffer
  std::int64_t ceio_to_slow = 0;
  std::int64_t ceio_to_fast = 0;
  std::int64_t ceio_reclaims = 0;
  std::int64_t ceio_cca = 0;
  std::int64_t ebuf_buffered = 0;
  std::int64_t ebuf_drained = 0;  // buffered minus what still sits on the NIC or in flight
  // way controller
  std::int64_t policy_repartitions = 0;
  // apps (through the forwarding wrapper)
  std::int64_t app_calls = 0;

  /// Sums two runs' counters; the peak is the larger of the two.
  LayerCounts& operator+=(const LayerCounts& o);
  /// `later - earlier`, with levels taken from `later`.
  static LayerCounts delta(const LayerCounts& later, const LayerCounts& earlier);

  /// Every counter, in a fixed order (sums, deltas, result digests).
  static constexpr std::int64_t LayerCounts::*kFields[] = {
      &LayerCounts::sched_events,    &LayerCounts::shard_epochs,
      &LayerCounts::shard_spills,    &LayerCounts::llc_ddio_writes,
      &LayerCounts::llc_hits,        &LayerCounts::llc_misses,
      &LayerCounts::llc_premature,   &LayerCounts::llc_writebacks,
      &LayerCounts::dram_requests,   &LayerCounts::dram_busy_ns,
      &LayerCounts::mc_iio_stalls,   &LayerCounts::cpu_packets,
      &LayerCounts::cpu_busy_ns,     &LayerCounts::cpu_stall_ns,
      &LayerCounts::dma_writes,      &LayerCounts::dma_reads,
      &LayerCounts::pcie_up_bytes,   &LayerCounts::pcie_down_bytes,
      &LayerCounts::nic_rx,          &LayerCounts::nicmem_reads,
      &LayerCounts::nicmem_writes,   &LayerCounts::nicmem_peak_bytes,
      &LayerCounts::net_sent,        &LayerCounts::net_dropped,
      &LayerCounts::ceio_to_slow,    &LayerCounts::ceio_to_fast,
      &LayerCounts::ceio_reclaims,   &LayerCounts::ceio_cca,
      &LayerCounts::ebuf_buffered,   &LayerCounts::ebuf_drained,
      &LayerCounts::policy_repartitions, &LayerCounts::app_calls,
  };
};

/// Host-time figures of the traced run that complete the per-layer table.
struct LayerTimes {
  double sched_ns_per_event = 0.0;   // scheduler probe
  double shard_us_per_epoch = 0.0;   // measured window host time / epochs
  double shard_sync_ns = 0.0;        // empty-epoch coordinator probe
  double shard_speedup = 0.0;        // measured window at 1 shard / at N
  double llc_ns_per_op = 0.0;        // LLC replay probe
  double app_ns_per_call = 0.0;      // forwarding wrapper
  double setup_us_per_flow = 0.0;    // set-up span / flows
  double flow_state_kib = 0.0;       // resident growth per flow
};

/// Writes every per-layer metric as {"name": value, ...} entries.
void write_layer_metrics(JsonWriter& out, const LayerCounts& c, const LayerTimes& t);

}  // namespace perfbench
