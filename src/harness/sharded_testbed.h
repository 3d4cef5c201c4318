// Sharded deployment harness: one simulated deployment partitioned into
// `sim.domains` conservative-lookahead event domains (sim/shard_coordinator.h),
// advanced by `sim.shards` worker threads.
//
// Partitioning. Each domain d is a complete vertical receiver slice — its own
// Testbed with LLC/DRAM/IIO, memory controller, PCIe/DMA, NIC, RMT and
// datapath — modelling one port/NUMA slice of a multi-port deployment. Flow
// f's receiver half (RX rings, pinned core, app state) lives in domain
// g = (f-1) % domains; its sender half (FlowSource, DCTCP state) lives in the
// ring neighbour s = (g+1) % domains, which owns one egress NetworkLink toward
// g. Both halves are built by, and recorded in, their domain's Testbed
// (Testbed::add_flow_receiver / add_flow_sender); a domain adds only its
// mailbox channels and the feedback proxies that stand in for remote sources.
// The link's queue, ECN marking and drops stay in the sender's domain; its
// propagation delay is spent as cross-domain mailbox transit and is exactly
// the conservative lookahead.
//
// Channels (one SPSC mailbox per ordered pair per type, so per-mailbox
// arrival times stay non-decreasing):
//   packets   s -> (s-1) % domains   delay = net.propagation (PacketBurst
//             batches with per-packet arrival stamps)
//   feedback  g -> (g+1) % domains   delay = net.propagation (delivered /
//             dropped / host-congestion / message-complete)
//   credits   d -> 0 and 0 -> d      delay = pcie.propagation (CEIO only:
//             the host shard rebalances the global credit budget)
//
// Host shard. Domain 0 arbitrates shared host resources: every
// sim.credit_epoch each CEIO datapath reports its credit demand, and domain 0
// redistributes the fixed global budget (sum of the per-domain Eq.-1 totals)
// proportionally to demand — so the paper's bounded-C_total contention model
// holds across the whole deployment, not per slice.
//
// Determinism. Bitwise: reports for shards=1 and shards=N are byte-identical
// at fixed sim.domains (the same contract the sweep runner gives --jobs, and
// what the check.sh shards gate enforces). Ingredients: deterministic mailbox
// merge order by (arrival, source domain, sender seq); per-domain RNG streams
// via derive_seed(seed, domain), with each flow's arrival stream keyed on
// (its sender domain's seed, flow id); and a phase schedule that depends only on
// the domain count and the lookahead. Changing sim.domains is a *scenario*
// change (different partitioning, ports and RNG streams) and legitimately
// changes results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/domain_annotations.h"
#include "common/units.h"
#include "harness/experiment.h"
#include "sim/shard_coordinator.h"

namespace ceio {
class FlowSource;
class Testbed;
}  // namespace ceio

namespace ceio::harness {

class DomainSlice;

class ShardedTestbed {
 public:
  /// Builds the full deployment (domains, channels, flows) from `spec`.
  /// Requires sim.domains >= 2 and a known app; throws std::invalid_argument
  /// otherwise, or when the derived lookahead is not positive.
  explicit ShardedTestbed(const ExperimentSpec& spec);
  ~ShardedTestbed();

  ShardedTestbed(const ShardedTestbed&) = delete;
  ShardedTestbed& operator=(const ShardedTestbed&) = delete;

  /// Advances every domain to `deadline` (absolute, global simulated time).
  void run_until(Nanos deadline);
  /// Clears per-flow meters and per-domain host stats at the current global
  /// time; reports cover the window from this call to now().
  void reset_measurement();
  Nanos now() const;

  /// Same shape as the single-domain runner's result: per-flow reports in id
  /// order (each from its sender domain's Testbed), aggregates in the same
  /// summation order, host stats merged over domains in domain order.
  RunResult collect() const;

  // ---- Introspection (tests, benches) ----
  int domains() const { return static_cast<int>(slices_.size()); }
  int shards() const;
  Nanos lookahead() const;
  std::uint64_t epochs_completed() const;
  Testbed& bed(int domain);
  /// The sender-side FlowSource (lives in domain (recv+1) % domains).
  FlowSource* source(FlowId id);
  /// Total mailbox-ring overflow spills across all channels.
  std::uint64_t mailbox_spills() const;

 private:
  friend class DomainSlice;

  /// The domains holding flow `id`'s receiver half and its sender half.
  int receiver_domain(FlowId id) const;
  int sender_domain(FlowId id) const;
  /// Host-shard credit arbitration: called by domain 0's events only.
  void on_credit_report(int src, std::int64_t demand);

  // Frozen at construction and read by every domain (flow layout, report
  // shape): SharedImmutable enforces const-only access across slices.
  SharedImmutable<ExperimentSpec> spec_;
  std::vector<std::unique_ptr<DomainSlice>> slices_;
  FlowId flow_count_ = 0;  // flows are ids 1..flow_count_

  // Host-shard arbitration state (touched only by domain 0's events).
  std::int64_t global_credits_ = 0;
  std::vector<std::int64_t> demand_;
  std::vector<std::int64_t> share_;
  int reports_ = 0;

  std::unique_ptr<ShardCoordinator> coordinator_;  // after slices_: dies first
};

}  // namespace ceio::harness
