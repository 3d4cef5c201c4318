// Declarative experiment spec + runner over the Testbed.
//
// An ExperimentSpec is a complete, reflected description of one run: the
// full TestbedConfig, a workload (application + flow shape), and the
// warmup/measure windows. Because the spec is reflected (see visit_fields
// below), it parses from scenario files and `--set key=value` overrides,
// prints, diffs and validates exactly like any config struct — and the
// TestbedConfig fields are inlined at the top level, so `llc.ddio_ways=4`
// and `workload.flows=16` address one spec.
//
// run_experiment() reproduces the canonical run loop every CLI/bench used
// to hand-roll: build the Testbed (or, with sim.domains > 1, the
// ShardedTestbed), mount the tenant assembly or the application
// (MountedApps), add the flows in id order (for_each_flow: `workload.flows`
// identical flows, or each tenant's block), warm up, reset measurement,
// optionally switch tracing on, run the measure window, and collect a
// RunResult. The construction order (apps first, then flows in id order) is
// part of the contract: the KV store populates itself from the Testbed Rng,
// so reordering would change every downstream random draw and break
// bit-reproducibility.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/schema.h"
#include "iopath/testbed.h"
#include "tenant/tenant_bed.h"

namespace ceio::harness {

/// Application + flow shape for the canonical single-phase experiment.
struct WorkloadSpec {
  /// kv | echo | vxlan | linefs | rdma (linefs/rdma are CPU-bypass).
  std::string app = "kv";
  int flows = 8;
  BitsPerSec offered_rate = gbps(25.0);
  Bytes packet_size{512};
  /// Bypass message size in KiB (linefs/rdma); ignored for involved apps.
  std::int64_t chunk_kb = 1024;
  /// Explicit packets per message; 0 derives it (bypass: chunk_kb over the
  /// effective packet size; involved: 1).
  std::uint32_t message_pkts = 0;
  bool poisson = false;
  int closed_loop = 0;
  Nanos burst_on{0};
  Nanos burst_off{0};
};

struct ExperimentSpec {
  TestbedConfig testbed;
  WorkloadSpec workload;
  /// Multi-tenant co-location (tenant.enabled=true replaces `workload` with
  /// the per-tenant flow shapes) and the DDIO way-partition controller.
  tenant::TenantSetConfig tenant;
  tenant::WayControllerConfig controller;
  Nanos warmup = millis(2);
  Nanos measure = millis(5);
};

/// Everything a run produces; formatting stays in the callers so existing
/// outputs remain byte-identical.
struct RunResult {
  std::vector<FlowReport> flows;
  double aggregate_mpps = 0.0;
  double aggregate_gbps = 0.0;          // display metric (lint: allow-raw-unit-param)
  double aggregate_message_gbps = 0.0;  // display metric (lint: allow-raw-unit-param)
  double llc_miss_rate = 0.0;
  std::int64_t premature_evictions = 0;
  double dram_utilization = 0.0;
  // CEIO runtime counters (valid when has_ceio).
  bool has_ceio = false;
  std::int64_t ceio_total_credits = 0;
  std::int64_t ceio_to_slow = 0;
  std::int64_t ceio_to_fast = 0;
  std::int64_t ceio_cca_triggers = 0;
  std::int64_t ceio_reclaims = 0;
  // Multi-tenant runs: one report per tenant (empty otherwise) plus the
  // controller's way-migration count.
  std::vector<tenant::TenantReport> tenants;
  std::int64_t way_repartitions = 0;
};

/// True for the CPU-bypass applications (linefs, rdma).
bool is_bypass_app(const std::string& app);

/// Creates the named application on `bed` (Testbed::make_app). Returns
/// nullptr for an unknown name.
Application* make_app(Testbed& bed, const std::string& app);

/// The FlowConfig the canonical runner gives flow `id` under `w` — exposed
/// so callers composing custom phase logic build identical flows.
FlowConfig flow_config(FlowId id, const WorkloadSpec& w);

/// Maps one tenant's flow shape onto the canonical WorkloadSpec so that
/// flow_config() builds bit-identical flows for single-domain and sharded
/// multi-tenant runs.
WorkloadSpec tenant_workload(const tenant::TenantConfig& cfg);

/// The applications `spec` mounts on one Testbed ahead of its flows: the full
/// tenant assembly in tenant mode (its demux maps every flow id), else the
/// one workload app. Throws std::invalid_argument for an unknown app.
class MountedApps {
 public:
  MountedApps(Testbed& bed, const ExperimentSpec& spec);
  /// The application serving flow `id`.
  Application& app_of(FlowId id);
  /// Non-null in tenant mode.
  tenant::TenantAssembly* assembly() { return assembly_.get(); }
  const tenant::TenantAssembly* assembly() const { return assembly_.get(); }

 private:
  std::unique_ptr<tenant::TenantAssembly> assembly_;
  Application* app_ = nullptr;
};

/// Hands every flow of `spec` to `add`, in id order: each tenant's roster
/// block (tenant_workload shapes) in tenant mode, else `workload.flows`
/// identical flows. Single-domain and sharded runs both build from this.
void for_each_flow(const ExperimentSpec& spec,
                   const std::function<void(const FlowConfig&)>& add);

/// Flow-derived columns of the per-tenant reports: aggregates over each
/// tenant's flow-id block of `flows` (which must cover all roster flows).
std::vector<tenant::TenantReport> tenant_flow_reports(
    const std::vector<tenant::TenantRosterEntry>& roster,
    const std::vector<FlowReport>& flows);

/// Warm up for `warmup`, reset measurement, then run `measure` — the
/// settle-then-measure window every scenario uses.
void settle_and_measure(Testbed& bed, Nanos warmup, Nanos measure);

/// Collects a RunResult from the testbed's current measurement window.
RunResult collect_result(Testbed& bed);

/// The canonical single-phase experiment (see file comment for the exact
/// sequence), single-domain or sharded by sim.domains. The spec must pass
/// config::validate and name a known app.
///
/// A non-empty `trace_prefix` records the measure window: telemetry is
/// switched on right after the warmup reset (plus the tenant assembly's
/// `tenant.<name>.*` gauges), and `<prefix>.trace.json` (Chrome trace-event
/// JSON for Perfetto) and `<prefix>.timeseries.csv` are written afterwards,
/// with a summary on stderr. Tracing only observes: the RunResult is the
/// untraced one. Both files are opened before the run, so an unwritable
/// prefix throws std::runtime_error up front; a traced sharded spec
/// (sim.domains > 1) throws std::invalid_argument.
RunResult run_experiment(const ExperimentSpec& spec, const std::string& trace_prefix = {});

/// Flow-count-weighted mean of per-flow p99/p999 (integer Nanos division,
/// matching the historical bench arithmetic) plus total drops.
struct TailSummary {
  Nanos p99{0};
  Nanos p999{0};
  std::int64_t drops = 0;
};
TailSummary average_tails(const std::vector<FlowReport>& reports);

/// Kind-filtered aggregates over collected reports — same summation order
/// as Testbed::aggregate_*, so results are bit-identical to querying the
/// live testbed.
double aggregate_mpps(const std::vector<FlowReport>& reports,
                      std::optional<FlowKind> kind = std::nullopt);
double aggregate_gbps(const std::vector<FlowReport>& reports,
                      std::optional<FlowKind> kind = std::nullopt);
double aggregate_message_gbps(const std::vector<FlowReport>& reports,
                              std::optional<FlowKind> kind = std::nullopt);

}  // namespace ceio::harness

// ---- reflection ------------------------------------------------------------

namespace ceio::harness {

template <class V>
void visit_fields(WorkloadSpec& c, V&& v) {
  v.field("app", c.app);
  v.field("flows", c.flows, 1, 1 << 20);
  v.field("offered_rate", c.offered_rate);
  v.field("packet_size", c.packet_size, Bytes{1}, Bytes{64 * kKiB});
  v.field("chunk_kb", c.chunk_kb, std::int64_t{1}, std::int64_t{1} << 30);
  v.field("message_pkts", c.message_pkts);
  v.field("poisson", c.poisson);
  v.field("closed_loop", c.closed_loop, 0, 1 << 20);
  v.field("burst_on", c.burst_on, Nanos{0}, Nanos::max());
  v.field("burst_off", c.burst_off, Nanos{0}, Nanos::max());
}

template <class V>
void visit_fields(ExperimentSpec& c, V&& v) {
  // Testbed fields are inlined (no prefix): `llc.ddio_ways`, `system`,
  // `seed`, ... address the testbed directly, as the CLI documents.
  visit_fields(c.testbed, v);
  v.nested("workload", c.workload);
  v.nested("tenant", c.tenant);
  v.nested("controller", c.controller);
  v.field("warmup", c.warmup, Nanos{0}, seconds(100));
  v.field("measure", c.measure, Nanos{1}, seconds(100));
}

}  // namespace ceio::harness
