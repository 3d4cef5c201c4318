// The benchmark's workloads and the deployments that run them.
//
// A workload is a fixed simulated shape (testbed config, flows, windows)
// plus the number of independently seeded simulations one round runs. A
// Deployment builds one simulation of that shape through the simulator's
// public API — Testbed (+ TenantAssembly) for single-domain workloads,
// ShardedTestbed for the sharded one — and exposes the per-layer stats()
// accessors the benchmark reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/application.h"
#include "harness/experiment.h"
#include "layers.h"
#include "spans.h"

namespace ceio {
class KvStore;
class Testbed;
class FlowSource;
namespace harness {
class ShardedTestbed;
}
namespace tenant {
class TenantAssembly;
}
}  // namespace ceio

namespace perfbench {

struct WorkloadDef {
  std::string name;
  ceio::harness::ExperimentSpec spec;
  /// Independently seeded simulations per round (sub-seed i of run seed s
  /// is derive_seed(s, i)); simulated metrics are medians over them.
  int subseeds = 1;
  /// Worker threads of an untimed reference round whose outputs must equal
  /// the timed rounds' (0: no reference round).
  int reference_shards = 0;
  /// The measured window runs as this many run calls (calibration points
  /// between them; spans per slice in the traced run).
  int measure_slices = 1;
  /// Tenant whose flows give sim_p99_us; empty means every flow.
  std::string tail_tenant;
};

/// Fills `out` for a workload name (kv | multitenant | shardkv). `shortened`
/// gives the same shape over short windows with fewer sub-seeds (tests).
bool workload_def(const std::string& name, bool shortened, WorkloadDef* out);

/// Forwarding Application wrapper: counts calls into the wrapped app and,
/// when timed, accumulates the host time they take.
class CountingApp final : public ceio::Application {
 public:
  CountingApp(ceio::Application& inner, bool timed) : inner_(inner), timed_(timed) {}

  const char* name() const override { return inner_.name(); }
  bool per_packet_cpu() const override { return inner_.per_packet_cpu(); }
  bool reads_delivered_data() const override { return inner_.reads_delivered_data(); }
  ceio::AppPacketCosts packet_costs(const ceio::Packet& pkt) override;
  ceio::AppMessageCosts message_costs(const ceio::Packet& last_pkt) override;

  ceio::Application& inner() { return inner_; }
  std::int64_t packet_calls() const { return packet_calls_; }
  std::int64_t calls() const { return packet_calls_ + message_calls_; }
  std::int64_t ns() const { return ns_; }

 private:
  ceio::Application& inner_;
  bool timed_;
  std::int64_t packet_calls_ = 0;
  std::int64_t message_calls_ = 0;
  std::int64_t ns_ = 0;
};

struct FlowCounts {
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
};

struct FlowInfo {
  ceio::FlowId id = 0;
  int kind = 0;   // 0 = CPU-involved, 1 = CPU-bypass
  int group = 0;  // tenant index (0 when untenanted)
  double rate_bps = 0.0;
  std::int64_t packet_bytes = 0;
  std::int64_t start_ns = 0;  // when the source starts emitting
  bool paced = true;          // fixed packet gap (not Poisson)
  bool tail = true;           // among the flows sim_p99_us summarises
};

class Deployment {
 public:
  /// Builds the deployment for sub-seed `seed`. Spans for set-up go to
  /// `spans`; `rss_probe` records resident memory around flow creation.
  Deployment(const WorkloadDef& def, std::uint64_t seed, int shards, bool time_apps,
             Spans& spans, bool rss_probe);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void run_until(ceio::Nanos t);
  void reset_measurement();
  ceio::Nanos now() const;

  const std::vector<FlowInfo>& flows() const { return flows_; }
  FlowCounts counts(ceio::FlowId id);
  /// Per-flow reports in id order plus the program's aggregates.
  ceio::harness::RunResult collect();
  /// The reports of the flows whose tails sim_p99_us summarises.
  std::vector<ceio::FlowReport> tail_flows(const ceio::harness::RunResult& result) const;

  /// Sum of every layer's stats() over all domains, right now.
  LayerCounts snapshot();
  /// Registers the model's invariant pack on every domain (and the tenant
  /// invariants) and sweeps it once; returns the violations found. Called
  /// when the run ends, so the pack never sweeps inside a timed window.
  std::vector<std::string> audit_now();
  /// (occupancy, way capacity) of every tenant's DDIO slice on every domain;
  /// the whole DDIO partition counts as one tenant when untenanted.
  std::vector<std::pair<std::int64_t, std::int64_t>> ddio_occupancy();
  /// KV apps reachable through the wrappers: gets, puts, packet calls.
  struct KvCounts {
    std::int64_t gets = 0, puts = 0, calls = 0;
  };
  std::vector<KvCounts> kv_counts();
  /// Mean pending scheduler events per domain (probe sizing).
  double mean_pending_events();
  /// Domain 0's current per-tenant exclusive DDIO ways (empty if untenanted).
  std::vector<int> llc_tenant_ways();

  bool sharded() const { return sharded_ != nullptr; }
  int domains() const;
  int shards() const;
  ceio::Nanos lookahead() const;
  std::int64_t rss_flow_bytes() const { return rss_flow_bytes_; }
  std::int64_t app_ns() const;

 private:
  std::vector<ceio::Testbed*> beds();
  ceio::FlowSource* source(ceio::FlowId id);

  std::unique_ptr<ceio::Testbed> bed_;
  std::unique_ptr<ceio::tenant::TenantAssembly> assembly_;
  std::unique_ptr<ceio::harness::ShardedTestbed> sharded_;
  std::vector<std::unique_ptr<CountingApp>> apps_;
  std::vector<FlowInfo> flows_;  // index = flow id - 1
  std::int64_t rss_flow_bytes_ = 0;
};

/// Current resident set of this process, in bytes.
std::int64_t resident_bytes();

}  // namespace perfbench
