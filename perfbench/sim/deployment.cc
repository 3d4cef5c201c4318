#include "deployment.h"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "apps/kv_store.h"
#include "audit/model_auditor.h"
#include "harness/sharded_testbed.h"
#include "iopath/testbed.h"
#include "tenant/tenant_bed.h"

namespace perfbench {

using ceio::FlowId;
using ceio::Nanos;

namespace {

/// The shapes are the registered presets (ceio-kv-short, multitenant-short,
/// sharded-kv-short) with the windows and flow counts the README explains.
ceio::harness::ExperimentSpec kv_spec() {
  ceio::harness::ExperimentSpec s;
  s.testbed.system = ceio::SystemKind::kCeio;
  s.workload.app = "kv";
  s.workload.flows = 8;
  s.workload.offered_rate = ceio::gbps(25.0);
  s.workload.packet_size = ceio::Bytes{512};
  s.warmup = ceio::millis(2);
  s.measure = ceio::millis(8);
  return s;
}

ceio::harness::ExperimentSpec multitenant_spec() {
  ceio::harness::ExperimentSpec s;
  s.testbed.system = ceio::SystemKind::kCeio;
  s.testbed.llc.total_bytes = 3 * ceio::kMiB;
  s.tenant.enabled = true;
  s.controller.enabled = true;
  s.controller.policy = ceio::tenant::PartitionPolicy::kReactive;
  // Each seed's lc P99 is set by where the controller's early way moves
  // land, not by window length, so the benchmark takes many short seeded
  // runs (see README) rather than one long one.
  s.warmup = ceio::millis(1);
  s.measure = ceio::millis(1);
  return s;
}

ceio::harness::ExperimentSpec shardkv_spec() {
  ceio::harness::ExperimentSpec s = kv_spec();
  s.testbed.sim.domains = 4;
  // Timed at one worker thread: with two, five runs on a 4-vCPU Xeon read
  // 61k to 124k packets/s (README). Two run the reference round.
  s.testbed.sim.shards = 1;
  // 1024 flows per domain is the most the model carries without drops.
  s.workload.flows = 4096;
  s.workload.offered_rate = ceio::gbps(0.0390625);  // 160 Gbps in total
  s.measure = ceio::millis(4);
  return s;
}

/// splitmix64: the benchmark's own stream for flow phases, apart from the
/// simulator's RNG streams.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed-drawn start instant of a flow, uniform in [gap, 2 gap): a paced
/// source emits its first packet at its start but never before one packet
/// gap has passed, so this puts each client at a random phase of its
/// pacing period — independent clients are not in lockstep.
std::int64_t start_ns(std::uint64_t seed, FlowId id, const ceio::FlowConfig& fc) {
  const std::int64_t gap = ceio::transmit_time(fc.packet_size, fc.offered_rate).count();
  const double u = static_cast<double>(mix(seed ^ mix(id)) >> 11) * 0x1.0p-53;
  return gap + static_cast<std::int64_t>(u * static_cast<double>(gap));
}

FlowInfo flow_info(const ceio::FlowConfig& fc, int group, std::int64_t start) {
  FlowInfo f;
  f.id = fc.id;
  f.kind = fc.kind == ceio::FlowKind::kCpuBypass ? 1 : 0;
  f.group = group;
  f.rate_bps = fc.offered_rate.count();
  f.packet_bytes = fc.packet_size.count();
  f.start_ns = start;
  f.paced = !fc.poisson;
  return f;
}

}  // namespace

bool workload_def(const std::string& name, bool shortened, WorkloadDef* out) {
  WorkloadDef d;
  d.name = name;
  if (name == "kv") {
    d.spec = kv_spec();
    d.subseeds = 4;
    d.measure_slices = 4;
  } else if (name == "multitenant") {
    d.spec = multitenant_spec();
    d.subseeds = 160;
    d.tail_tenant = "lc";
  } else if (name == "shardkv") {
    d.spec = shardkv_spec();
    d.subseeds = 1;
    d.reference_shards = 2;
    d.measure_slices = 8;
  } else {
    return false;
  }
  if (shortened) {
    d.spec.warmup = ceio::micros(500);
    d.spec.measure = ceio::micros(500);
    d.subseeds = std::min(d.subseeds, 2);
  }
  *out = d;
  return true;
}

ceio::AppPacketCosts CountingApp::packet_costs(const ceio::Packet& pkt) {
  ++packet_calls_;
  if (!timed_) return inner_.packet_costs(pkt);
  const std::int64_t t0 = host_ns();
  const ceio::AppPacketCosts out = inner_.packet_costs(pkt);
  ns_ += host_ns() - t0;
  return out;
}

ceio::AppMessageCosts CountingApp::message_costs(const ceio::Packet& last_pkt) {
  ++message_calls_;
  if (!timed_) return inner_.message_costs(last_pkt);
  const std::int64_t t0 = host_ns();
  const ceio::AppMessageCosts out = inner_.message_costs(last_pkt);
  ns_ += host_ns() - t0;
  return out;
}

std::int64_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE) : 0;
}

Deployment::Deployment(const WorkloadDef& def, std::uint64_t seed, int shards, bool time_apps,
                       Spans& spans, bool rss_probe) {
  const ceio::harness::ExperimentSpec& spec = def.spec;
  if (spec.testbed.sim.domains > 1) {
    ceio::harness::ExperimentSpec s = spec;
    s.testbed.seed = seed;
    s.testbed.sim.shards = shards;
    const std::int64_t rss0 = rss_probe ? resident_bytes() : 0;
    {
      Spans::Scope span(spans, "setup.sharded_testbed");
      sharded_ = std::make_unique<ceio::harness::ShardedTestbed>(s);
    }
    if (rss_probe) rss_flow_bytes_ = resident_bytes() - rss0;
    Spans::Scope span(spans, "setup.flow_phases");
    const int P = sharded_->domains();
    for (FlowId id = 1; id <= static_cast<FlowId>(s.workload.flows); ++id) {
      const ceio::FlowConfig fc = ceio::harness::flow_config(id, s.workload);
      const std::int64_t start = start_ns(seed, id, fc);
      flows_.push_back(flow_info(fc, 0, start));
      // Restart the source at its phase on its sender domain's scheduler:
      // flow f's sender lives in domain ((f-1) % P + 1) % P.
      ceio::FlowSource* src = sharded_->source(id);
      src->stop();
      const int sender = static_cast<int>(((id - 1) % static_cast<FlowId>(P) + 1) % P);
      sharded_->bed(sender).sched().schedule_at(Nanos{start}, [src]() { src->start(); });
    }
  } else {
    ceio::TestbedConfig cfg = spec.testbed;
    cfg.seed = seed;
    {
      Spans::Scope span(spans, "setup.testbed");
      bed_ = std::make_unique<ceio::Testbed>(cfg);
    }
    {
      Spans::Scope span(spans, "setup.apps");
      if (spec.tenant.enabled) {
        assembly_ =
            std::make_unique<ceio::tenant::TenantAssembly>(*bed_, spec.tenant, spec.controller);
        for (std::size_t t = 0; t < assembly_->roster().size(); ++t) {
          apps_.push_back(std::make_unique<CountingApp>(assembly_->app_of(t), time_apps));
        }
      } else {
        ceio::Application* app = ceio::harness::make_app(*bed_, spec.workload.app);
        if (app == nullptr) throw std::invalid_argument("unknown app " + spec.workload.app);
        apps_.push_back(std::make_unique<CountingApp>(*app, time_apps));
      }
    }
    Spans::Scope span(spans, "setup.flows");
    const std::int64_t rss0 = rss_probe ? resident_bytes() : 0;
    const auto add = [&](const ceio::FlowConfig& base, int group) {
      ceio::FlowConfig fc = base;
      fc.start_time = Nanos{start_ns(seed, fc.id, fc)};
      flows_.push_back(flow_info(fc, group, fc.start_time.count()));
      bed_->add_flow(fc, *apps_[static_cast<std::size_t>(group)]);
    };
    if (assembly_) {
      const auto& roster = assembly_->roster();
      for (std::size_t t = 0; t < roster.size(); ++t) {
        const ceio::harness::WorkloadSpec w = ceio::harness::tenant_workload(roster[t].cfg);
        for (FlowId id = roster[t].first_flow; id <= roster[t].last_flow; ++id) {
          add(ceio::harness::flow_config(id, w), static_cast<int>(t));
        }
      }
    } else {
      for (FlowId id = 1; id <= static_cast<FlowId>(spec.workload.flows); ++id) {
        add(ceio::harness::flow_config(id, spec.workload), 0);
      }
    }
    if (rss_probe) rss_flow_bytes_ = resident_bytes() - rss0;
  }
  if (assembly_ && !def.tail_tenant.empty()) {
    for (const auto& e : assembly_->roster()) {
      for (FlowId id = e.first_flow; id <= e.last_flow; ++id) {
        flows_[id - 1].tail = e.name == def.tail_tenant;
      }
    }
  }
}

Deployment::~Deployment() = default;

void Deployment::run_until(Nanos t) {
  if (sharded_) {
    sharded_->run_until(t);
  } else {
    bed_->run_until(t);
  }
}

void Deployment::reset_measurement() {
  if (sharded_) {
    sharded_->reset_measurement();
  } else {
    bed_->reset_measurement();
  }
}

Nanos Deployment::now() const { return sharded_ ? sharded_->now() : bed_->now(); }

int Deployment::domains() const { return sharded_ ? sharded_->domains() : 1; }
int Deployment::shards() const { return sharded_ ? sharded_->shards() : 1; }
Nanos Deployment::lookahead() const { return sharded_ ? sharded_->lookahead() : Nanos{0}; }

std::vector<ceio::Testbed*> Deployment::beds() {
  std::vector<ceio::Testbed*> out;
  if (sharded_) {
    for (int d = 0; d < sharded_->domains(); ++d) out.push_back(&sharded_->bed(d));
  } else {
    out.push_back(bed_.get());
  }
  return out;
}

ceio::FlowSource* Deployment::source(FlowId id) {
  return sharded_ ? sharded_->source(id) : bed_->source(id);
}

FlowCounts Deployment::counts(FlowId id) {
  const auto& st = source(id)->stats();
  return FlowCounts{st.packets_sent, st.packets_delivered, st.packets_dropped};
}

ceio::harness::RunResult Deployment::collect() {
  return sharded_ ? sharded_->collect() : ceio::harness::collect_result(*bed_);
}

std::vector<ceio::FlowReport> Deployment::tail_flows(
    const ceio::harness::RunResult& result) const {
  std::vector<ceio::FlowReport> tail;
  for (const auto& r : result.flows) {
    if (r.id >= 1 && r.id <= flows_.size() && flows_[r.id - 1].tail) tail.push_back(r);
  }
  return tail;
}

LayerCounts Deployment::snapshot() {
  LayerCounts c;
  for (ceio::Testbed* b : beds()) {
    c.sched_events += static_cast<std::int64_t>(b->sched().executed());
    const auto& llc = b->llc().stats();
    c.llc_ddio_writes += llc.ddio_writes;
    c.llc_hits += llc.cpu_hits;
    c.llc_misses += llc.cpu_misses;
    c.llc_premature += llc.premature_evictions;
    c.llc_writebacks += llc.writebacks;
    const auto& dram = b->dram().stats();
    c.dram_requests += dram.requests;
    c.dram_busy_ns += dram.busy_time.count();
    c.mc_iio_stalls += b->memory_controller().stats().iio_stalls;
    const auto& dma = b->dma().stats();
    c.dma_writes += dma.writes;
    c.dma_reads += dma.reads;
    const auto& pcie = b->pcie().stats();
    c.pcie_up_bytes += pcie.upstream_wire_bytes.count();
    c.pcie_down_bytes += pcie.downstream_wire_bytes.count();
    c.nic_rx += b->nic().stats().packets;
    const auto& nm = b->nic_memory().stats();
    c.nicmem_reads += nm.reads;
    c.nicmem_writes += nm.writes;
    c.nicmem_peak_bytes += nm.peak_occupancy.count();
  }
  // CEIO runtime counters: one datapath per domain, or one per tenant.
  std::vector<ceio::CeioDatapath*> ceio;
  if (assembly_) {
    for (std::size_t t = 0; t < assembly_->roster().size(); ++t) {
      if (assembly_->ceio_of(t) != nullptr) ceio.push_back(assembly_->ceio_of(t));
    }
  } else {
    for (ceio::Testbed* b : beds()) {
      if (b->ceio() != nullptr) ceio.push_back(b->ceio());
    }
  }
  for (const ceio::CeioDatapath* dp : ceio) {
    const auto& rs = dp->runtime_stats();
    c.ceio_to_slow += rs.credit_switches_to_slow;
    c.ceio_to_fast += rs.switches_back_to_fast;
    c.ceio_reclaims += rs.inactive_reclaims;
    c.ceio_cca += rs.cca_triggers;
  }
  const int P = domains();
  for (const FlowInfo& f : flows_) {
    const auto& st = source(f.id)->stats();
    c.net_sent += st.packets_sent;
    c.net_dropped += st.packets_dropped;
    ceio::CeioDatapath* dp = nullptr;
    if (sharded_) {
      dp = sharded_->bed(static_cast<int>((f.id - 1) % static_cast<FlowId>(P))).ceio();
    } else if (assembly_) {
      dp = assembly_->ceio_of(static_cast<std::size_t>(f.group));
    } else {
      dp = bed_->ceio();
    }
    if (dp != nullptr) {
      if (const ceio::FlowPathStats* ps = dp->flow_stats(f.id)) {
        const auto slow = dp->debug_slow_state(f.id);
        c.ebuf_buffered += ps->slow_path_pkts;
        c.ebuf_drained += ps->slow_path_pkts - static_cast<std::int64_t>(slow.nic_ring) -
                          static_cast<std::int64_t>(slow.in_flight);
      }
    }
    if (bed_) {
      if (const ceio::CpuCore* core = bed_->core(f.id)) {
        c.cpu_packets += core->stats().packets;
        c.cpu_busy_ns += core->stats().busy_time.count();
        c.cpu_stall_ns += core->stats().mem_stall_time.count();
      }
    }
  }
  if (assembly_) c.policy_repartitions = assembly_->repartitions();
  if (sharded_) {
    c.shard_epochs = static_cast<std::int64_t>(sharded_->epochs_completed());
    c.shard_spills = static_cast<std::int64_t>(sharded_->mailbox_spills());
  }
  for (const auto& app : apps_) c.app_calls += app->calls();
  return c;
}

std::vector<std::string> Deployment::audit_now() {
  std::vector<std::string> out;
  for (ceio::Testbed* b : beds()) {
    // The periodic sweep this arms would fire an hour of simulated time
    // from now; the run is over, so only the sweep below runs.
    const bool fresh = b->auditor() == nullptr;
    ceio::ModelAuditor& a = b->enable_audit(ceio::seconds(3600));
    if (fresh && assembly_) assembly_->register_audit(a);
    a.check_all(b->now());
    for (const auto& v : a.violations()) {
      out.push_back(v.layer + "/" + v.name + " at " + std::to_string(v.at.count()) +
                    " ns: " + v.detail);
    }
  }
  return out;
}

std::vector<std::pair<std::int64_t, std::int64_t>> Deployment::ddio_occupancy() {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (ceio::Testbed* b : beds()) {
    const ceio::LlcModel& llc = b->llc();
    if (llc.tenant_count() == 0) {
      out.emplace_back(static_cast<std::int64_t>(llc.ddio_occupancy()),
                       static_cast<std::int64_t>(llc.ddio_capacity()));
      continue;
    }
    for (std::size_t t = 0; t < llc.tenant_count(); ++t) {
      out.emplace_back(static_cast<std::int64_t>(llc.tenant_ddio_occupancy(t)),
                       static_cast<std::int64_t>(llc.tenant_way_capacity(t)));
    }
  }
  return out;
}

std::vector<Deployment::KvCounts> Deployment::kv_counts() {
  std::vector<KvCounts> out;
  for (const auto& app : apps_) {
    if (const auto* kv = dynamic_cast<const ceio::KvStore*>(&app->inner())) {
      out.push_back(KvCounts{kv->gets(), kv->puts(), app->packet_calls()});
    }
  }
  return out;
}

double Deployment::mean_pending_events() {
  const auto all = beds();
  double total = 0.0;
  for (ceio::Testbed* b : all) total += static_cast<double>(b->sched().pending());
  return total / static_cast<double>(all.size());
}

std::vector<int> Deployment::llc_tenant_ways() {
  const ceio::LlcModel& llc = beds().front()->llc();
  std::vector<int> ways;
  for (std::size_t t = 0; t < llc.tenant_count(); ++t) ways.push_back(llc.tenant_ways(t));
  return ways;
}

std::int64_t Deployment::app_ns() const {
  std::int64_t total = 0;
  for (const auto& app : apps_) total += app->ns();
  return total;
}

}  // namespace perfbench
