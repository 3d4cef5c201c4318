#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "config/config_ops.h"
#include "harness/sharded_testbed.h"

namespace ceio::harness {

bool is_bypass_app(const std::string& app) { return app == "linefs" || app == "rdma"; }

Application* make_app(Testbed& bed, const std::string& app) { return bed.make_app(app); }

FlowConfig flow_config(FlowId id, const WorkloadSpec& w) {
  const bool bypass = is_bypass_app(w.app);
  FlowConfig fc;
  fc.id = id;
  fc.kind = bypass ? FlowKind::kCpuBypass : FlowKind::kCpuInvolved;
  fc.packet_size = bypass ? std::max<Bytes>(w.packet_size, 2 * kKiB) : w.packet_size;
  if (w.message_pkts > 0) {
    fc.message_pkts = w.message_pkts;
  } else if (bypass) {
    fc.message_pkts = static_cast<std::uint32_t>(
        std::max<std::int64_t>(kKiB * w.chunk_kb / fc.packet_size, 1));
  } else {
    fc.message_pkts = 1;
  }
  fc.offered_rate = w.offered_rate;
  fc.poisson = w.poisson;
  fc.closed_loop_outstanding = w.closed_loop;
  fc.burst_on = w.burst_on;
  fc.burst_off = w.burst_off;
  return fc;
}

WorkloadSpec tenant_workload(const tenant::TenantConfig& cfg) {
  WorkloadSpec w;
  w.app = cfg.app;
  w.flows = cfg.flows;
  w.offered_rate = cfg.offered_rate;
  w.packet_size = cfg.packet_size;
  w.chunk_kb = cfg.chunk_kb;
  w.poisson = cfg.poisson;
  return w;
}

std::vector<tenant::TenantReport> tenant_flow_reports(
    const std::vector<tenant::TenantRosterEntry>& roster,
    const std::vector<FlowReport>& flows) {
  std::vector<tenant::TenantReport> out;
  for (const auto& e : roster) {
    tenant::TenantReport r;
    r.name = e.name;
    r.app = e.cfg.app;
    r.flows = e.cfg.flows;
    r.ddio_ways = e.ways;
    std::vector<FlowReport> mine;
    for (const auto& f : flows) {
      if (f.id >= e.first_flow && f.id <= e.last_flow) mine.push_back(f);
    }
    r.mpps = aggregate_mpps(mine);
    r.gbps = aggregate_gbps(mine);
    r.message_gbps = aggregate_message_gbps(mine);
    Nanos p50_sum{};
    for (const auto& f : mine) {
      p50_sum += f.p50;
      r.messages += f.messages;
    }
    if (!mine.empty()) r.p50 = p50_sum / static_cast<std::int64_t>(mine.size());
    const TailSummary tails = average_tails(mine);
    r.p99 = tails.p99;
    r.p999 = tails.p999;
    r.drops = tails.drops;
    out.push_back(std::move(r));
  }
  return out;
}

void settle_and_measure(Testbed& bed, Nanos warmup, Nanos measure) {
  bed.run_for(warmup);
  bed.reset_measurement();
  bed.run_for(measure);
}

RunResult collect_result(Testbed& bed) {
  RunResult out;
  out.flows = bed.all_reports();
  out.aggregate_mpps = aggregate_mpps(out.flows);
  out.aggregate_gbps = aggregate_gbps(out.flows);
  out.aggregate_message_gbps = aggregate_message_gbps(out.flows);
  out.llc_miss_rate = bed.llc_miss_rate();
  out.premature_evictions = bed.llc().stats().premature_evictions;
  out.dram_utilization = bed.dram().utilization(bed.now());
  if (auto* ceio = bed.ceio()) {
    const auto& rs = ceio->runtime_stats();
    out.has_ceio = true;
    out.ceio_total_credits = ceio->credits().total();
    out.ceio_to_slow = rs.credit_switches_to_slow;
    out.ceio_to_fast = rs.switches_back_to_fast;
    out.ceio_cca_triggers = rs.cca_triggers;
    out.ceio_reclaims = rs.inactive_reclaims;
  }
  return out;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_for_write(const std::string& path) {
  File f(std::fopen(path.c_str(), "w"));
  if (!f) throw std::runtime_error("cannot write " + path);
  return f;
}

/// Closes a finished output, reporting a failed write (a full disk, say).
void close_written(File f, const std::string& path) {
  const bool failed = std::ferror(f.get()) != 0;
  if (std::fclose(f.release()) != 0 || failed) throw std::runtime_error("cannot write " + path);
}

/// Exports the recording and prints what it holds to stderr (stdout stays
/// the caller's report).
void write_trace(Testbed& bed, const Telemetry& tele, const std::string& prefix, File json,
                 File csv) {
  tele.write_trace_json(json.get());
  close_written(std::move(json), prefix + ".trace.json");
  tele.write_timeseries_csv(csv.get());
  close_written(std::move(csv), prefix + ".timeseries.csv");
  const TraceSink& sink = tele.trace();
  const PathTracer& paths = tele.paths();
  std::fprintf(stderr, "trace: %s.trace.json: %zu events (%llu emitted, %llu overwritten)\n",
               prefix.c_str(), sink.size(),
               static_cast<unsigned long long>(sink.total_emitted()),
               static_cast<unsigned long long>(sink.overwritten()));
  std::fprintf(stderr, "trace: %s.timeseries.csv: %zu samples x %zu gauges\n",
               prefix.c_str(), tele.sampler().rows(), tele.sampler().columns().size());
  std::fprintf(stderr, "trace: path records: %zu complete, %zu open, %llu dropped\n",
               paths.records().size(), paths.open_count(),
               static_cast<unsigned long long>(paths.dropped()));
  if (const policy::DatapathGovernor* gov = bed.governor()) {
    std::fprintf(stderr,
                 "trace: governor: mode=%s tier=%s decisions=%lld credit_scale=%.2f "
                 "(instants on the PolicyGovernor track)\n",
                 to_string(gov->config().governor), to_string(gov->tier()),
                 static_cast<long long>(gov->decision_changes()),
                 gov->last_decision().credit_scale);
  }
#if !defined(CEIO_TELEMETRY) || !CEIO_TELEMETRY
  std::fprintf(stderr, "trace: note: model trace hooks compiled out (build with "
                       "-DCEIO_TELEMETRY=ON for spans, instants and packet paths)\n");
#endif
  std::fprintf(stderr, "trace: open %s.trace.json in https://ui.perfetto.dev or "
                       "chrome://tracing\n", prefix.c_str());
}

}  // namespace

RunResult run_experiment(const ExperimentSpec& spec, const std::string& trace_prefix) {
  std::vector<std::string> errors;
  if (!config::validate(spec, &errors)) {
    throw std::invalid_argument("invalid experiment spec: " + errors.front());
  }
  if (spec.tenant.enabled) {
    const tenant::TenantConfig* roles[] = {&spec.tenant.lc, &spec.tenant.bw,
                                           &spec.tenant.ant};
    for (const auto* role : roles) {
      if (role->enabled && !Testbed::is_known_app(role->app)) {
        throw std::invalid_argument("unknown tenant app '" + role->app + "'");
      }
    }
  } else if (!Testbed::is_known_app(spec.workload.app)) {
    throw std::invalid_argument("unknown app '" + spec.workload.app + "'");
  }
  const bool traced = !trace_prefix.empty();
  if (spec.testbed.sim.domains > 1) {
    if (traced) throw std::invalid_argument("sharded runs (sim.domains > 1) cannot be traced");
    return run_sharded_experiment(spec);
  }
  File json, csv;
  if (traced) {
    json = open_for_write(trace_prefix + ".trace.json");
    csv = open_for_write(trace_prefix + ".timeseries.csv");
  }

  Testbed bed(spec.testbed);
  std::optional<tenant::TenantAssembly> assembly;
  if (spec.tenant.enabled) {
    assembly.emplace(bed, spec.tenant, spec.controller);
    for (const auto& e : assembly->roster()) {
      const WorkloadSpec w = tenant_workload(e.cfg);
      for (FlowId id = e.first_flow; id <= e.last_flow; ++id) {
        bed.add_flow(flow_config(id, w), assembly->app_of_flow(id));
      }
    }
  } else {
    Application& app = *make_app(bed, spec.workload.app);
    for (FlowId id = 1; id <= static_cast<FlowId>(spec.workload.flows); ++id) {
      bed.add_flow(flow_config(id, spec.workload), app);
    }
  }

  bed.run_for(spec.warmup);
  bed.reset_measurement();
  Telemetry* tele = nullptr;
  if (traced) {
    tele = &bed.enable_telemetry();
    // The demux's own register_metrics is a no-op (per-tenant names would
    // collide); the assembly registers the "tenant.<name>.*" subtrees that
    // the trace exporter renders as per-tenant counter tracks.
    if (assembly) assembly->register_metrics(tele->metrics());
    tele->start_sampling();
  }
  bed.run_for(spec.measure);

  RunResult out = collect_result(bed);
  if (assembly) {
    out.tenants = tenant_flow_reports(assembly->roster(), out.flows);
    for (std::size_t t = 0; t < out.tenants.size(); ++t) {
      assembly->fill_llc_fields(out.tenants[t], t);
    }
    out.way_repartitions = assembly->repartitions();
  }
  if (tele) write_trace(bed, *tele, trace_prefix, std::move(json), std::move(csv));
  return out;
}

double aggregate_mpps(const std::vector<FlowReport>& reports, std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (!kind || r.kind == *kind) sum += r.mpps;
  }
  return sum;
}

double aggregate_gbps(const std::vector<FlowReport>& reports, std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (!kind || r.kind == *kind) sum += r.gbps;
  }
  return sum;
}

double aggregate_message_gbps(const std::vector<FlowReport>& reports,
                              std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (!kind || r.kind == *kind) sum += r.message_gbps;
  }
  return sum;
}

TailSummary average_tails(const std::vector<FlowReport>& reports) {
  TailSummary out;
  Nanos p99_sum{}, p999_sum{};
  std::int64_t count = 0;
  for (const auto& r : reports) {
    p99_sum += r.p99;
    p999_sum += r.p999;
    out.drops += r.drops;
    ++count;
  }
  if (count > 0) {
    out.p99 = p99_sum / count;
    out.p999 = p999_sum / count;
  }
  return out;
}

}  // namespace ceio::harness
