// perf_core — microbenchmark for the simulator's two hottest primitives:
// the discrete-event scheduler and the LLC model. Emits a JSON blob to
// stdout and to a file (default perf_core.json, override with argv[1]) so
// successive PRs can record the perf trajectory and catch regressions.
//
// An optional second path writes the same JSON again; that is how the
// git-tracked trajectory log at the repo root is refreshed:
//   build/bench/perf_core perf_core.json BENCH_perf_core.json
// The JSON names the machine (`cpu_model`, `nproc`): rates from different
// machines are trajectory, not thresholds. tools/check.sh gates on a
// same-machine A/B against the parent build instead.
//
// Workloads:
//   scheduler  schedule/fire steady state at several pending-queue depths,
//              plus a schedule/cancel-heavy mix (50% of events cancelled
//              before they fire).
//   llc        hit-heavy (working set fits), miss-heavy (streaming ids) and
//              premature-eviction (DDIO flood faster than the CPU drains).
//              Each case also publishes its own top-level key — the
//              aggregate once hid a 2.3x hit-path regression behind a
//              miss-path win, so the gate now watches all three.
//   flow_lookup per-packet flow-state lookup through FlowTable at 2^10 to
//              2^20 flows, dense ids (slab pages full) and sparse ids
//              (one entry per directory page — the layout-adverse case).
//   testbed    one canonical end-to-end CEIO experiment (16 KV flows), so
//              the full NIC->PCIe->LLC->CPU pipeline has a wall-clock
//              packets/sec trajectory, not just the two primitives.
//   substrate  per-call cost of the other hot substrate operations (RMT
//              steer, credit consume/release, Algorithm 1 admission, SW-ring
//              bookkeeping, Zipf draws), one `<case>_ns_per_op` key each.
//
// `peak_rss_bytes` (VmHWM from /proc/self/status, sampled after the testbed
// cases) tracks the process footprint of the end-to-end runs.
//
// All workloads are seeded deterministically; wall-clock is the only
// non-deterministic output.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ceio/credit_controller.h"
#include "ceio/sw_ring.h"
#include "common/flow_table.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "harness/experiment.h"
#include "host/cache.h"
#include "nic/rmt_engine.h"
#include "sim/event_scheduler.h"

namespace {

using ceio::BufferId;
using ceio::CreditController;
using ceio::EventScheduler;
using ceio::FlowId;
using ceio::LlcConfig;
using ceio::LlcModel;
using ceio::Nanos;
using ceio::Rng;

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// High-water-mark RSS of this process (VmHWM), in bytes; 0 when
/// /proc/self/status is unavailable (non-Linux).
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;  // NOLINT(runtime/int): sscanf format
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0 &&
        std::sscanf(line + 6, "%llu", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kib) * 1024;
}

/// The "model name" line of /proc/cpuinfo ("unknown" elsewhere), with
/// characters that would need JSON escaping dropped.
std::string cpu_model() {
  std::string model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* c = std::strchr(line, ':');
      if (c == nullptr) continue;
      ++c;
      while (*c == ' ' || *c == '\t') ++c;
      model.clear();
      for (; *c != '\0' && *c != '\n'; ++c) {
        if (*c != '"' && *c != '\\') model.push_back(*c);
      }
      break;
    }
    std::fclose(f);
  }
  return model;
}

/// ceio::safe_rate keeps zero-op / zero-time runs from emitting NaN or inf.
double rate(std::uint64_t ops, double seconds) {
  return ceio::safe_rate(static_cast<double>(ops), seconds);
}

struct Result {
  std::string name;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  std::uint64_t peak_depth = 0;
  double ops_per_sec() const { return rate(ops, seconds); }
  double ns_per_op() const { return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops); }
};

/// Self-perpetuating event body: fires, then re-arms itself at a jittered
/// future time. 32 bytes of capture — stays inside the inline budget.
struct FireAndRearm {
  EventScheduler* sched;
  Rng* rng;
  std::uint64_t* fired;
  std::uint64_t total;
  void operator()() const {
    ++*fired;
    if (*fired + sched->pending() < total) {
      sched->schedule_after(Nanos{rng->uniform(1, 1000)}, *this);
    }
  }
};

/// Steady-state schedule/fire throughput at a held queue depth: each fired
/// event re-schedules one successor, so the pending count stays at `depth`.
Result bench_sched_fire(std::size_t depth, std::uint64_t total_events) {
  EventScheduler sched;
  Rng rng(0xCE10 + depth);
  std::uint64_t fired = 0;
  // Seed `depth` self-perpetuating events at jittered future times.
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule_after(Nanos{rng.uniform(1, 1000)},
                         FireAndRearm{&sched, &rng, &fired, total_events});
  }
  // Warm-up is implicit: pool/heap capacity grows during the seeding phase.
  const double t0 = now_seconds();
  while (fired < total_events) {
    if (!sched.step()) {
      // Queue drained early (tail of the run): top up one event.
      sched.schedule_after(Nanos{1}, [&fired]() { ++fired; });
    }
  }
  const double t1 = now_seconds();
  Result r;
  r.name = "sched_fire_depth" + std::to_string(depth);
  r.ops = fired;
  r.seconds = t1 - t0;
  r.peak_depth = depth;
  return r;
}

/// Schedule/cancel-heavy mix (the timer-rearm pattern every flow source and
/// credit controller uses): each iteration schedules two events at random
/// future times, immediately cancels one of them, then fires one — 25% of
/// all operations are cancellations of pending events at random heap
/// positions, and the queue holds a steady `depth` events throughout.
Result bench_sched_cancel(std::size_t depth, std::uint64_t total_ops) {
  EventScheduler sched;
  Rng rng(0xCA9CE1 + depth);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule_after(Nanos{rng.uniform(1, 1000)}, [&fired]() { ++fired; });
  }
  std::uint64_t ops = 0;
  std::uint64_t peak = sched.pending();
  const double t0 = now_seconds();
  while (ops < total_ops) {
    const auto a = sched.schedule_after(Nanos{rng.uniform(1, 1000)}, [&fired]() { ++fired; });
    const auto b = sched.schedule_after(Nanos{rng.uniform(1, 1000)}, [&fired]() { ++fired; });
    sched.cancel(rng.chance(0.5) ? a : b);
    sched.step();
    ops += 4;
    if (sched.pending() > peak) peak = sched.pending();
  }
  const double t1 = now_seconds();
  Result r;
  r.name = "sched_cancel_depth" + std::to_string(depth);
  r.ops = ops;
  r.seconds = t1 - t0;
  r.peak_depth = peak;
  return r;
}

/// End-to-end pipeline throughput: one canonical CEIO experiment (16 KV
/// flows at 25 Gbps each, 512 B packets) timed wall-clock. `ops` counts the
/// packets delivered during the measurement window, so ops_per_sec is
/// "simulated packets per wall second" across the whole NIC-to-CPU path —
/// the number the burst pipeline is supposed to move.
Result bench_testbed_pipeline() {
  ceio::harness::ExperimentSpec spec;
  spec.testbed.system = ceio::SystemKind::kCeio;
  spec.testbed.seed = 7;
  spec.workload.app = "kv";
  spec.workload.flows = 16;
  spec.workload.offered_rate = ceio::gbps(25.0);
  spec.workload.packet_size = ceio::Bytes{512};
  spec.warmup = ceio::millis(2);
  spec.measure = ceio::millis(10);
  const double t0 = now_seconds();
  const ceio::harness::RunResult run = ceio::harness::run_experiment(spec);
  const double t1 = now_seconds();
  // mpps is packets per simulated microsecond; the window is `measure` long.
  const double measure_us = static_cast<double>(spec.measure.count()) / 1000.0;
  Result r;
  r.name = "testbed_pipeline_kv16";
  r.ops = static_cast<std::uint64_t>(run.aggregate_mpps * measure_us);
  r.seconds = t1 - t0;
  return r;
}

/// Sharded pipeline throughput: the same deployment partitioned into 8
/// conservative-lookahead event domains, advanced by `shards` worker
/// threads. Run at shards=1 and shards=4 the pair gives the parallel
/// speedup; the multi-shard ops/sec is the `sharded_pkts_per_sec` headline.
/// (On a single-core container the speedup degenerates to ~1x — barrier
/// overhead without parallelism — so the perf gate tracks regression of the
/// headline, not the speedup ratio.)
Result bench_sharded_pipeline(int shards) {
  ceio::harness::ExperimentSpec spec;
  spec.testbed.system = ceio::SystemKind::kCeio;
  spec.testbed.seed = 7;
  spec.testbed.sim.domains = 8;
  spec.testbed.sim.shards = shards;
  spec.workload.app = "kv";
  spec.workload.flows = 16;
  spec.workload.offered_rate = ceio::gbps(25.0);
  spec.workload.packet_size = ceio::Bytes{512};
  spec.warmup = ceio::millis(2);
  spec.measure = ceio::millis(10);
  const double t0 = now_seconds();
  const ceio::harness::RunResult run = ceio::harness::run_experiment(spec);
  const double t1 = now_seconds();
  const double measure_us = static_cast<double>(spec.measure.count()) / 1000.0;
  Result r;
  r.name = "sharded_pipeline_kv16_shards" + std::to_string(shards);
  r.ops = static_cast<std::uint64_t>(run.aggregate_mpps * measure_us);
  r.seconds = t1 - t0;
  return r;
}

/// Multi-tenant pipeline throughput: the three-role co-location deployment
/// (kv + linefs + thrasher behind one demux) with the reactive way-partition
/// controller ticking — the hot path of the isolation figure. `ops` counts
/// all tenants' delivered packets, so ops_per_sec tracks the cost of the
/// per-tenant LLC attribution and the controller itself.
Result bench_multitenant_pipeline() {
  ceio::harness::ExperimentSpec spec;
  spec.testbed.system = ceio::SystemKind::kCeio;
  spec.testbed.seed = 7;
  spec.testbed.llc.total_bytes = 3 * ceio::kMiB;  // the multitenant preset slice
  spec.tenant.enabled = true;
  spec.controller.enabled = true;
  spec.controller.policy = ceio::tenant::PartitionPolicy::kReactive;
  spec.warmup = ceio::millis(2);
  spec.measure = ceio::millis(10);
  const double t0 = now_seconds();
  const ceio::harness::RunResult run = ceio::harness::run_experiment(spec);
  const double t1 = now_seconds();
  const double measure_us = static_cast<double>(spec.measure.count()) / 1000.0;
  Result r;
  r.name = "multitenant_pipeline_reactive";
  r.ops = static_cast<std::uint64_t>(run.aggregate_mpps * measure_us);
  r.seconds = t1 - t0;
  return r;
}

/// Governed dynamic-schedule throughput: the fig10 dynamic-distribution
/// deployment (8 KV flows, two swapped for LineFS streamers mid-run) with
/// the reactive datapath governor ticking every 20 us — the hot path of the
/// policy layer (gauge sampling, decide(), actuator pushes). `ops` counts
/// all delivered packets, so ops_per_sec tracks the governor's overhead on
/// top of the pipeline it steers.
Result bench_fig10_governed() {
  ceio::TestbedConfig tc;
  tc.system = ceio::SystemKind::kCeio;
  tc.seed = 7;
  tc.policy.governor = ceio::policy::GovernorMode::kReactive;
  ceio::Testbed bed(tc);
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();
  ceio::harness::WorkloadSpec rpc;  // kv @ 512 B, 25 G/flow defaults
  ceio::harness::WorkloadSpec chunks;
  chunks.app = "linefs";
  chunks.packet_size = 2 * ceio::kKiB;
  chunks.message_pkts = 512;
  for (ceio::FlowId id = 1; id <= 8; ++id) {
    bed.add_flow(ceio::harness::flow_config(id, rpc), kv);
  }
  const double t0 = now_seconds();
  bed.run_for(ceio::millis(2));
  bed.reset_measurement();
  bed.run_for(ceio::millis(5));
  double mpps = bed.aggregate_mpps();
  bed.remove_flow(8);
  bed.remove_flow(7);
  bed.add_flow(ceio::harness::flow_config(100, chunks), dfs);
  bed.add_flow(ceio::harness::flow_config(101, chunks), dfs);
  bed.reset_measurement();
  bed.run_for(ceio::millis(5));
  mpps += bed.aggregate_mpps();
  const double t1 = now_seconds();
  Result r;
  r.name = "fig10_governed_dynamic";
  r.ops = static_cast<std::uint64_t>(mpps * 5000.0);  // 2 x 5 ms windows
  r.seconds = t1 - t0;
  return r;
}

/// Per-packet flow-state lookup through FlowTable. `dense` packs ids 1..N
/// (directory pages and slab chunks full — the KV/flowscale layout); sparse
/// strides ids 61 apart so most 4096-entry directory pages hold ~67 flows
/// (the layout-adverse case: every lookup touches a different page). The
/// lookup order is a shuffled permutation replayed round-robin, modelling
/// packet arrival order that ignores id locality.
Result bench_flow_lookup(std::size_t flows, bool dense, std::uint64_t total_ops) {
  ceio::FlowTable<std::uint64_t> table;
  std::vector<std::uint64_t> ids;
  ids.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    const std::uint64_t id = dense ? i + 1 : i * 61 + 1;
    table[id] = id * 3;
    ids.push_back(id);
  }
  Rng rng(0xF10A + flows + (dense ? 1 : 0));
  for (std::size_t i = flows; i > 1; --i) {  // Fisher-Yates on the lookup order
    std::swap(ids[i - 1], ids[static_cast<std::size_t>(
                              rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::uint64_t sink = 0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < total_ops; ++i) {
    sink += *table.find(ids[i % flows]);
  }
  const double t1 = now_seconds();
  Result r;
  r.name = std::string("flow_lookup_") + (dense ? "dense_" : "sparse_") +
           std::to_string(flows);
  r.ops = total_ops;
  r.seconds = t1 - t0;
  r.peak_depth = sink & 1;  // keep the loop from being optimised away
  return r;
}

/// Substrate results land here so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Times `iters` back-to-back calls of `op` (the substrate cases).
template <typename Op>
Result bench_calls(const char* name, std::uint64_t iters, Op op) {
  std::uint64_t sink = 0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < iters; ++i) sink += op();
  const double t1 = now_seconds();
  g_sink = g_sink + sink;
  return Result{name, iters, t1 - t0, 0};
}

/// RMT steering lookup over 128 installed rules, round-robin by flow.
Result bench_rmt_steer(std::uint64_t iters) {
  EventScheduler sched;
  ceio::RmtEngine rmt(sched, ceio::RmtConfig{Nanos{0}, 65'536, ceio::SteerAction::kToHost});
  for (FlowId f = 1; f <= 128; ++f) rmt.install_rule(f, ceio::SteerAction::kToHost);
  sched.run_all();
  ceio::Packet pkt;
  pkt.size = ceio::Bytes{512};
  FlowId f = 1;
  return bench_calls("rmt_steer", iters, [&] {
    pkt.flow = f;
    f = f % 128 + 1;
    return static_cast<std::uint64_t>(rmt.steer(pkt));
  });
}

/// One credit consumed and released on an 8-flow controller: the per-packet
/// credit ledger of the CEIO fast path.
Result bench_credit_consume_release(std::uint64_t iters) {
  CreditController credits(3000);
  credits.add_flows({1, 2, 3, 4, 5, 6, 7, 8});
  return bench_calls("credit_consume_release", iters, [&] {
    credits.consume(3, 1);
    credits.release(3, 1);
    return static_cast<std::uint64_t>(credits.credits(3));
  });
}

/// Algorithm 1 admitting two newcomers next to `flows` incumbents. Only the
/// add_flows call is timed: building the incumbents and destroying the
/// controller would swamp a sub-microsecond admission.
Result bench_credit_algorithm1(FlowId flows, std::uint64_t reps) {
  std::vector<FlowId> incumbents;
  for (FlowId f = 1; f <= flows; ++f) incumbents.push_back(f);
  const std::vector<FlowId> arrivals{flows + 1, flows + 2};
  double seconds = 0.0;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < reps; ++i) {
    CreditController credits(3000);
    credits.add_flows(incumbents);
    const double t0 = now_seconds();
    credits.add_flows(arrivals);
    seconds += now_seconds() - t0;
    sink += static_cast<std::uint64_t>(credits.fair_share());
  }
  g_sink = g_sink + sink;
  return Result{"credit_algorithm1_flows" + std::to_string(flows), reps, seconds, 0};
}

/// SW-ring run-length bookkeeping: one steer note and one consume, with the
/// path alternating so every note opens a new segment.
Result bench_sw_ring(std::uint64_t iters) {
  ceio::SwRing sw;
  bool fast = true;
  return bench_calls("sw_ring_note_consume", iters, [&] {
    sw.note_steered(fast);
    fast = !fast;
    sw.consumed();
    return sw.pending();
  });
}

/// One Zipf(0.99) draw over 1000 keys, the KV app's key chooser.
Result bench_rng_zipf(std::uint64_t iters) {
  Rng rng(7);
  return bench_calls("rng_zipf", iters, [&] {
    return static_cast<std::uint64_t>(rng.zipf(1000, 0.99));
  });
}

LlcConfig default_llc() { return LlcConfig{}; }  // 12 MiB / 12-way / 2 DDIO ways

/// Hit-heavy: working set well inside capacity, uniform re-reads.
Result bench_llc_hit(std::uint64_t total_ops) {
  LlcModel llc(default_llc());
  Rng rng(0x117);
  const std::int64_t ws = 1024;  // buffers; capacity is 6144
  for (std::int64_t id = 1; id <= ws; ++id) llc.cpu_read(id, ceio::Bytes{1500});
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < total_ops; ++i) {
    llc.cpu_read(static_cast<BufferId>(rng.uniform(1, ws)), ceio::Bytes{1500});
  }
  const double t1 = now_seconds();
  return Result{"llc_hit_heavy", total_ops, t1 - t0, 0};
}

/// Miss-heavy: streaming ids that never repeat, every access fills+evicts.
Result bench_llc_miss(std::uint64_t total_ops) {
  LlcModel llc(default_llc());
  const double t0 = now_seconds();
  BufferId id = 1;
  for (std::uint64_t i = 0; i < total_ops; ++i) {
    llc.cpu_read(id++, ceio::Bytes{1500});
  }
  const double t1 = now_seconds();
  return Result{"llc_miss_heavy", total_ops, t1 - t0, 0};
}

/// Premature eviction: DMA floods the DDIO partition faster than the CPU
/// reads drain it — the paper's leaky-DMA phenomenon, and the hot loop of
/// every fig. 9–12 experiment.
Result bench_llc_premature(std::uint64_t total_ops) {
  LlcModel llc(default_llc());
  Rng rng(0x9FE);
  const std::int64_t pool = 4096;  // DDIO capacity is 1024 buffers; 4x flood
  BufferId next = 1;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < total_ops; ++i) {
    const BufferId id = (next++ % pool) + 1;
    llc.ddio_write(id, ceio::Bytes{1500});
    if ((i & 3u) == 0) {
      // CPU drains at 1/4 the DMA rate, lagging behind.
      llc.cpu_read(static_cast<BufferId>(rng.uniform(1, pool)), ceio::Bytes{1500});
    }
  }
  const double t1 = now_seconds();
  return Result{"llc_premature_evict", total_ops, t1 - t0, 0};
}

void emit_json(std::FILE* f, const std::vector<Result>& sched,
               const std::vector<Result>& llc, const std::vector<Result>& flow_lookup,
               const std::vector<Result>& testbed, const std::vector<Result>& substrate,
               double sched_events_per_sec, double llc_ops_per_sec,
               double flow_lookup_ops_per_sec, double sharded_pkts_per_sec,
               double sharded_speedup, double multitenant_pkts_per_sec,
               double fig10_governed_pkts_per_sec, std::uint64_t rss_bytes,
               double wall) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"events_per_sec\": %.0f,\n", sched_events_per_sec);
  std::fprintf(f, "  \"llc_ops_per_sec\": %.0f,\n", llc_ops_per_sec);
  // Per-case LLC keys: the aggregate is a harmonic blend, and a regression
  // in one access pattern can hide behind a win in another (PR 8 hid a
  // hit-path slowdown exactly this way) — so the perf gate watches each.
  for (const auto& r : llc) {
    std::fprintf(f, "  \"%s_ops_per_sec\": %.0f,\n", r.name.c_str(), r.ops_per_sec());
  }
  std::fprintf(f, "  \"flow_lookup_ops_per_sec\": %.0f,\n", flow_lookup_ops_per_sec);
  for (const auto& r : substrate) {
    std::fprintf(f, "  \"%s_ns_per_op\": %.1f,\n", r.name.c_str(), r.ns_per_op());
  }
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(rss_bytes));
  double testbed_pkts = 0.0, testbed_secs = 0.0;
  for (const auto& r : testbed) {
    // sharded_*, multitenant_* and fig10_* carry their own headline keys.
    if (r.name.rfind("sharded_", 0) == 0) continue;
    if (r.name.rfind("multitenant_", 0) == 0) continue;
    if (r.name.rfind("fig10_", 0) == 0) continue;
    testbed_pkts += static_cast<double>(r.ops);
    testbed_secs += r.seconds;
  }
  std::fprintf(f, "  \"testbed_pkts_per_sec\": %.0f,\n",
               ceio::safe_rate(testbed_pkts, testbed_secs));
  std::fprintf(f, "  \"sharded_pkts_per_sec\": %.0f,\n", sharded_pkts_per_sec);
  std::fprintf(f, "  \"sharded_speedup\": %.2f,\n", sharded_speedup);
  std::fprintf(f, "  \"multitenant_pkts_per_sec\": %.0f,\n", multitenant_pkts_per_sec);
  std::fprintf(f, "  \"fig10_governed_pkts_per_sec\": %.0f,\n", fig10_governed_pkts_per_sec);
  std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wall);
  std::fprintf(f, "  \"scheduler\": [\n");
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto& r = sched[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %llu, \"seconds\": %.4f, "
                 "\"ops_per_sec\": %.0f, \"peak_queue_depth\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.ops), r.seconds,
                 r.ops_per_sec(), static_cast<unsigned long long>(r.peak_depth),
                 i + 1 < sched.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"llc\": [\n");
  for (std::size_t i = 0; i < llc.size(); ++i) {
    const auto& r = llc[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %llu, \"seconds\": %.4f, "
                 "\"ops_per_sec\": %.0f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.ops), r.seconds,
                 r.ops_per_sec(), i + 1 < llc.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"flow_lookup\": [\n");
  for (std::size_t i = 0; i < flow_lookup.size(); ++i) {
    const auto& r = flow_lookup[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %llu, \"seconds\": %.4f, "
                 "\"ops_per_sec\": %.0f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.ops), r.seconds,
                 r.ops_per_sec(), i + 1 < flow_lookup.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"testbed\": [\n");
  for (std::size_t i = 0; i < testbed.size(); ++i) {
    const auto& r = testbed[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ops\": %llu, \"seconds\": %.4f, "
                 "\"ops_per_sec\": %.0f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.ops), r.seconds,
                 r.ops_per_sec(), i + 1 < testbed.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "perf_core.json";
  const double wall0 = now_seconds();

  std::vector<Result> sched;
  sched.push_back(bench_sched_fire(1024, 4'000'000));
  sched.push_back(bench_sched_fire(16384, 4'000'000));
  sched.push_back(bench_sched_fire(65536, 4'000'000));
  sched.push_back(bench_sched_fire(262144, 4'000'000));
  sched.push_back(bench_sched_cancel(4096, 4'000'000));

  std::vector<Result> llc;
  llc.push_back(bench_llc_hit(8'000'000));
  llc.push_back(bench_llc_miss(8'000'000));
  llc.push_back(bench_llc_premature(8'000'000));

  std::vector<Result> flow_lookup;
  for (const std::size_t flows : {std::size_t{1} << 10, std::size_t{1} << 15,
                                  std::size_t{1} << 20}) {
    flow_lookup.push_back(bench_flow_lookup(flows, /*dense=*/true, 8'000'000));
    flow_lookup.push_back(bench_flow_lookup(flows, /*dense=*/false, 8'000'000));
  }

  std::vector<Result> substrate;
  substrate.push_back(bench_rmt_steer(4'000'000));
  substrate.push_back(bench_credit_consume_release(4'000'000));
  for (const FlowId flows : {8, 64, 512}) {
    substrate.push_back(bench_credit_algorithm1(flows, 2'000));
  }
  substrate.push_back(bench_sw_ring(4'000'000));
  substrate.push_back(bench_rng_zipf(4'000'000));

  std::vector<Result> testbed;
  testbed.push_back(bench_testbed_pipeline());
  testbed.push_back(bench_sharded_pipeline(1));
  testbed.push_back(bench_sharded_pipeline(4));
  const double sharded_base = testbed[testbed.size() - 2].ops_per_sec();
  const double sharded_pps = testbed.back().ops_per_sec();
  const double sharded_speedup = ceio::safe_rate(sharded_pps, sharded_base);
  testbed.push_back(bench_multitenant_pipeline());
  const double multitenant_pps = testbed.back().ops_per_sec();
  testbed.push_back(bench_fig10_governed());
  const double fig10_governed_pps = testbed.back().ops_per_sec();

  // Peak RSS is sampled after the testbed family so it reflects the
  // end-to-end deployments (the primitives' footprints are negligible).
  const std::uint64_t rss = peak_rss_bytes();

  // Headline numbers: total ops / total seconds over each family.
  std::uint64_t sched_ops = 0, llc_ops = 0, fl_ops = 0;
  double sched_secs = 0.0, llc_secs = 0.0, fl_secs = 0.0;
  for (const auto& r : sched) { sched_ops += r.ops; sched_secs += r.seconds; }
  for (const auto& r : llc) { llc_ops += r.ops; llc_secs += r.seconds; }
  for (const auto& r : flow_lookup) { fl_ops += r.ops; fl_secs += r.seconds; }
  const double wall = now_seconds() - wall0;

  emit_json(stdout, sched, llc, flow_lookup, testbed, substrate, rate(sched_ops, sched_secs),
            rate(llc_ops, llc_secs), rate(fl_ops, fl_secs), sharded_pps,
            sharded_speedup, multitenant_pps, fig10_governed_pps, rss, wall);
  const char* paths[] = {out_path, argc > 2 ? argv[2] : nullptr};
  for (const char* path : paths) {
    if (path == nullptr) continue;
    if (std::FILE* f = std::fopen(path, "w")) {
      emit_json(f, sched, llc, flow_lookup, testbed, substrate, rate(sched_ops, sched_secs),
                rate(llc_ops, llc_secs), rate(fl_ops, fl_secs), sharded_pps,
                sharded_speedup, multitenant_pps, fig10_governed_pps, rss, wall);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", path);
    }
  }
  return 0;
}
