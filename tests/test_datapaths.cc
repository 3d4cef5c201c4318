// Behavioural tests for the baseline datapaths (legacy, HostCC, ShRing)
// driven through the full testbed.
#include <gtest/gtest.h>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "baselines/hostcc.h"
#include "baselines/shring.h"
#include "ceio/ceio_datapath.h"
#include "iopath/testbed.h"

namespace ceio {
namespace {

FlowConfig kv_flow(FlowId id, double rate_gbps = 25.0, Bytes pkt = Bytes{512}) {
  FlowConfig fc;
  fc.id = id;
  fc.kind = FlowKind::kCpuInvolved;
  fc.packet_size = pkt;
  fc.offered_rate = gbps(rate_gbps);
  return fc;
}

FlowConfig dfs_flow(FlowId id, double rate_gbps = 25.0) {
  FlowConfig fc;
  fc.id = id;
  fc.kind = FlowKind::kCpuBypass;
  fc.packet_size = 2 * kKiB;
  fc.message_pkts = 512;  // 1 MiB chunks
  fc.offered_rate = gbps(rate_gbps);
  return fc;
}

TEST(LegacyDatapath, ThrashesUnderOverload) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kLegacy;
  Testbed bed(cfg);
  auto& kv = bed.make_kv_store();
  for (FlowId id = 1; id <= 8; ++id) bed.add_flow(kv_flow(id), kv);
  bed.run_for(millis(2));
  bed.reset_measurement();
  bed.run_for(millis(3));
  EXPECT_GT(bed.llc_miss_rate(), 0.8);
  EXPECT_GT(bed.llc().stats().premature_evictions, 1'000);
}

TEST(LegacyDatapath, NoThrashUnderLightLoad) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kLegacy;
  Testbed bed(cfg);
  auto& echo = bed.make_echo();
  bed.add_flow(kv_flow(1, 5.0), echo);
  bed.run_for(millis(2));
  bed.reset_measurement();
  bed.run_for(millis(3));
  EXPECT_LT(bed.llc_miss_rate(), 0.02);
  EXPECT_GT(bed.report(1).mpps, 1.0);
}

TEST(LegacyDatapath, BypassFlowCompletesChunks) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kLegacy;
  Testbed bed(cfg);
  auto& dfs = bed.make_linefs();
  bed.add_flow(dfs_flow(1), dfs);
  bed.run_for(millis(5));
  EXPECT_GT(dfs.chunks_committed(), 5);
  EXPECT_GT(bed.report(1).message_gbps, 1.0);
}

TEST(Hostcc, SignalsFireUnderThrashAndThrottle) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kHostcc;
  Testbed bed(cfg);
  auto& kv = bed.make_kv_store();
  for (FlowId id = 1; id <= 8; ++id) bed.add_flow(kv_flow(id), kv);
  bed.run_for(millis(5));
  auto& dp = static_cast<HostccDatapath&>(bed.datapath());
  EXPECT_GT(dp.congestion_signals(), 0);
  // Reactive control still leaves a substantial residual miss rate.
  bed.reset_measurement();
  bed.run_for(millis(2));
  EXPECT_GT(bed.llc_miss_rate(), 0.05);
}

TEST(Hostcc, SilentWhenHealthy) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kHostcc;
  Testbed bed(cfg);
  auto& echo = bed.make_echo();
  bed.add_flow(kv_flow(1, 5.0), echo);
  bed.run_for(millis(5));
  auto& dp = static_cast<HostccDatapath&>(bed.datapath());
  EXPECT_EQ(dp.congestion_signals(), 0);
}

TEST(Hostcc, BeatsLegacyThroughputUnderThrash) {
  auto run = [](SystemKind system) {
    TestbedConfig cfg;
    cfg.system = system;
    Testbed bed(cfg);
    auto& kv = bed.make_kv_store();
    for (FlowId id = 1; id <= 8; ++id) bed.add_flow(kv_flow(id), kv);
    bed.run_for(millis(2));
    bed.reset_measurement();
    bed.run_for(millis(4));
    return bed.aggregate_mpps();
  };
  EXPECT_GT(run(SystemKind::kHostcc), run(SystemKind::kLegacy) * 1.2);
}

TEST(Shring, PoolCapBoundsInFlightAndMisses) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kShring;
  cfg.shring_pool_entries = 2048;  // below the DDIO partition (3072)
  Testbed bed(cfg);
  auto& kv = bed.make_kv_store();
  for (FlowId id = 1; id <= 8; ++id) bed.add_flow(kv_flow(id), kv);
  bed.run_for(millis(2));
  bed.reset_measurement();
  bed.run_for(millis(4));
  EXPECT_LT(bed.llc_miss_rate(), 0.05);
  EXPECT_LE(bed.host_pool().in_use(), 2048u);
}

TEST(Shring, BackpressureSignalsUnderPressure) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kShring;
  Testbed bed(cfg);
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();
  for (FlowId id = 1; id <= 4; ++id) bed.add_flow(kv_flow(id), kv);
  for (FlowId id = 10; id <= 13; ++id) bed.add_flow(dfs_flow(id), dfs);
  bed.run_for(millis(5));
  auto& dp = static_cast<ShringDatapath&>(bed.datapath());
  EXPECT_GT(dp.backpressure_signals(), 0);
}

TEST(Shring, BypassChunksCompleteDespiteSharedPool) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kShring;
  Testbed bed(cfg);
  auto& dfs = bed.make_linefs();
  for (FlowId id = 1; id <= 4; ++id) bed.add_flow(dfs_flow(id), dfs);
  bed.run_for(millis(6));
  EXPECT_GT(dfs.chunks_committed(), 4);
  // Pool fully recycled by completion/sweep (nothing leaks).
  bed.run_for(millis(1));
  EXPECT_GT(bed.host_pool().available(), 0u);
}

TEST(AllDatapaths, RemoveFlowMidTrafficIsSafe) {
  for (const SystemKind system : {SystemKind::kLegacy, SystemKind::kHostcc,
                                  SystemKind::kShring, SystemKind::kCeio}) {
    TestbedConfig cfg;
    cfg.system = system;
    Testbed bed(cfg);
    auto& kv = bed.make_kv_store();
    auto& dfs = bed.make_linefs();
    for (FlowId id = 1; id <= 4; ++id) bed.add_flow(kv_flow(id), kv);
    bed.add_flow(dfs_flow(10), dfs);
    bed.run_for(millis(1));
    bed.remove_flow(2);
    bed.remove_flow(10);
    bed.run_for(millis(1));
    bed.add_flow(kv_flow(5), kv);
    bed.run_for(millis(1));
    EXPECT_GT(bed.aggregate_mpps(), 0.0) << to_string(system);
  }
}

// Packets the datapath still reports queued: RX ring depths plus, for
// CEIO, each flow's slow-path backlog (on-NIC, in flight, landed).
std::size_t queued_packets(Testbed& bed) {
  std::size_t queued = 0;
  bed.datapath().for_each_ring([&queued](const RxRing& r) { queued += r.size(); });
  if (CeioDatapath* ceio = bed.ceio()) {
    for (const FlowId id : bed.flow_ids()) queued += ceio->slow_backlog(id);
  }
  return queued;
}

// One packet pool per domain: a packet parked where it entered is released
// exactly once where it left. Once the sources stop and the pipeline
// drains, the testbed's pool is empty — through ring-overflow drops, a flow
// removed mid-traffic, CPU completions, bypass landings and CEIO's slow
// path.
TEST(AllDatapaths, PacketPoolDrainsWithThePipeline) {
  struct Case {
    SystemKind system;
    bool bypass;  // LineFS flows (CEIO: bypass + slow path) instead of KV
  };
  for (const Case c : {Case{SystemKind::kLegacy, false}, Case{SystemKind::kHostcc, false},
                       Case{SystemKind::kShring, false}, Case{SystemKind::kCeio, false},
                       Case{SystemKind::kCeio, true}}) {
    const std::string label = std::string(to_string(c.system)) + (c.bypass ? "/linefs" : "/kv");
    TestbedConfig cfg;
    cfg.system = c.system;
    Testbed bed(cfg);
    Application& app = c.bypass ? static_cast<Application&>(bed.make_linefs())
                                : static_cast<Application&>(bed.make_kv_store());
    for (FlowId id = 1; id <= 4; ++id) bed.add_flow(c.bypass ? dfs_flow(id) : kv_flow(id), app);
    bed.run_for(millis(1));
    EXPECT_GT(bed.packet_pool().live(), 0u) << label;
    bed.remove_flow(2);  // whatever flow 2 still had in flight must come back
    bed.run_for(micros(200));
    for (const FlowId id : bed.flow_ids()) bed.source(id)->stop();
    bed.run_for(millis(1));
    // Queued packets are parked ones; the rest are on a core or a bus.
    EXPECT_GE(bed.packet_pool().live(), queued_packets(bed)) << label;
    // An overloaded baseline needs a few more milliseconds to work off its
    // rings; then one more for the last CPU work items.
    for (int i = 0; i < 50 && queued_packets(bed) > 0; ++i) bed.run_for(millis(1));
    bed.run_for(millis(1));
    EXPECT_EQ(queued_packets(bed), 0u) << label;
    EXPECT_EQ(bed.packet_pool().live(), 0u) << label;
    if (c.bypass) {
      EXPECT_GT(bed.ceio()->runtime_stats().credit_switches_to_slow, 0) << label;
    }
  }
}

TEST(AllDatapaths, MessageLatencyReported) {
  for (const SystemKind system : {SystemKind::kLegacy, SystemKind::kShring,
                                  SystemKind::kCeio}) {
    TestbedConfig cfg;
    cfg.system = system;
    Testbed bed(cfg);
    auto& echo = bed.make_echo();
    bed.add_flow(kv_flow(1, 5.0), echo);
    bed.run_for(millis(3));
    const auto r = bed.report(1);
    EXPECT_GT(r.p50, Nanos{0}) << to_string(system);
    EXPECT_GE(r.p999, r.p50) << to_string(system);
    EXPECT_GT(r.messages, 100) << to_string(system);
  }
}

}  // namespace
}  // namespace ceio
