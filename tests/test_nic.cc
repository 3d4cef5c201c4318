// Tests for the NIC substrate: RMT steering engine, on-NIC memory, buffer
// pool, RX ring and the RX pipeline shell.
#include <gtest/gtest.h>

#include "nic/buffer_pool.h"
#include "nic/nic.h"
#include "nic/nic_memory.h"
#include "nic/rmt_engine.h"
#include "nic/rx_ring.h"
#include "sim/event_scheduler.h"

namespace ceio {
namespace {

Packet make_packet(FlowId flow, Bytes size = Bytes{512}) {
  Packet pkt;
  pkt.flow = flow;
  pkt.size = size;
  return pkt;
}

// ---------- RmtEngine ----------

TEST(Rmt, DefaultActionForUnknownFlow) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{1'000}, 16, SteerAction::kToHost});
  EXPECT_EQ(rmt.steer(make_packet(99)), SteerAction::kToHost);
  // Unknown flows don't create counters.
  EXPECT_EQ(rmt.counters(99).hits, 0);
}

TEST(Rmt, RuleUpdateTakesEffectAfterLatency) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{1'000}, 16, SteerAction::kToHost});
  rmt.install_rule(1, SteerAction::kToNicMem);
  // Before the reprogram completes, the default action applies.
  EXPECT_EQ(rmt.current_action(1), SteerAction::kToHost);
  sched.run_until(Nanos{999});
  EXPECT_EQ(rmt.current_action(1), SteerAction::kToHost);
  sched.run_until(Nanos{1'000});
  EXPECT_EQ(rmt.current_action(1), SteerAction::kToNicMem);
}

TEST(Rmt, CountersTrackHitsAndBytes) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{0}, 16, SteerAction::kToHost});
  rmt.install_rule(1, SteerAction::kToHost);
  sched.run_all();
  rmt.steer(make_packet(1, Bytes{100}));
  rmt.steer(make_packet(1, Bytes{200}));
  EXPECT_EQ(rmt.counters(1).hits, 2);
  EXPECT_EQ(rmt.counters(1).bytes, Bytes{300});
}

TEST(Rmt, RemoveRuleRevertsToDefault) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{0}, 16, SteerAction::kDrop});
  rmt.install_rule(1, SteerAction::kToHost);
  sched.run_all();
  EXPECT_EQ(rmt.steer(make_packet(1)), SteerAction::kToHost);
  rmt.remove_rule(1);
  EXPECT_EQ(rmt.steer(make_packet(1)), SteerAction::kDrop);
  EXPECT_EQ(rmt.rule_count(), 0u);
}

TEST(Rmt, RemoveInvalidatesInFlightUpdates) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{1'000}, 16, SteerAction::kDrop});
  rmt.install_rule(1, SteerAction::kToHost);
  rmt.remove_rule(1);  // before the install lands
  sched.run_all();
  // The stale install must not resurrect the rule.
  EXPECT_EQ(rmt.rule_count(), 0u);
}

TEST(Rmt, TableCapacityRejectsNewFlows) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{0}, 2, SteerAction::kToHost});
  EXPECT_TRUE(rmt.install_rule(1, SteerAction::kToHost));
  EXPECT_TRUE(rmt.install_rule(2, SteerAction::kToHost));
  sched.run_all();
  EXPECT_FALSE(rmt.install_rule(3, SteerAction::kToHost));
  // Updating an existing rule is always allowed.
  EXPECT_TRUE(rmt.install_rule(1, SteerAction::kToNicMem));
}

// ---------- NicMemory ----------

TEST(NicMemory, AllocateFreeOccupancy) {
  NicMemory mem(NicMemoryConfig{4 * kKiB, gbps(100), Nanos{10}, Nanos{20}, Nanos{5}});
  EXPECT_TRUE(mem.allocate(Bytes{2048}));
  EXPECT_TRUE(mem.allocate(Bytes{2048}));
  EXPECT_FALSE(mem.allocate(Bytes{1}));
  EXPECT_EQ(mem.stats().alloc_failures, 1);
  mem.free(Bytes{2048});
  EXPECT_TRUE(mem.allocate(Bytes{1024}));
  EXPECT_EQ(mem.occupancy(), Bytes{3072});
}

TEST(NicMemory, ReadAddsSwitchLatency) {
  NicMemory mem(NicMemoryConfig{kGiB, gbps(1000), Nanos{100}, Nanos{300}, Nanos{0}});
  const Nanos w = mem.write(Nanos{0}, Bytes{64});
  const Nanos r = mem.read(Nanos{10'000}, Bytes{64});
  EXPECT_NEAR(static_cast<double>(w), 100.0, 5.0);
  EXPECT_NEAR(static_cast<double>(r - Nanos{10'000}), 400.0, 5.0);
}

TEST(NicMemory, PerRequestOverheadBindsSmallAccesses) {
  NicMemoryConfig cfg;
  cfg.bandwidth = gbps(1000);
  cfg.per_request_overhead = Nanos{50};
  cfg.access_latency = Nanos{0};
  cfg.switch_latency = Nanos{0};
  NicMemory mem(cfg);
  // 64 B at 1000 Gbps would be ~0.5 ns; the 50 ns request floor dominates.
  Nanos t{0};
  for (int i = 0; i < 10; ++i) t = mem.write(Nanos{0}, Bytes{64});
  EXPECT_GE(t, Nanos{10 * 50 - 5});
}

TEST(NicMemory, BandwidthBindsLargeAccesses) {
  NicMemoryConfig cfg;
  cfg.bandwidth = gbps(8.0);  // 1 GB/s
  cfg.per_request_overhead = Nanos{25};
  cfg.access_latency = Nanos{0};
  cfg.switch_latency = Nanos{0};
  NicMemory mem(cfg);
  const Nanos t = mem.write(Nanos{0}, 64 * kKiB);
  EXPECT_NEAR(static_cast<double>(t), 65'536.0, 100.0);
}

// ---------- BufferPool ----------

TEST(BufferPool, LifoRecycling) {
  BufferPool pool(4, 2 * kKiB, 100);
  const auto a = pool.acquire();
  ASSERT_TRUE(a.has_value());
  pool.release(*a);
  const auto b = pool.acquire();
  EXPECT_EQ(*a, *b);  // most-recently-released first (cache-warm reuse)
}

TEST(BufferPool, ExhaustionAndAccounting) {
  BufferPool pool(2, 2 * kKiB);
  EXPECT_EQ(pool.total(), 2u);
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  EXPECT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(pool.acquire().has_value());
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(*a);
  EXPECT_EQ(pool.available(), 1u);
}

TEST(BufferPool, BaseOffsetsIdRanges) {
  BufferPool a(4, 2 * kKiB, 1'000);
  BufferPool b(4, 2 * kKiB, 2'000);
  const auto ia = a.acquire();
  const auto ib = b.acquire();
  EXPECT_GE(*ia, 1'000u);
  EXPECT_LT(*ia, 1'004u);
  EXPECT_GE(*ib, 2'000u);
}

// ---------- RxRing ----------

TEST(RxRing, PostPollDropAccounting) {
  PacketPool pool;
  RxRing ring(2, pool, "test");
  EXPECT_TRUE(ring.post(pool.make(make_packet(1))));
  EXPECT_TRUE(ring.post(pool.make(make_packet(2))));
  const PacketRef rejected = pool.make(make_packet(3));
  EXPECT_FALSE(ring.post(rejected));
  EXPECT_EQ(ring.drops(), 1);
  EXPECT_DOUBLE_EQ(ring.occupancy_fraction(), 1.0);
  // A rejected handle stays with the caller, still live.
  ASSERT_NE(pool.get(rejected), nullptr);
  pool.release(rejected);
  const PacketRef p = ring.poll();
  ASSERT_TRUE(p);
  EXPECT_EQ(pool.get(p)->flow, 1u);
  EXPECT_EQ(ring.head(), 1u);
  EXPECT_EQ(ring.tail(), 2u);
  pool.release(p);
  EXPECT_FALSE(ring.poll() && ring.poll());  // one left, then empty
}

TEST(RxRing, DestructionReleasesPostedHandles) {
  PacketPool pool;
  {
    RxRing ring(4, pool, "test");
    ASSERT_TRUE(ring.post(pool.make(make_packet(1))));
    ASSERT_TRUE(ring.post(pool.make(make_packet(2))));
    EXPECT_EQ(pool.live(), 2u);
  }
  EXPECT_EQ(pool.live(), 0u);
}

// A ring whose slot storage grew several times while its oldest handle sat
// mid-buffer still hands them back in order, and releases the rest when
// destroyed.
TEST(RxRing, DestructionAfterGrowthReleasesEveryHandle) {
  PacketPool pool;
  {
    RxRing ring(1000, pool, "test");
    FlowId next_in = 0;
    FlowId next_out = 0;
    for (int round = 0; round < 300; ++round) {
      ASSERT_TRUE(ring.post(pool.make(make_packet(next_in++))));
      ASSERT_TRUE(ring.post(pool.make(make_packet(next_in++))));
      const PacketRef p = ring.poll();
      ASSERT_TRUE(p);
      EXPECT_EQ(pool.get(p)->flow, next_out++);
      pool.release(p);
    }
    EXPECT_EQ(ring.size(), 300u);
    EXPECT_EQ(ring.head(), 300u);
    EXPECT_EQ(ring.tail(), 600u);
    EXPECT_EQ(pool.live(), 300u);
  }
  EXPECT_EQ(pool.live(), 0u);
}

// ---------- Nic pipeline ----------

struct CollectSink : PacketSink {
  explicit CollectSink(PacketPool& p) : pool(p) {}
  PacketPool& pool;
  std::vector<Packet> packets;
  void on_packet(PacketRef ref) override { packets.push_back(pool.take(ref)); }
};

TEST(Nic, DeliversToSinkWithPipelineCost) {
  EventScheduler sched;
  PacketPool pool;
  Nic nic(sched, pool, NicConfig{Nanos{10}});
  CollectSink sink(pool);
  nic.attach(&sink);
  nic.receive(pool.make(make_packet(1)));
  nic.receive(pool.make(make_packet(2)));
  sched.run_all();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0].flow, 1u);
  EXPECT_EQ(sink.packets[1].flow, 2u);
  // Serialized: second packet leaves the pipeline 10 ns after the first.
  EXPECT_EQ(sink.packets[1].nic_arrival - sink.packets[0].nic_arrival, Nanos{10});
  EXPECT_EQ(nic.stats().packets, 2);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Nic, NoSinkIsSafe) {
  EventScheduler sched;
  PacketPool pool;
  Nic nic(sched, pool);
  nic.receive(pool.make(make_packet(1)));
  sched.run_all();  // must not crash
  EXPECT_EQ(nic.stats().packets, 1);
  EXPECT_EQ(pool.live(), 0u);  // an unattached NIC drops (and releases)
}

}  // namespace
}  // namespace ceio
