// Tests for the elastic on-NIC buffer manager: buffering, sticky draining,
// ordering, gating and capacity exhaustion.
#include <gtest/gtest.h>

#include "ceio/elastic_buffer.h"
#include "host/memory_controller.h"
#include "pcie/dma_engine.h"
#include "sim/event_scheduler.h"

namespace ceio {
namespace {

struct Harness {
  EventScheduler sched;
  LlcModel llc{LlcConfig{}};
  DramModel dram{DramConfig{}};
  IioBuffer iio{IioConfig{}};
  MemoryController mc{sched, llc, dram, iio};
  PcieLink link{PcieLinkConfig{}};
  DmaEngine dma{sched, link, mc, DmaEngineConfig{}};
  NicMemory nic_mem{NicMemoryConfig{}};
  PacketPool pool;
  std::vector<Packet> landed;
  bool gate_open = true;

  std::unique_ptr<ElasticBuffer> make(std::size_t window, bool with_gate = false) {
    return std::make_unique<ElasticBuffer>(
        sched, pool, nic_mem, dma, window,
        [this](PacketRef ref, Nanos) { landed.push_back(pool.take(ref)); },
        with_gate ? ElasticBuffer::IssueGate([this]() { return gate_open; }) : nullptr);
  }

  PacketRef pkt(std::uint64_t seq, Bytes size = Bytes{512}) {
    Packet p;
    p.flow = 1;
    p.seq = seq;
    p.size = size;
    return pool.make(p);
  }
};

TEST(ElasticBuffer, BufferThenDrainDelivers) {
  Harness h;
  auto eb = h.make(8);
  EXPECT_TRUE(eb->buffer_packet(h.pkt(1)));
  EXPECT_TRUE(eb->buffer_packet(h.pkt(2)));
  h.sched.run_until(micros(5));
  EXPECT_EQ(eb->backlog(), 2u);
  eb->drain();
  h.sched.run_all();
  ASSERT_EQ(h.landed.size(), 2u);
  EXPECT_EQ(h.landed[0].seq, 1u);
  EXPECT_EQ(h.landed[1].seq, 2u);
  EXPECT_TRUE(eb->idle());
  EXPECT_EQ(eb->stats().drained_pkts, 2);
}

TEST(ElasticBuffer, DrainIsStickyForLateArrivals) {
  Harness h;
  auto eb = h.make(8);
  eb->drain();  // armed while empty
  EXPECT_TRUE(eb->buffer_packet(h.pkt(1)));
  h.sched.run_all();
  EXPECT_EQ(h.landed.size(), 1u);
}

TEST(ElasticBuffer, DrainDisarmsWhenIdle) {
  Harness h;
  auto eb = h.make(8);
  eb->buffer_packet(h.pkt(1));
  eb->drain();
  h.sched.run_all();
  EXPECT_FALSE(eb->draining());
  // A new packet now waits for an explicit drain call.
  eb->buffer_packet(h.pkt(2));
  h.sched.run_all();
  EXPECT_EQ(h.landed.size(), 1u);
  eb->drain();
  h.sched.run_all();
  EXPECT_EQ(h.landed.size(), 2u);
}

TEST(ElasticBuffer, WindowLimitsInFlight) {
  Harness h;
  auto eb = h.make(2);
  for (std::uint64_t i = 0; i < 10; ++i) eb->buffer_packet(h.pkt(i));
  h.sched.run_until(micros(5));
  eb->drain();
  EXPECT_LE(eb->in_flight(), 2);
  h.sched.run_all();
  EXPECT_EQ(h.landed.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(h.landed[i].seq, i);
}

TEST(ElasticBuffer, GatePausesAndResumes) {
  Harness h;
  auto eb = h.make(8, /*with_gate=*/true);
  h.gate_open = false;
  for (std::uint64_t i = 0; i < 4; ++i) eb->buffer_packet(h.pkt(i));
  eb->drain();
  h.sched.run_all();
  EXPECT_EQ(h.landed.size(), 0u);
  EXPECT_EQ(eb->backlog(), 4u);
  h.gate_open = true;
  eb->drain();
  h.sched.run_all();
  EXPECT_EQ(h.landed.size(), 4u);
}

TEST(ElasticBuffer, NicMemoryExhaustionDrops) {
  Harness h;
  NicMemoryConfig tiny;
  tiny.capacity = Bytes{1'024};
  NicMemory small(tiny);
  ElasticBuffer eb(h.sched, h.pool, small, h.dma, 8,
                   [&](PacketRef ref, Nanos) { h.pool.release(ref); });
  EXPECT_TRUE(eb.buffer_packet(h.pkt(1, Bytes{512})));
  EXPECT_TRUE(eb.buffer_packet(h.pkt(2, Bytes{512})));
  EXPECT_FALSE(eb.buffer_packet(h.pkt(3, Bytes{512})));
  EXPECT_EQ(eb.stats().dropped_pkts, 1);
  // Draining frees capacity again.
  eb.drain();
  h.sched.run_all();
  EXPECT_TRUE(eb.buffer_packet(h.pkt(4, Bytes{512})));
}

TEST(ElasticBuffer, AccountsBufferedBytes) {
  Harness h;
  auto eb = h.make(8);
  eb->buffer_packet(h.pkt(1, Bytes{1'000}));
  eb->buffer_packet(h.pkt(2, Bytes{500}));
  EXPECT_EQ(eb->stats().buffered_bytes, Bytes{1'500});
  EXPECT_EQ(eb->stats().buffered_pkts, 2);
}

TEST(ElasticBuffer, NotIdleWhileWritesPending) {
  Harness h;
  auto eb = h.make(8);
  eb->buffer_packet(h.pkt(1));
  // The on-NIC write has not completed yet: not idle, nothing drainable.
  EXPECT_FALSE(eb->idle());
  EXPECT_EQ(eb->backlog(), 0u);
  h.sched.run_all();
  EXPECT_EQ(eb->backlog(), 1u);
}

TEST(ElasticBuffer, DiscardReleasesQueuedAndPendingPackets) {
  Harness h;
  auto eb = h.make(8);
  eb->buffer_packet(h.pkt(1));
  h.sched.run_all();  // first packet written and queued on-NIC
  eb->buffer_packet(h.pkt(2));  // second still being written
  EXPECT_EQ(h.pool.live(), 2u);
  eb->discard();
  EXPECT_EQ(h.pool.live(), 1u);
  h.sched.run_all();  // the pending write completes into a discarded buffer
  EXPECT_EQ(h.pool.live(), 0u);
  EXPECT_TRUE(h.landed.empty());
}

TEST(ElasticBuffer, DiscardLetsARunningDrainFinish) {
  Harness h;
  auto eb = h.make(1);
  eb->buffer_packet(h.pkt(1));
  eb->buffer_packet(h.pkt(2));
  eb->drain();    // sticky: covers both writes still in progress
  eb->discard();  // the drain still owns what it will read out
  h.sched.run_all();
  ASSERT_EQ(h.landed.size(), 2u);
  EXPECT_EQ(h.landed[1].seq, 2u);
  EXPECT_EQ(h.pool.live(), 0u);
}

}  // namespace
}  // namespace ceio
