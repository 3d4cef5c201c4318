// Google-benchmark microbenchmarks for the hot substrate operations: these
// run millions of times per simulated second, so their cost bounds how much
// simulated time the experiment harness can cover.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "ceio/credit_controller.h"
#include "ceio/sw_ring.h"
#include "common/rng.h"
#include "host/cache.h"
#include "nic/rmt_engine.h"
#include "sim/event_scheduler.h"

namespace ceio {
namespace {

void BM_EventSchedulerScheduleRun(benchmark::State& state) {
  EventScheduler sched;
  std::int64_t sink = 0;
  for (auto _ : state) {
    sched.schedule_after(Nanos{10}, [&sink]() { ++sink; });
    sched.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventSchedulerScheduleRun);

void BM_LlcDdioWrite(benchmark::State& state) {
  LlcModel llc(LlcConfig{12 * kMiB, 12, 6, 2 * kKiB});
  BufferId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.ddio_write(id, Bytes{512}));
    id = id % 8192 + 1;
  }
}
BENCHMARK(BM_LlcDdioWrite);

void BM_LlcCpuReadHit(benchmark::State& state) {
  LlcModel llc(LlcConfig{12 * kMiB, 12, 6, 2 * kKiB});
  for (BufferId id = 1; id <= 64; ++id) llc.ddio_write(id, Bytes{512});
  BufferId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.cpu_read(id, Bytes{512}));
    id = id % 64 + 1;
  }
}
BENCHMARK(BM_LlcCpuReadHit);

void BM_RmtSteer(benchmark::State& state) {
  EventScheduler sched;
  RmtEngine rmt(sched, RmtConfig{Nanos{0}, 65'536, SteerAction::kToHost});
  for (FlowId f = 1; f <= 128; ++f) rmt.install_rule(f, SteerAction::kToHost);
  sched.run_all();
  Packet pkt;
  pkt.size = Bytes{512};
  FlowId f = 1;
  for (auto _ : state) {
    pkt.flow = f;
    benchmark::DoNotOptimize(rmt.steer(pkt));
    f = f % 128 + 1;
  }
}
BENCHMARK(BM_RmtSteer);

void BM_CreditConsumeRelease(benchmark::State& state) {
  CreditController credits(3000);
  credits.add_flows({1, 2, 3, 4, 5, 6, 7, 8});
  for (auto _ : state) {
    credits.consume(3, 1);
    credits.release(3, 1);
  }
  benchmark::DoNotOptimize(credits.credits(3));
}
BENCHMARK(BM_CreditConsumeRelease);

// Algorithm 1 admitting two newcomers next to `flows` incumbents. Only the
// add_flows call is timed (manual time): setting up the incumbents, the
// controller's destruction and Pause/ResumeTiming would otherwise swamp a
// sub-microsecond admission. Its cost does not grow with the flow count:
// the donation walks scan the whole 4096-id directory page whatever its
// occupancy, and at /512 the free pool's rounding remainder (3000 - 512*5)
// already funds both newcomers, so no donation walk runs at all.
void BM_CreditAlgorithm1(benchmark::State& state) {
  const auto flows = static_cast<FlowId>(state.range(0));
  std::vector<FlowId> incumbents;
  for (FlowId f = 1; f <= flows; ++f) incumbents.push_back(f);
  const std::vector<FlowId> arrivals{flows + 1, flows + 2};
  for (auto _ : state) {
    CreditController credits(3000);
    credits.add_flows(incumbents);
    const auto start = std::chrono::steady_clock::now();
    credits.add_flows(arrivals);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(credits.fair_share());
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
}
BENCHMARK(BM_CreditAlgorithm1)->Arg(8)->Arg(64)->Arg(512)->UseManualTime();

void BM_SwRingNoteConsume(benchmark::State& state) {
  SwRing sw;
  bool fast = true;
  for (auto _ : state) {
    sw.note_steered(fast);
    fast = !fast;
    sw.consumed();
  }
  benchmark::DoNotOptimize(sw.pending());
}
BENCHMARK(BM_SwRingNoteConsume);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(1000, 0.99));
  }
}
BENCHMARK(BM_RngZipf);

}  // namespace
}  // namespace ceio

BENCHMARK_MAIN();
