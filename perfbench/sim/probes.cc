#include "probes.h"

#include <algorithm>
#include <memory>

#include "sim/event_scheduler.h"
#include "sim/shard_coordinator.h"
#include "spans.h"

namespace perfbench {

namespace {

/// xorshift64*: cheap deterministic draws that stay out of the timed cost.
struct Draw {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dULL;
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct SchedState {
  ceio::EventScheduler sched;
  Draw draw{0x9e3779b97f4a7c15ULL};
  std::int64_t max_delay = 1;
};

struct Reschedule {
  SchedState* st;
  void operator()() const {
    const auto delay = 1 + static_cast<std::int64_t>(
                               st->draw.next() % static_cast<std::uint64_t>(st->max_delay));
    st->sched.schedule_after(ceio::Nanos{delay}, Reschedule{st});
  }
};

class NoopDomain final : public ceio::ShardDomain {
 public:
  void drain_phase(ceio::Nanos) override {}
  void run_phase(ceio::Nanos, bool) override {}
};

}  // namespace

double probe_scheduler(std::int64_t depth, double mean_delay_ns, double budget_s) {
  auto st = std::make_unique<SchedState>();
  st->max_delay = std::max<std::int64_t>(2, static_cast<std::int64_t>(2.0 * mean_delay_ns));
  for (std::int64_t i = 0; i < std::max<std::int64_t>(depth, 1); ++i) {
    const auto at = 1 + static_cast<std::int64_t>(
                            st->draw.next() % static_cast<std::uint64_t>(st->max_delay));
    st->sched.schedule_at(ceio::Nanos{at}, Reschedule{st.get()});
  }
  // Warm the pool and wheel, then time slices of simulated time until the
  // budget is spent.
  const ceio::Nanos slice{st->max_delay * 64};
  st->sched.run_until(st->sched.now() + slice);
  const std::uint64_t e0 = st->sched.executed();
  const std::int64_t t0 = host_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  while (host_ns() - t0 < budget_ns) st->sched.run_until(st->sched.now() + slice);
  const double ns = static_cast<double>(host_ns() - t0);
  const auto events = static_cast<double>(st->sched.executed() - e0);
  return events > 0 ? ns / events : 0.0;
}

double probe_llc(const ceio::LlcConfig& config, const std::vector<int>& tenant_ways,
                 double miss_rate, double budget_s, double* achieved_miss) {
  ceio::LlcModel llc(config);
  const std::size_t tenants = std::max<std::size_t>(tenant_ways.size(), 1);
  constexpr ceio::BufferId kRange = 1ULL << 32;
  if (!tenant_ways.empty()) {
    llc.set_tenant_ways(tenant_ways);
    for (std::size_t t = 0; t < tenants; ++t) llc.add_tenant_range(t * kRange, (t + 1) * kRange, t);
  }
  // Each tenant recycles a pool of buffers the size of the DDIO partition
  // and reads back a buffer written `lag` steps earlier — well inside its
  // slice, so the read hits unless something evicted it first.
  const auto pool = static_cast<std::uint64_t>(std::max<std::size_t>(llc.ddio_capacity(), 64));
  constexpr std::uint64_t kLag = 16;
  const ceio::Bytes size = config.buffer_bytes;
  Draw draw{0xda942042e4dd58b5ULL};
  std::vector<std::uint64_t> seq(tenants, 0);
  ceio::BufferId cold = tenants * kRange;  // never DMA-written: a CPU read misses
  std::uint64_t ops = 0;
  const auto step = [&](std::size_t t) {
    const ceio::BufferId base = t * kRange;
    const std::uint64_t n = seq[t]++;
    llc.ddio_write(base + n % pool, size);
    if (n < kLag) return;
    if (draw.unit() < miss_rate) {
      llc.cpu_read(cold++, size);
    } else {
      const ceio::BufferId id = base + (n - kLag) % pool;
      llc.cpu_read(id, size);
      llc.invalidate(id);
    }
    ops += 2;
  };
  for (std::uint64_t i = 0; i < 4 * pool * tenants; ++i) step(i % tenants);
  llc.reset_stats();
  ops = 0;
  const std::int64_t t0 = host_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  std::uint64_t i = 0;
  while (host_ns() - t0 < budget_ns) {
    for (int k = 0; k < 4096; ++k, ++i) step(i % tenants);
  }
  const double ns = static_cast<double>(host_ns() - t0);
  if (achieved_miss != nullptr) *achieved_miss = llc.stats().miss_rate();
  return ops > 0 ? ns / static_cast<double>(ops) : 0.0;
}

double probe_coordinator(int domains, int shards, ceio::Nanos lookahead, double budget_s) {
  std::vector<NoopDomain> noop(static_cast<std::size_t>(std::max(domains, 1)));
  std::vector<ceio::ShardDomain*> ptrs;
  for (auto& d : noop) ptrs.push_back(&d);
  ceio::ShardCoordinator coord(std::move(ptrs), lookahead, shards);
  constexpr std::int64_t kBatch = 1000;
  coord.run_until(coord.now() + lookahead * kBatch);  // start the workers
  const std::uint64_t e0 = coord.epochs_completed();
  const std::int64_t t0 = host_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  while (host_ns() - t0 < budget_ns) coord.run_until(coord.now() + lookahead * kBatch);
  const double ns = static_cast<double>(host_ns() - t0);
  const auto epochs = static_cast<double>(coord.epochs_completed() - e0);
  return epochs > 0 ? ns / epochs : 0.0;
}

}  // namespace perfbench
