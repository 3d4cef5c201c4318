// Isolated layer probes: host time of one layer's public API, sized from
// what the real run observed, with the rest of the simulator out of the way.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "host/cache.h"

namespace perfbench {

/// EventScheduler at a steady pending depth: every event reschedules itself
/// after a uniform delay in [1, 2 * mean_delay_ns]. Returns host ns per
/// executed event.
double probe_scheduler(std::int64_t depth, double mean_delay_ns, double budget_s);

/// LlcModel replay at the run's geometry and tenant way split: each step
/// DMA-writes a pool buffer, then the CPU reads either a recently written
/// buffer (a hit) or, with probability `miss_rate`, one the DDIO partition
/// never held (a miss), and releases the buffer it read. Returns host ns per
/// LLC operation; `achieved_miss` receives the replay's own miss rate.
double probe_llc(const ceio::LlcConfig& config, const std::vector<int>& tenant_ways,
                 double miss_rate, double budget_s, double* achieved_miss);

/// ShardCoordinator over no-op domains: host ns per empty epoch at the
/// run's domain count, worker count and lookahead.
double probe_coordinator(int domains, int shards, ceio::Nanos lookahead, double budget_s);

}  // namespace perfbench
