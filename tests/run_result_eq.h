// Field-by-field RunResult equality for tests whose contract is "bitwise
// the same report": shard counts, tenant worker threads, tracing on/off.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "harness/experiment.h"

namespace ceio::harness {

inline void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const FlowReport& x = a.flows[i];
    const FlowReport& y = b.flows[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.mpps, y.mpps) << "flow " << x.id;
    EXPECT_EQ(x.gbps, y.gbps) << "flow " << x.id;
    EXPECT_EQ(x.message_gbps, y.message_gbps) << "flow " << x.id;
    EXPECT_EQ(x.p50, y.p50) << "flow " << x.id;
    EXPECT_EQ(x.p99, y.p99) << "flow " << x.id;
    EXPECT_EQ(x.p999, y.p999) << "flow " << x.id;
    EXPECT_EQ(x.messages, y.messages) << "flow " << x.id;
    EXPECT_EQ(x.drops, y.drops) << "flow " << x.id;
  }
  EXPECT_EQ(a.aggregate_mpps, b.aggregate_mpps);
  EXPECT_EQ(a.aggregate_gbps, b.aggregate_gbps);
  EXPECT_EQ(a.aggregate_message_gbps, b.aggregate_message_gbps);
  EXPECT_EQ(a.llc_miss_rate, b.llc_miss_rate);
  EXPECT_EQ(a.premature_evictions, b.premature_evictions);
  EXPECT_EQ(a.dram_utilization, b.dram_utilization);
  EXPECT_EQ(a.has_ceio, b.has_ceio);
  EXPECT_EQ(a.ceio_total_credits, b.ceio_total_credits);
  EXPECT_EQ(a.ceio_to_slow, b.ceio_to_slow);
  EXPECT_EQ(a.ceio_to_fast, b.ceio_to_fast);
  EXPECT_EQ(a.ceio_cca_triggers, b.ceio_cca_triggers);
  EXPECT_EQ(a.ceio_reclaims, b.ceio_reclaims);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const tenant::TenantReport& x = a.tenants[t];
    const tenant::TenantReport& y = b.tenants[t];
    EXPECT_EQ(x.ddio_ways, y.ddio_ways) << x.name;
    EXPECT_EQ(x.mpps, y.mpps) << x.name;
    EXPECT_EQ(x.p99, y.p99) << x.name;
    EXPECT_EQ(x.ddio_occupancy, y.ddio_occupancy) << x.name;
    EXPECT_EQ(x.premature_evictions, y.premature_evictions) << x.name;
    EXPECT_EQ(x.budget_bypasses, y.budget_bypasses) << x.name;
    EXPECT_EQ(x.drops, y.drops) << x.name;
  }
  EXPECT_EQ(a.way_repartitions, b.way_repartitions);
}

}  // namespace ceio::harness
