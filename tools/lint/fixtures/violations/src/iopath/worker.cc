// Seeded cross-shard violation: receiver-side model code reaching for
// FlowSource directly instead of the FlowFeedback interface.
#include "net/flow_source.h"

namespace fixture {

void poke(FlowSource& src) {  // violation: cross-shard
  src.notify_host_congestion();
}

void poke_single_domain(FlowSource& src);  // lint: allow-cross-shard
void poke_feedback(FlowFeedback& feedback);  // ok: the proxied interface

}  // namespace fixture
