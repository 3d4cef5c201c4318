// Conservative-lookahead epoch coordinator for sharded simulation.
//
// One simulated deployment is partitioned into event domains, each with its
// own EventScheduler. Domains interact only through timestamped messages
// whose delivery delay is bounded below by a channel *lookahead* (network
// propagation, PCIe transit). The coordinator advances all domains in
// epochs of length L = min(lookahead): a message sent at time t arrives at
// t + delay >= t + L, so every message arriving inside epoch k was sent
// before epoch k began and is already sitting in its mailbox when the epoch
// starts. Each epoch is therefore two phases separated by barriers:
//
//   drain  every domain merges its inbox mailboxes deterministically
//          (by (arrival, source domain, sender seq)) and injects the
//          eligible messages into its local scheduler;
//   run    every domain executes its scheduler up to the epoch end, then
//          flushes partially filled outgoing bursts so they cross at the
//          boundary.
//
// Mid-phase, a thread touches only its own domains' state plus the producer
// side of outgoing mailboxes — there is no shared mutable state, so results
// are bit-identical at any worker-thread count: the phase schedule depends
// only on the domain count and L, and each domain's execution is a pure
// function of its own event stream. shards=1 runs the identical phase
// sequence inline on the calling thread.
#pragma once

#include <barrier>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "common/units.h"

namespace ceio {

/// One event domain as the coordinator sees it. Implementations live in the
/// harness (ShardedTestbed); the contract is that drain_phase touches only
/// the domain's inboxes + local scheduler, and run_phase touches only local
/// state plus the producer side of outgoing mailboxes.
class ShardDomain {
 public:
  virtual ~ShardDomain() = default;

  /// Epoch start: merge inbox messages with arrival < `epoch_end` into the
  /// local scheduler (deterministic order).
  virtual void drain_phase(Nanos epoch_end) = 0;

  /// Executes local events up to `stop`. `at_epoch_end` is true when `stop`
  /// closes the epoch: the domain must then flush partial outgoing bursts
  /// (producer side only — consumers read after the next barrier).
  virtual void run_phase(Nanos stop, bool at_epoch_end) = 0;
};

class ShardCoordinator {
 public:
  /// `lookahead` must be strictly positive (a zero-lookahead channel would
  /// allow same-instant cross-domain causality and deadlock the epoch
  /// scheme); throws std::invalid_argument otherwise. `shards` is clamped
  /// to [1, domains.size()]; domain d runs on worker d % shards.
  ShardCoordinator(std::vector<ShardDomain*> domains, Nanos lookahead, int shards);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Advances every domain to `deadline` (absolute). Partial epochs are
  /// supported: stopping mid-epoch (to reset measurement, say) and resuming
  /// later executes the exact event sequence of an uninterrupted run.
  /// An exception thrown by a domain on any worker is rethrown here, on the
  /// calling thread, once the phase's barrier completes (the lowest-numbered
  /// worker's wins); the domains are then mid-phase, so the run is over and
  /// the coordinator is only fit to be destroyed.
  void run_until(Nanos deadline);

  Nanos now() const { return now_; }
  std::uint64_t epochs_completed() const { return epochs_; }
  Nanos lookahead() const { return lookahead_; }
  int shards() const { return shards_; }

 private:
  enum class Op { kDrain, kRun, kRunFlush, kStop };

  /// Runs `op` over every domain, split across the workers (worker w takes
  /// domains w, w+shards, w+2*shards, ... in ascending order). The calling
  /// thread acts as worker 0; returns after all workers finish, rethrowing
  /// the first failed worker's exception.
  void parallel(Op op, Nanos arg);
  void apply(int worker, Op op, Nanos arg);
  void worker_loop(int worker);

  std::vector<ShardDomain*> domains_;
  Nanos lookahead_;
  int shards_;

  Nanos now_{0};
  Nanos epoch_start_{0};
  bool drained_ = false;  // current epoch's drain phase already ran
  std::uint64_t epochs_ = 0;

  // Worker pool (only when shards_ > 1): a start barrier publishes the
  // pending op, an end barrier signals completion. Both include the
  // calling thread.
  std::vector<std::thread> workers_;
  std::barrier<> start_;
  std::barrier<> end_;
  Op pending_op_ = Op::kStop;
  Nanos pending_arg_{0};
  /// What each worker's last apply threw; written by that worker only,
  /// read by the calling thread after the end barrier.
  std::vector<std::exception_ptr> errors_;
};

}  // namespace ceio
