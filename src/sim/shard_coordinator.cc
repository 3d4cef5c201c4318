#include "sim/shard_coordinator.h"

#include <algorithm>
#include <stdexcept>

namespace ceio {

ShardCoordinator::ShardCoordinator(std::vector<ShardDomain*> domains,
                                   Nanos lookahead, int shards)
    : domains_(std::move(domains)),
      lookahead_(lookahead),
      shards_(std::clamp<int>(shards, 1, std::max<int>(1, static_cast<int>(domains_.size())))),
      start_(shards_),
      end_(shards_),
      errors_(static_cast<std::size_t>(shards_)) {
  if (lookahead_ <= Nanos{0}) {
    throw std::invalid_argument(
        "ShardCoordinator: lookahead must be positive (a zero-delay "
        "cross-domain channel defeats conservative synchronization)");
  }
  if (domains_.empty()) {
    throw std::invalid_argument("ShardCoordinator: no domains");
  }
  for (int w = 1; w < shards_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ShardCoordinator::~ShardCoordinator() {
  if (!workers_.empty()) {
    pending_op_ = Op::kStop;
    start_.arrive_and_wait();
    for (auto& t : workers_) t.join();
  }
}

void ShardCoordinator::worker_loop(int worker) {
  for (;;) {
    start_.arrive_and_wait();
    const Op op = pending_op_;
    if (op == Op::kStop) return;
    try {
      apply(worker, op, pending_arg_);
    } catch (...) {
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    end_.arrive_and_wait();
  }
}

void ShardCoordinator::apply(int worker, Op op, Nanos arg) {
  for (std::size_t d = static_cast<std::size_t>(worker); d < domains_.size();
       d += static_cast<std::size_t>(shards_)) {
    switch (op) {
      case Op::kDrain:
        domains_[d]->drain_phase(arg);
        break;
      case Op::kRun:
        domains_[d]->run_phase(arg, /*at_epoch_end=*/false);
        break;
      case Op::kRunFlush:
        domains_[d]->run_phase(arg, /*at_epoch_end=*/true);
        break;
      case Op::kStop:
        break;
    }
  }
}

void ShardCoordinator::parallel(Op op, Nanos arg) {
  if (workers_.empty()) {
    apply(0, op, arg);
    return;
  }
  pending_op_ = op;
  pending_arg_ = arg;
  start_.arrive_and_wait();
  try {
    apply(0, op, arg);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  end_.arrive_and_wait();
  std::exception_ptr first;
  for (std::exception_ptr& e : errors_) {
    if (!first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ShardCoordinator::run_until(Nanos deadline) {
  while (now_ < deadline) {
    const Nanos epoch_end = epoch_start_ + lookahead_;
    if (!drained_) {
      parallel(Op::kDrain, epoch_end);
      drained_ = true;
    }
    const Nanos stop = std::min(epoch_end, deadline);
    const bool closes_epoch = stop == epoch_end;
    parallel(closes_epoch ? Op::kRunFlush : Op::kRun, stop);
    now_ = stop;
    if (closes_epoch) {
      epoch_start_ = epoch_end;
      drained_ = false;
      ++epochs_;
    }
  }
}

}  // namespace ceio
