// Seeded std-function-hot-path violation: src/sim/ is the allocation-free
// event core, where std::function reintroduces per-event heap traffic.
#pragma once

#include <functional>

namespace fixture {

class HotLoop {
 public:
  void set_callback(std::function<void()> cb);       // violation
  void set_cold_callback(std::function<void()> cb);  // lint: allow-std-function-hot-path
  void set_inline_callback(InlineFunction<void()> cb);  // ok: allocation-free

 private:
  int depth_ = 0;
};

}  // namespace fixture
