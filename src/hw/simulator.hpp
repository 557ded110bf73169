// Clock-stepping simulator driving a set of Modules.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <vector>

#include "hw/module.hpp"

namespace swr::hw {

/// Drives registered modules cycle by cycle. Modules are not owned.
class Simulator {
 public:
  /// When `shuffle_evaluation` is set, evaluate() order is randomised each
  /// cycle — behaviour must not change (two-phase semantics); the systolic
  /// tests run both ways to prove order independence.
  explicit Simulator(bool shuffle_evaluation = false, std::uint64_t seed = 0)
      : shuffle_(shuffle_evaluation), rng_(seed) {}

  /// Registers a module. @throws std::invalid_argument on nullptr.
  void add(Module* m) {
    if (m == nullptr) throw std::invalid_argument("Simulator::add: null module");
    modules_.push_back(m);
  }

  /// Advances one clock: evaluate all, then commit all.
  void step() {
    const std::vector<std::size_t>& order = order_idx();
    if (shuffle_) {
      std::shuffle(order_.begin(), order_.end(), rng_);
    }
    for (const std::size_t k : order) modules_[k]->evaluate();
    for (Module* m : modules_) m->commit();
    ++cycle_;
  }

  /// Accounts `cycles` clocks that a module computed in one burst outside
  /// step() (SystolicArray::stream): the cycle counter moves exactly as
  /// that many step() calls would have moved it.
  void advance(std::uint64_t cycles) noexcept { cycle_ += cycles; }

  /// Steps until `done()` returns true or `max_cycles` elapse.
  /// Returns true iff `done()` fired. @throws std::invalid_argument on a
  /// null predicate.
  bool run_until(const std::function<bool()>& done, std::uint64_t max_cycles) {
    if (!done) throw std::invalid_argument("Simulator::run_until: null predicate");
    for (std::uint64_t k = 0; k < max_cycles; ++k) {
      if (done()) return true;
      step();
    }
    return done();
  }

  /// Resets all modules and the cycle counter.
  void reset() {
    for (Module* m : modules_) m->reset();
    cycle_ = 0;
  }

  /// Cycles since construction/reset.
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }

 private:
  const std::vector<std::size_t>& order_idx() {
    if (order_.size() != modules_.size()) {
      order_.resize(modules_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    }
    return order_;
  }

  bool shuffle_;
  std::mt19937_64 rng_;
  std::vector<Module*> modules_;
  std::vector<std::size_t> order_;
  std::uint64_t cycle_ = 0;
};

}  // namespace swr::hw
