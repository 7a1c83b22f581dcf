// The benchmark's own notion of a correct answer: seeded inputs, plain-loop
// reference kernels for every design formula in the mix (guards included),
// and closed-form iteration counts of each loop nest.
#pragma once

#include <cstdint>
#include <string>

#include "designs/catalog.hpp"
#include "runtime/host.hpp"

namespace perfbench {

using systolize::Env;
using systolize::Int;
using systolize::IndexedStore;
using systolize::LoopNest;

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  Int range(Int lo, Int hi);

 private:
  std::uint64_t state_;
};

/// Problem sizes of `nest`: size symbol "m" takes m, every other takes n
/// (the service protocol's rule, so in-process and daemon runs agree).
[[nodiscard]] Env sizes_for(const LoopNest& nest, Int n, Int m);

/// Every Read stream filled with values in [-9, 9] drawn from `seed`,
/// every Update stream zero over its domain.
[[nodiscard]] IndexedStore seeded_inputs(const LoopNest& nest,
                                         const Env& sizes,
                                         std::uint64_t seed);

/// True when `nest_name` is a formula the benchmark has a kernel for.
[[nodiscard]] bool has_reference(const std::string& nest_name);

/// Loop-nest iteration count from the nest's closed form; every iteration
/// executes the basic statement once (a false guard still counts).
[[nodiscard]] Int closed_form_statements(const std::string& nest_name, Int n,
                                         Int m);

/// Compare every element of the Update stream in `result` with the
/// reference kernel applied to `inputs`. Returns "" when all agree, else
/// the first disagreement.
[[nodiscard]] std::string check_against_reference(
    const std::string& nest_name, const IndexedStore& inputs,
    const IndexedStore& result, Int n, Int m);

}  // namespace perfbench
