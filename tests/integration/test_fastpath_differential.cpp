// Differential suite for watchdog-attached runs: a run with a
// never-tripping watchdog on the default engine (the VM for clean runs,
// the interpreter for buffered or merged variants) must be bit-identical
// to the plain coroutine interpreter — results, makespans, transfer
// counts and scheduler rounds (same batch boundaries). A solo run asking
// for threads stays on the calling thread and matches a run without.
#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"

namespace systolize {
namespace {

Value pseudo_random(const std::string& var, const IntVec& p) {
  Value h = 1469598103934665603LL;
  for (char c : var) h = (h ^ c) * 1099511628211LL;
  for (std::size_t i = 0; i < p.dim(); ++i) {
    h = (h ^ static_cast<Value>(p[i] + 1315423911LL)) * 1099511628211LL;
  }
  return (h % 19) - 9;
}

Env sizes_for(const Design& design, Int n, Int m) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    if (!env.contains(s.name())) env[s.name()] = Rational(m);
  }
  return env;
}

IndexedStore seeded(const Design& design, const Env& sizes) {
  return make_initial_store(design.nest, sizes,
                            [](const auto& v, const auto& p) {
                              return pseudo_random(v, p);
                            });
}

/// An attached (but never-firing) watchdog: a round budget and a
/// wall-clock deadline, as the serve daemon runs every request.
InstantiateOptions instrumented(InstantiateOptions opt = {}) {
  opt.watchdog.max_rounds = Int{1} << 40;
  opt.watchdog.set_deadline(Int{1} << 30);
  return opt;
}

/// The reference: the plain coroutine interpreter.
InstantiateOptions interp(InstantiateOptions opt = {}) {
  opt.backend = Backend::Interp;
  return opt;
}

void expect_same_stores(const Design& design, const IndexedStore& a,
                        const IndexedStore& b, const std::string& what) {
  for (const Stream& s : design.nest.streams()) {
    EXPECT_EQ(a.elements(s.name()), b.elements(s.name()))
        << what << " stream " << s.name();
  }
}

class FastPathDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(FastPathDifferential, FastAndInstrumentedAgreeExactly) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  for (Int n : {2, 4}) {
    Env sizes = sizes_for(design, n, std::max<Int>(1, n - 1));
    IndexedStore fast_store = seeded(design, sizes);
    IndexedStore inst_store = fast_store;
    RunMetrics fast = execute(prog, design.nest, sizes, fast_store, interp());
    RunMetrics inst =
        execute(prog, design.nest, sizes, inst_store, instrumented());
    expect_same_stores(design, fast_store, inst_store, GetParam());
    EXPECT_EQ(fast.makespan, inst.makespan) << GetParam();
    EXPECT_EQ(fast.total_transfers, inst.total_transfers) << GetParam();
    EXPECT_EQ(fast.statements, inst.statements) << GetParam();
    EXPECT_EQ(fast.transfers_per_stream, inst.transfers_per_stream)
        << GetParam();
    // Clean runs must report the same number of cooperative rounds on
    // either engine — both share batch boundaries by construction.
    EXPECT_EQ(fast.scheduler_rounds, inst.scheduler_rounds) << GetParam();
  }
}

TEST_P(FastPathDifferential, FastAndInstrumentedAgreeOnVariants) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 3, 2);
  for (int variant = 0; variant < 2; ++variant) {
    InstantiateOptions opt;
    if (variant == 0) {
      opt.channel_capacity = 2;
    } else {
      opt.merge_internal_buffers = true;
    }
    IndexedStore fast_store = seeded(design, sizes);
    IndexedStore inst_store = fast_store;
    RunMetrics fast =
        execute(prog, design.nest, sizes, fast_store, interp(opt));
    RunMetrics inst =
        execute(prog, design.nest, sizes, inst_store, instrumented(opt));
    expect_same_stores(design, fast_store, inst_store, GetParam());
    EXPECT_EQ(fast.makespan, inst.makespan) << GetParam() << " v" << variant;
    EXPECT_EQ(fast.total_transfers, inst.total_transfers)
        << GetParam() << " v" << variant;
    EXPECT_EQ(fast.scheduler_rounds, inst.scheduler_rounds)
        << GetParam() << " v" << variant;
  }
}

TEST_P(FastPathDifferential, CachedPlanReproducesFreshPlanExactly) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4, 2);
  PlanCache cache;
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  IndexedStore first_store = seeded(design, sizes);
  IndexedStore second_store = first_store;
  IndexedStore fresh_store = first_store;
  RunMetrics first = execute(prog, design.nest, sizes, first_store, opt);
  RunMetrics second = execute(prog, design.nest, sizes, second_store, opt);
  RunMetrics fresh = execute(prog, design.nest, sizes, fresh_store, {});
  EXPECT_FALSE(first.plan_reused);
  EXPECT_TRUE(second.plan_reused);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  expect_same_stores(design, first_store, second_store, "cached-repeat");
  expect_same_stores(design, first_store, fresh_store, "cached-vs-fresh");
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.makespan, fresh.makespan);
  EXPECT_EQ(first.total_transfers, second.total_transfers);
  EXPECT_EQ(first.transfers_per_stream, fresh.transfers_per_stream);
}

TEST_P(FastPathDifferential, AllPathsMatchSequentialGroundTruth) {
  Design design = design_by_name(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes = sizes_for(design, 4, 3);
  IndexedStore expected = seeded(design, sizes);
  IndexedStore fast_store = expected;
  IndexedStore inst_store = expected;
  run_sequential(design.nest, sizes, expected);
  (void)execute(prog, design.nest, sizes, fast_store, interp());
  (void)execute(prog, design.nest, sizes, inst_store, instrumented());
  expect_same_stores(design, fast_store, expected, "fast-vs-seq");
  expect_same_stores(design, inst_store, expected, "inst-vs-seq");
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, FastPathDifferential,
                         ::testing::Values("polyprod1", "polyprod2",
                                           "polyprod3", "matmul1", "matmul2",
                                           "matmul3", "matmul4",
                                           "convolution", "correlation",
                                           "fir_bank", "closure"));

// `threads` bounds batch-lane workers only: a solo run is one VM run on
// the calling thread, metrics and all, whatever it asks for.
TEST(SoloRun, ThreadsMatchSequentialStoreAndMetrics) {
  Design design = design_by_name("matmul1");
  CompiledProgram prog = compile(design.nest, design.spec);
  Env sizes{{"n", Rational(3)}};
  IndexedStore seq_store = seeded(design, sizes);
  IndexedStore solo_store = seq_store;
  RunMetrics seq = execute(prog, design.nest, sizes, seq_store, {});
  InstantiateOptions opt;
  opt.threads = 4;
  RunMetrics solo = execute(prog, design.nest, sizes, solo_store, opt);
  expect_same_stores(design, seq_store, solo_store, "threads=4");
  // Lowering time is a wall-clock timing; every other field must match.
  seq.bytecode_lower_ns = 0;
  solo.bytecode_lower_ns = 0;
  EXPECT_EQ(seq.to_json(), solo.to_json());
  EXPECT_EQ(solo.backend, "bytecode");
}

}  // namespace
}  // namespace systolize
