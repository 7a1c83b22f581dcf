// Plan-layout suite. expand_template() is the one plan builder, and its
// output is pinned by golden fingerprints (plan_fingerprints.txt, next to
// this file) for every gallery design — the 11 catalog designs plus the
// guarded banded_matmul.sa and masked_polyprod.sa — at six sizes and four
// shapes. A fingerprint is a 64-bit FNV-1a hash of a canonical dump of
// every plan field that execution, diagnostics or fault replay can
// observe: spawn order, channel order, element slices, names, graph and
// counts. The recorded lines come from the former single-stage symbolic
// builder, so a match means the template path still lays every network
// out exactly as that builder did. A deliberate layout change fails here
// and prints the new lines; replacing the recorded ones makes the change
// a reviewed edit of the data file. Also pins that interpreter and VM runs
// on an expanded plan match the sequential ground truth, and that the
// static verifier gate accepts plans served through the template path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "baseline/sequential.hpp"
#include "designs/catalog.hpp"
#include "frontend/parser.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/plan_template.hpp"
#include "scheme/compiler.hpp"

#ifndef SYSTOLIZE_DESIGN_DIR
#define SYSTOLIZE_DESIGN_DIR "designs"
#endif
#ifndef SYSTOLIZE_PLAN_FINGERPRINTS
#define SYSTOLIZE_PLAN_FINGERPRINTS "plan_fingerprints.txt"
#endif

namespace systolize {
namespace {

const std::string kCatalog[] = {"polyprod1",   "polyprod2", "polyprod3",
                                "matmul1",     "matmul2",   "matmul3",
                                "matmul4",     "convolution",
                                "correlation", "fir_bank",  "closure"};
/// Gallery designs that exist only as .sa files (guarded bodies).
const std::string kGalleryFiles[] = {"banded_matmul", "masked_polyprod"};
const Int kSizes[] = {2, 3, 4, 5, 7, 9};

Design gallery_design(const std::string& name) {
  const std::vector<std::string> names = catalog_names();
  if (std::find(names.begin(), names.end(), name) != names.end()) {
    return design_by_name(name);
  }
  std::ifstream in(std::string(SYSTOLIZE_DESIGN_DIR) + "/" + name + ".sa");
  std::ostringstream buf;
  buf << in.rdbuf();
  return frontend::parse_design(buf.str());
}

Env sizes_for(const Design& design, Int n) {
  Env env{{"n", Rational(n)}};
  for (const Symbol& s : design.nest.sizes()) {
    // Secondary sizes ("m") get a derived extent, as in bench_util.
    if (!env.contains(s.name())) {
      env[s.name()] = Rational(std::max<Int>(1, n / 2));
    }
  }
  return env;
}

IndexedStore seeded(const Design& design, const Env& sizes) {
  return make_initial_store(
      design.nest, sizes, [](const std::string& var, const IntVec& p) {
        Value h = 1099511628211LL * (var.empty() ? 7 : var[0]);
        for (std::size_t i = 0; i < p.dim(); ++i) h = h * 31 + p[i];
        return h % 17 - 8;
      });
}

/// Canonical text of every observable plan field, one record a line.
std::string plan_dump(const NetworkPlan& p) {
  std::ostringstream os;
  for (const std::string& s : p.streams) os << "stream " << s << '\n';
  for (const auto& c : p.channels) {
    os << "chan " << c.name << ' ' << c.stream << ' ' << c.capacity << ' '
       << c.sender << ' ' << c.receiver << '\n';
  }
  for (const auto& q : p.procs) {
    os << "proc " << q.name << ' ' << static_cast<int>(q.kind) << ' '
       << q.clock << ' ' << q.stream << ' ' << q.chan_in << ' '
       << q.chan_out << ' ' << q.count << ' ' << q.elem_begin << ' '
       << q.elem_end << ' ' << q.role_begin << ' ' << q.role_end << ' '
       << q.first_x.to_string() << ' ' << q.coords.to_string() << '\n';
  }
  for (const auto& r : p.roles) {
    os << "role " << r.stream << ' ' << r.stationary << ' ' << r.soak << ' '
       << r.drain << ' ' << r.chan_in << ' ' << r.chan_out << '\n';
  }
  for (const IntVec& e : p.elems) os << "elem " << e.to_string() << '\n';
  os << "increment " << p.increment.to_string() << '\n'
     << "counts " << p.clock_count << ' ' << p.comp_count << ' '
     << p.io_count << ' ' << p.buffer_count << ' ' << p.max_par_ops << ' '
     << p.total_par_bound << '\n';
  for (const auto& node : p.graph.nodes) {
    os << "node " << node.name << ' ' << static_cast<int>(node.kind) << '\n';
  }
  for (const auto& e : p.graph.edges) {
    os << "edge " << e.from << ' ' << e.to << ' ' << e.channel << ' '
       << e.stream << '\n';
  }
  return os.str();
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// "<design> <shape> n=<n>": the key of one data-file line.
std::string golden_key(const std::string& design, const std::string& shape,
                       Int n) {
  return design + " " + shape + " n=" + std::to_string(n);
}

std::string golden_line(const std::string& key, const NetworkPlan& plan) {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fnv1a64(plan_dump(plan))));
  return key + " procs=" + std::to_string(plan.procs.size()) +
         " channels=" + std::to_string(plan.channels.size()) +
         " elems=" + std::to_string(plan.elems.size()) + " fnv=" + hash;
}

/// The data file as key -> full line ('#' lines are comments).
const std::map<std::string, std::string>& recorded_fingerprints() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(SYSTOLIZE_PLAN_FINGERPRINTS);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t end = line.find(" procs=");
      out[line.substr(0, end)] = line;
    }
    return out;
  }();
  return lines;
}

/// Expand `name` under `shape` at every size in kSizes and compare each
/// plan's fingerprint with the recorded line.
void expect_recorded_layout(const std::string& name,
                            const std::string& shape_name,
                            const PlanShape& shape) {
  Design design = gallery_design(name);
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tmpl = compile_template(prog, design.nest, shape);
  for (Int n : kSizes) {
    auto plan = expand_template(*tmpl, sizes_for(design, n));
    const std::string key = golden_key(name, shape_name, n);
    const std::string line = golden_line(key, *plan);
    auto it = recorded_fingerprints().find(key);
    if (it == recorded_fingerprints().end()) {
      ADD_FAILURE() << "no recorded fingerprint for " << key
                    << "\n  new line: " << line;
    } else if (it->second != line) {
      ADD_FAILURE() << "plan layout changed for " << key
                    << "\n  recorded: " << it->second
                    << "\n  new line: " << line;
    }
  }
}

class CrossSizeDifferential : public ::testing::TestWithParam<std::string> {};

// One template, many sizes: every expansion reproduces the recorded
// layout of the symbolic builder at that size.
TEST_P(CrossSizeDifferential, ExpandMatchesBuildPlanAcrossSizes) {
  expect_recorded_layout(GetParam(), "default", PlanShape{});
}

// Non-default shapes flow through the template too: extra channel slack,
// merged internal buffers, and partition grids (shared clock ids).
TEST_P(CrossSizeDifferential, ExpandMatchesBuildPlanAcrossShapes) {
  expect_recorded_layout(GetParam(), "cap2", PlanShape{2, false, {}});
  expect_recorded_layout(GetParam(), "merged", PlanShape{0, true, {}});
  PlanShape partitioned;
  partitioned.partition_grid = IntVec(
      std::vector<Int>(gallery_design(GetParam()).nest.depth() - 1, 2));
  expect_recorded_layout(GetParam(), "grid2", partitioned);
}

// Executing an expanded plan (served via the cache's template path) must
// match the sequential ground truth on the interpreter and on the
// default engine under a watchdog alike.
TEST_P(CrossSizeDifferential, ExpandedPlanRunsMatchSequential) {
  Design design = gallery_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  for (Int n : {3, 5}) {
    Env sizes = sizes_for(design, n);
    IndexedStore expected = seeded(design, sizes);
    IndexedStore fast_store = expected;
    IndexedStore inst_store = expected;
    run_sequential(design.nest, sizes, expected);

    InstantiateOptions fast;
    fast.plan_cache = &cache;
    fast.backend = Backend::Interp;
    (void)execute(prog, design.nest, sizes, fast_store, fast);

    InstantiateOptions inst;
    inst.plan_cache = &cache;
    inst.watchdog.max_rounds = Int{1} << 40;  // never trips
    (void)execute(prog, design.nest, sizes, inst_store, inst);

    for (const Stream& s : design.nest.streams()) {
      EXPECT_EQ(fast_store.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " fast n=" << n << " stream " << s.name();
      EXPECT_EQ(inst_store.elements(s.name()), expected.elements(s.name()))
          << GetParam() << " instrumented n=" << n << " stream " << s.name();
    }
  }
  // One template per design/shape; each size expanded exactly once and
  // then shared by both engines.
  EXPECT_EQ(cache.template_compiles(), 1u) << GetParam();
  EXPECT_EQ(cache.misses(), 2u) << GetParam();
  EXPECT_EQ(cache.hits(), 2u) << GetParam();
}

// The static verification gate (InstantiateOptions::verify_plan) must
// accept every catalog design when the plan arrives via the template
// path — same proofs, zero scheduler rounds, no false findings.
TEST_P(CrossSizeDifferential, VerifyPlanGatePassesOnTemplatePath) {
  Design design = gallery_design(GetParam());
  CompiledProgram prog = compile(design.nest, design.spec);
  PlanCache cache;
  Env sizes = sizes_for(design, 4);
  IndexedStore store = seeded(design, sizes);
  InstantiateOptions opt;
  opt.plan_cache = &cache;
  opt.verify_plan = true;
  RunMetrics metrics = execute(prog, design.nest, sizes, store, opt);
  EXPECT_FALSE(metrics.plan_reused);
  EXPECT_GT(metrics.process_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, CrossSizeDifferential,
                         ::testing::ValuesIn(kCatalog),
                         [](const auto& info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(GalleryFiles, CrossSizeDifferential,
                         ::testing::ValuesIn(kGalleryFiles),
                         [](const auto& info) { return info.param; });

// The data file holds one line per gallery design, shape (default, cap2,
// merged, grid2) and size, and nothing stale besides (each line's
// presence is checked above).
TEST(PlanFingerprints, OneLinePerGalleryDesignShapeAndSize) {
  EXPECT_EQ(recorded_fingerprints().size(),
            (std::size(kCatalog) + std::size(kGalleryFiles)) * 4 *
                std::size(kSizes))
      << "missing or extra lines in " << SYSTOLIZE_PLAN_FINGERPRINTS;
}

// Template expansion reports unbound sizes the way the symbolic
// evaluator does — by naming the missing symbol.
TEST(PlanTemplate, UnboundSizeSymbolRaisesValidation) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tmpl = compile_template(prog, design.nest, PlanShape{});
  try {
    (void)expand_template(*tmpl, Env{});
    FAIL() << "expected Error(Validation)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
    EXPECT_NE(std::string(e.what()).find("unbound symbol"), std::string::npos)
        << e.what();
  }
}

TEST(PlanTemplate, NonIntegerSizeRaisesValidation) {
  Design design = design_by_name("polyprod1");
  CompiledProgram prog = compile(design.nest, design.spec);
  auto tmpl = compile_template(prog, design.nest, PlanShape{});
  Env sizes{{"n", Rational(7, 2)}};
  try {
    (void)expand_template(*tmpl, sizes);
    FAIL() << "expected Error(Validation)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Validation);
  }
}

// The template is self-contained: expansion works after the compiled
// program it was lowered from is gone.
TEST(PlanTemplate, TemplateOutlivesProgram) {
  Design design = design_by_name("matmul2");
  std::shared_ptr<const PlanTemplate> tmpl;
  std::unique_ptr<NetworkPlan> reference;
  Env sizes = sizes_for(design, 4);
  {
    CompiledProgram prog = compile(design.nest, design.spec);
    tmpl = compile_template(prog, design.nest, PlanShape{});
    reference = build_plan(prog, design.nest, sizes, PlanShape{});
  }
  auto expanded = expand_template(*tmpl, sizes);
  EXPECT_EQ(plan_dump(*expanded), plan_dump(*reference))
      << "matmul2 after program death";
}

}  // namespace
}  // namespace systolize
