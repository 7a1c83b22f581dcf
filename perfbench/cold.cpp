// cold_designs: the designer's one-shot cycle, in process and single
// threaded — what `systolize verify file.sa` then `systolize run file.sa`
// do: parse, compile, verify, execute with default options (no plan
// cache), and the differential check against the sequential baseline.
#include <set>
#include <stdexcept>

#include "analysis/verify.hpp"
#include "baseline/sequential.hpp"
#include "frontend/parser.hpp"
#include "reference.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Entry {
  std::string stem;  ///< file stem in designs/
  std::string nest;  ///< loop-nest name: picks sizes and the kernel
  const std::string* text = nullptr;
};

/// Small seeded sizes per formula, so one cycle stays in milliseconds.
Pair draw_sizes(Rng& rng, const Entry& e) {
  Pair p{e.stem, 1, 1};
  if (e.nest == "matmul" || e.nest == "banded_matmul" || e.nest == "closure") {
    p.n = rng.range(2, 4);
  } else if (e.nest == "fir_bank") {
    p.n = rng.range(2, 4);
    p.m = rng.range(1, 2);
  } else if (e.nest == "convolution") {
    p.n = rng.range(3, 8);
    p.m = rng.range(1, 3);
  } else {
    p.n = rng.range(3, 8);
  }
  return p;
}

constexpr int kSetupReps = 401;
constexpr std::size_t kReplayPairs = 48;
constexpr double kHardLimitS = 100;

}  // namespace

Outcome run_cold_designs(const RunOptions& opt) {
  Outcome out;

  // Set-up: load the design texts and parse each once to find its loop
  // nest, which picks its sizes and reference kernel (repeated; the median
  // is reported).
  std::vector<double> setups;
  std::map<std::string, std::string> sa;
  std::vector<Entry> mix;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    sa = load_gallery(opt.designs_dir);
    mix.clear();
    for (const auto& [stem, text] : sa) {
      mix.push_back({stem, systolize::frontend::parse_design(text).nest.name(), &text});
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  for (const Entry& e : mix) {
    if (!has_reference(e.nest)) {
      throw std::runtime_error(e.stem + ".sa: no reference kernel for '" + e.nest + "'");
    }
  }

  Tracer tr(opt.trace);
  Rng rng(opt.seed);
  std::vector<Sample> lat = reserved<Sample>();
  std::vector<Pair> pairs;  // distinct, in order of first use
  std::set<Pair> seen;

  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t hard = start + static_cast<std::int64_t>(kHardLimitS * 1e9);
  bool stop = false;
  while (!stop) {
    // One round: every design once, in a seeded order.
    for (std::size_t i = mix.size(); i > 1; --i) {
      std::swap(mix[i - 1], mix[static_cast<std::size_t>(rng.range(0, static_cast<Int>(i) - 1))]);
    }
    for (const Entry& e : mix) {
      const std::int64_t now = now_ns();
      if ((now >= deadline && lat.size() >= kMinSamples) || now >= hard ||
          lat.size() == kSampleCapacity) {
        stop = true;
        break;
      }
      const Pair p = draw_sizes(rng, e);
      const std::uint64_t input_seed = rng.next();
      if (seen.insert(p).second) pairs.push_back(p);
      ++out.attempted;
      tr.set_op(out.attempted);

      systolize::IndexedStore inputs, store;
      systolize::RunMetrics metrics;
      bool ran = false;
      const std::int64_t t0 = now_ns();
      try {
        Tracer::Span root(tr, "cold.op");
        systolize::Design d = [&] {
          Tracer::Span s(tr, "frontend.parse_design");
          return systolize::frontend::parse_design(*e.text);
        }();
        const auto prog = [&] {
          Tracer::Span s(tr, "scheme.compile");
          return systolize::compile(d.nest, d.spec);
        }();
        const systolize::Env sizes = sizes_for(d.nest, p.n, p.m);
        {
          Tracer::Span s(tr, "analysis.verify_design");
          if (systolize::verify_design(prog, d.nest, sizes).errors() != 0) {
            throw std::runtime_error("verify_design reports errors");
          }
        }
        inputs = seeded_inputs(d.nest, sizes, input_seed);
        store = inputs;
        systolize::IndexedStore expected = inputs;
        {
          Tracer::Span s(tr, "runtime.execute");
          metrics = systolize::execute(prog, d.nest, sizes, store);
        }
        {
          Tracer::Span s(tr, "baseline.run_sequential");
          systolize::run_sequential(d.nest, sizes, expected);
        }
        for (const auto& s : d.nest.streams()) {
          if (store.elements(s.name()) != expected.elements(s.name())) {
            out.wrong(e.stem + ": differs from the sequential baseline in " +
                      s.name());
          }
        }
        ran = true;
      } catch (const std::exception& ex) {
        ++out.failed;
        if (out.problems.size() < 8) {
          out.problems.push_back("failed " + e.stem + ": " + ex.what());
        }
      }
      const std::int64_t t1 = now_ns();
      lat.push_back({static_cast<float>(static_cast<double>(t1 - t0) / 1e6), 1});
      if (!ran) continue;

      // Outside the timed cycle: the benchmark's own checks.
      const Int closed = closed_form_statements(e.nest, p.n, p.m);
      if (metrics.statements != closed) {
        out.wrong(e.stem + ": statements " + std::to_string(metrics.statements) +
                  ", closed form " + std::to_string(closed));
      }
      const std::string bad = check_against_reference(e.nest, inputs, store, p.n, p.m);
      if (!bad.empty()) out.wrong(bad);
    }
  }
  tr.set_op(0);

  if (!opt.trace) {
    out.add("setup_s", median(setups), "s", setups.size());
    add_loop_metrics(out, lat);
    out.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    return out;
  }

  // Traced run: the same cycle above ran under spans; now replay its
  // pairs through every layer. No service layer runs on this workload.
  pairs.resize(std::min(pairs.size(), kReplayPairs));
  replay_layers(tr, sa, pairs, out);
  add_layer_metrics(out, {&tr}, "{}", "{}", {}, traced_ops_per_s(lat));
  write_spans(opt.scratch + "/spans-cold_designs-" + std::to_string(opt.seed) + ".csv",
              {&tr});
  return out;
}

}  // namespace perfbench
