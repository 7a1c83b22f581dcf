#include "selftest.hpp"

#include <cmath>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "baseline/sequential.hpp"
#include "frontend/parser.hpp"
#include "reference.hpp"
#include "runtime/instantiate.hpp"
#include "scheme/compiler.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

void percentile_rule() {
  expect(samples_beyond(1000, 99) == 10, "1000 samples: ten beyond p99");
  expect(tail_percentile(1000) == 99.0, "1000 samples: tail percentile is p99");
  expect(tail_percentile(999) == 95.0, "999 samples: p99 has nine beyond, so p95");
  expect(tail_percentile(10000) == 99.9, "10000 samples: tail percentile is p99.9");
  expect(tail_percentile(100) == 90.0, "100 samples: tail percentile is p90");
  expect(tail_percentile(39) == 0.0, "39 samples: median alone");
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  expect(percentile(v, 50) == 50.0 && percentile(v, 99) == 99.0,
         "nearest rank over 1..100");

  // 1000 operations of 1..1000 ms solving two instances each: rates over
  // the summed latency (500.5 s).
  std::vector<Sample> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back({float(i), 2});
  Outcome out;
  add_loop_metrics(out, samples);
  bool counted = out.metrics.size() == 4;
  for (const Metric& m : out.metrics) counted = counted && m.samples == 1000;
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-6 * b; };
  expect(counted && out.metrics[0].value == 500.0 && out.metrics[1].value == 990.0 &&
             near(out.metrics[2].value, 1000 / 500.5) &&
             near(out.metrics[3].value, 2000 / 500.5),
         "loop metrics: p50 500, p99 990, rates over summed latency, n=1000");
  bool refused = false;
  try {
    Outcome short_run;
    add_loop_metrics(short_run, std::vector<Sample>(999));
  } catch (const std::runtime_error&) {
    refused = true;
  }
  expect(refused, "999 samples cannot report a p99");
}

void kernels_agree_with_baseline(const std::string& designs_dir) {
  std::vector<systolize::Design> designs;
  for (const auto& [stem, text] : load_gallery(designs_dir)) {
    designs.push_back(systolize::frontend::parse_design(text));
  }
  for (const std::string& name : systolize::catalog_names()) {
    designs.push_back(systolize::design_by_name(name));
  }
  int checked = 0;
  const int failures_before = failures;
  for (const systolize::Design& d : designs) {
    for (Int n : {1, 2, 3}) {
      for (Int m : {1, 2}) {
        const auto sizes = sizes_for(d.nest, n, m);
        const auto inputs = seeded_inputs(d.nest, sizes, 99);
        auto result = inputs;
        systolize::run_sequential(d.nest, sizes, result);
        const std::string bad =
            check_against_reference(d.nest.name(), inputs, result, n, m);
        if (!bad.empty()) expect(false, "baseline vs kernel: " + bad);
        ++checked;
      }
    }
  }
  expect(failures == failures_before, "reference kernels agree with src/baseline on " +
                            std::to_string(checked) + " tiny instances of " +
                            std::to_string(designs.size()) + " designs");
}

void corruption_is_caught() {
  const auto d = systolize::design_by_name("matmul2");
  const auto prog = systolize::compile(d.nest, d.spec);
  const auto sizes = sizes_for(d.nest, 2, 1);
  const auto inputs = seeded_inputs(d.nest, sizes, 5);
  auto store = inputs;
  const auto m = systolize::execute(prog, d.nest, sizes, store);
  expect(check_against_reference("matmul", inputs, store, 2, 1).empty(),
         "matmul2 n=2 output matches its kernel");
  const systolize::IntVec at{1, 2};
  store.set("c", at, store.get("c", at) + 1);
  expect(!check_against_reference("matmul", inputs, store, 2, 1).empty(),
         "one corrupted element of c is caught");

  Schedule expected{m.statements, m.makespan, m.transfers_per_stream};
  systolize::service::Response r;
  r.status = "ok";
  r.verdict = "success";
  r.metrics_json = m.to_json();
  const Pair p{"matmul2", 2, 1};
  expect(check_response(r, p, expected).empty(), "a faithful response passes");
  systolize::RunMetrics bad = m;
  bad.transfers_per_stream.begin()->second += 1;
  r.metrics_json = bad.to_json();
  expect(!check_response(r, p, expected).empty(),
         "one corrupted transfer count is caught");
}

}  // namespace

int run_self_test(const std::string& designs_dir) {
  std::cout << "perfbench self-test\n";
  percentile_rule();
  kernels_agree_with_baseline(designs_dir);
  corruption_is_caught();
  std::cout << (failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
