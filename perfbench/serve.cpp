// serve_warm and serve_size_churn: one closed-loop caller of the service
// layer's request handler (service::Executor::handle, what every daemon
// worker runs), in process. The AF_UNIX socket in front of it is measured
// in the traced run, against a real `systolize serve` daemon.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "daemon.hpp"
#include "reference.hpp"
#include "service/executor.hpp"
#include "workloads.hpp"

namespace perfbench {

using systolize::service::Request;
using systolize::service::Response;

namespace {

constexpr int kSetupReps = 45;
constexpr double kHardLimitS = 100;
constexpr std::size_t kReplayPairs = 48;
constexpr std::size_t kReplayRequests = 256;
constexpr std::size_t kCheckThreads = 4;

struct Traffic {
  std::vector<Pair> pairs;           ///< what requests draw from
  std::vector<Schedule> expected;    ///< per pair (warm: known up front)
  std::vector<Request> priming;      ///< sent in set-up
  std::vector<Pair> fresh;           ///< churn: pairs held back for replay
  std::vector<Int> batch;            ///< churn: batch size per pair
};

/// A run's schedule facts folded into one nonzero number (FNV-1a), so the
/// loop keeps eight bytes per churn response for the check after it.
std::uint64_t digest(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) h = (h ^ ((v >> (8 * b)) & 0xFF)) * 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(s.statements));
  mix(static_cast<std::uint64_t>(s.makespan));
  for (const auto& [stream, count] : s.transfers) {
    for (const char c : stream) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(count));
  }
  return h == 0 ? 1 : h;
}

std::string nest_of(const std::string& design) {
  return systolize::design_by_name(design).nest.name();
}

/// Exactly one request in eight carries a batch of kBatch instances, at a
/// seeded phase, so every stretch of a sequence has the same batch share.
Int batch_for(std::size_t position, std::uint64_t phase) {
  return (position + phase) % 8 == 0 ? kBatch : 1;
}

/// serve_warm: every catalog design at three small fixed sizes; the seed
/// drives the request sequence (which pair next, which are batches), so
/// the mix costs the same from seed to seed.
Traffic warm_traffic() {
  Traffic t;
  for (const std::string& name : systolize::catalog_names()) {
    const std::string nest = nest_of(name);
    if (nest == "matmul" || nest == "closure") {
      for (Int n : {3, 4, 5}) t.pairs.push_back({name, n, 1});
    } else if (nest == "fir_bank") {
      t.pairs.insert(t.pairs.end(), {{name, 2, 1}, {name, 3, 2}, {name, 4, 2}});
    } else if (nest == "convolution") {
      t.pairs.insert(t.pairs.end(), {{name, 6, 2}, {name, 8, 2}, {name, 8, 3}});
    } else {
      for (Int n : {5, 6, 8}) t.pairs.push_back({name, n, 1});
    }
  }
  ScheduleOracle oracle;
  for (const Pair& p : t.pairs) {
    t.expected.push_back(oracle.schedule(p));
    t.priming.push_back(run_request(p, 1, 0));
    t.priming.push_back(run_request(p, kBatch, 0));
  }
  return t;
}

/// serve_size_churn: a seeded, design-stratified permutation of a size
/// grid, every pair used at most once per run.
Traffic churn_traffic(std::uint64_t seed) {
  Traffic t;
  Rng rng(seed);
  // Each design's pairs in seeded order, placed at evenly spread keys
  // (i + u) / count, so every stretch of the request sequence carries the
  // same mix of designs and only sizes vary from seed to seed.
  struct Keyed {
    double key;
    Pair pair;
    Int batch;
  };
  std::vector<Keyed> keyed;
  for (const std::string& name : systolize::catalog_names()) {
    const std::string nest = nest_of(name);
    std::vector<Pair> grid;
    if (nest == "matmul" || nest == "closure") {
      for (Int n = 2; n <= 12; ++n) grid.push_back({name, n, 1});
    } else if (nest == "fir_bank") {
      for (Int n = 2; n <= 32; ++n) {
        for (Int m = 1; m <= 8; ++m) grid.push_back({name, n, m});
      }
    } else if (nest == "convolution") {
      for (Int n = 2; n <= 128; ++n) {
        for (Int m = 1; m <= 64; ++m) grid.push_back({name, n, m});
      }
    } else {
      for (Int n = 2; n <= 128; ++n) grid.push_back({name, n, 1});
    }
    // Cost-stratified seeded order: rank the pairs by iteration count, then
    // let step t take the rank of frac(u + t * golden ratio) among all
    // steps, so every prefix of the order spans the cost range evenly.
    std::stable_sort(grid.begin(), grid.end(), [&](const Pair& a, const Pair& b) {
      return closed_form_statements(nest, a.n, a.m) <
             closed_form_statements(nest, b.n, b.m);
    });
    const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
    std::vector<std::pair<double, std::size_t>> step(grid.size());
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const double x = u + static_cast<double>(k) * 0.6180339887498949;
      step[k] = {x - std::floor(x), k};
    }
    std::sort(step.begin(), step.end());
    std::vector<Pair> ordered(grid.size());
    for (std::size_t rank = 0; rank < step.size(); ++rank) {
      ordered[step[rank].second] = grid[rank];
    }
    grid = std::move(ordered);
    // Every eighth step of that order is a batch request, so a design's
    // batch requests span its cost range as evenly as its solo ones, and
    // the slowest requests (large batches) do not depend on the seed's luck.
    const std::uint64_t phase = rng.next();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
      keyed.push_back({(static_cast<double>(i) + u) / static_cast<double>(grid.size()),
                       grid[i], batch_for(i, phase)});
    }
    // Programs are compiled, and their templates built (at a size outside
    // the grid), in set-up.
    Request compile;
    compile.op = "compile";
    compile.design = name;
    t.priming.push_back(compile);
    Request expand = run_request({name, 1, 1}, 1, 0);
    expand.op = "expand";
    t.priming.push_back(expand);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  for (const Keyed& k : keyed) {
    t.pairs.push_back(k.pair);
    t.batch.push_back(k.batch);
  }
  // The tail of the sequence is held back for the traced layer replay, so
  // the replayed pairs are new to it as the timed ones were to the handler.
  const std::size_t keep = t.pairs.size() - kReplayPairs;
  t.fresh.assign(t.pairs.begin() + static_cast<std::ptrdiff_t>(keep), t.pairs.end());
  t.pairs.resize(keep);
  t.batch.resize(keep);
  return t;
}

Outcome run_serve(const RunOptions& opt, bool churn) {
  using systolize::service::Executor;
  Outcome out;
  const Traffic traffic = churn ? churn_traffic(opt.seed) : warm_traffic();

  // Set-up: build an executor with the daemon's default configuration and
  // prime it, kSetupReps times; the last one serves.
  std::vector<double> setups;
  std::unique_ptr<Executor> exec;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    exec.reset();
    const std::int64_t t0 = now_ns();
    exec = std::make_unique<Executor>();
    for (const Request& req : traffic.priming) {
      const Response r = exec->handle(req);
      if (r.status != "ok") {
        throw std::runtime_error("priming " + req.op + " " + req.design +
                                 " failed: " + r.message);
      }
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::string stats_before = exec->stats_json();

  // Timed loop: one closed-loop caller of the daemon's request handler.
  Tracer tr(opt.trace);
  Rng rng(opt.seed);
  const std::uint64_t phase = rng.next();
  std::vector<Sample> lat = reserved<Sample>();
  std::vector<std::uint64_t> got;  // churn: schedule digests, checked later
  if (churn) got = reserved<std::uint64_t>();
  std::set<std::pair<std::size_t, Int>> distinct;  // serve_warm's requests
  std::vector<Request> replay;  // serve_warm: the first solo requests
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t hard = start + static_cast<std::int64_t>(kHardLimitS * 1e9);
  for (std::size_t k = 0; lat.size() < kSampleCapacity; ++k) {
    const std::int64_t now = now_ns();
    if ((now >= deadline && lat.size() >= kMinSamples) || now >= hard) break;
    std::size_t pi = k;
    Int batch = 0;
    if (churn) {
      if (k >= traffic.pairs.size()) break;  // grid used up
      batch = traffic.batch[k];
    } else {
      pi = static_cast<std::size_t>(
          rng.range(0, static_cast<Int>(traffic.pairs.size()) - 1));
      batch = batch_for(k, phase);
      distinct.insert({pi, batch});
    }
    const Pair& pair = traffic.pairs[pi];
    const Request req = run_request(pair, batch, static_cast<Int>(k) + 1);
    if (!churn && batch == 1 && replay.size() < kReplayRequests) replay.push_back(req);
    tr.set_op(k + 1);
    Response r;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Span span(tr, "loop.handle");
      r = exec->handle(req);
    }
    const std::int64_t t1 = now_ns();
    lat.push_back({static_cast<float>(static_cast<double>(t1 - t0) / 1e6),
                   static_cast<std::uint32_t>(batch)});
    ++out.attempted;
    if (r.status != "ok" || r.verdict != "success") {
      ++out.failed;
      if (out.problems.size() < 8) {
        out.problems.push_back("failed " + check_response(r, pair, {}));
      }
      if (churn) got.push_back(0);
      continue;
    }
    if (churn) {
      got.push_back(digest(schedule_of_json(r.metrics_json)));
    } else {
      const std::string bad = check_response(r, pair, traffic.expected[pi]);
      if (!bad.empty()) out.wrong(bad);
    }
  }
  tr.set_op(0);
  const std::string stats_after = exec->stats_json();
  const double rss = peak_rss_mib();

  // After the loop, on kCheckThreads threads (the handler is shared by the
  // daemon's workers, so it is safe to call concurrently): every distinct
  // request once more with the differential check against the sequential
  // source program, and on serve_size_churn each response's schedule
  // against in-process execute on the VM.
  if (churn) {
    for (std::size_t k = 0; k < out.attempted; ++k) distinct.insert({k, traffic.batch[k]});
  }
  const std::vector<std::pair<std::size_t, Int>> to_check(distinct.begin(),
                                                          distinct.end());
  std::vector<std::string> wrong[kCheckThreads];
  auto check = [&](std::size_t part) {
    ScheduleOracle oracle;
    for (std::size_t i = part; i < to_check.size(); i += kCheckThreads) {
      const auto [pi, batch] = to_check[i];
      const Pair& p = traffic.pairs[pi];
      const std::string what = p.design + " n=" + std::to_string(p.n) +
                               " m=" + std::to_string(p.m) + ": ";
      if (churn && got[pi] != 0 && got[pi] != digest(oracle.schedule(p))) {
        wrong[part].push_back(what + "statements, makespan or transfers differ "
                                     "from in-process execute");
      }
      Request req = run_request(p, batch, 0);
      req.verify = true;
      const Response r = exec->handle(req);
      if (r.status != "ok" || r.verdict != "success") {
        wrong[part].push_back(what + "verify: " + r.status + " " + r.verdict +
                              " " + r.message.substr(0, 200));
      }
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined at the end of this scope
    for (std::size_t part = 1; part < kCheckThreads; ++part) {
      helpers.emplace_back(check, part);
    }
    check(0);
  }
  for (const auto& part : wrong) {
    for (const std::string& w : part) out.wrong(w);
  }

  if (!opt.trace) {
    out.add("setup_s", median(setups), "s", setups.size());
    add_loop_metrics(out, lat);
    out.add("peak_rss_mib", rss, "MiB", 1);
    return out;
  }

  // Traced run: layer replay of the workload's pairs (the held-back ones
  // on serve_size_churn, new to the replay as the timed ones were to the
  // handler); on serve_warm also the service split: the first solo
  // requests of the loop, over a primed daemon's socket against a primed
  // in-process handler.
  replay_layers(tr, load_gallery(opt.designs_dir),
                churn ? traffic.fresh : traffic.pairs, out);
  ServiceSplit split;
  if (!churn) {
    Daemon daemon({opt.cli, opt.scratch});
    split = replay_service(tr, daemon, traffic.priming, replay, out);
    daemon.shutdown();
  }
  add_layer_metrics(out, {&tr}, stats_before, stats_after, split,
                    traced_ops_per_s(lat));
  write_spans(opt.scratch + "/spans-" + opt.workload + "-" +
                  std::to_string(opt.seed) + ".csv",
              {&tr});
  return out;
}

}  // namespace

Outcome run_serve_warm(const RunOptions& opt) { return run_serve(opt, false); }
Outcome run_serve_size_churn(const RunOptions& opt) { return run_serve(opt, true); }

}  // namespace perfbench
