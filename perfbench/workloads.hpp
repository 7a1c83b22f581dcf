// The three workloads of the benchmark and the pieces they share.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "measure.hpp"
#include "designs/catalog.hpp"
#include "numeric/checked.hpp"
#include "scheme/types.hpp"
#include "service/protocol.hpp"

namespace perfbench {

using systolize::Int;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;          ///< the systolize binary (traced runs)
  std::string scratch;      ///< private directory for sockets and spans
  std::string designs_dir;  ///< the repository's designs/ directory
};

[[nodiscard]] Outcome run_cold_designs(const RunOptions& opt);
[[nodiscard]] Outcome run_serve_warm(const RunOptions& opt);
[[nodiscard]] Outcome run_serve_size_churn(const RunOptions& opt);

// ---- shared by the workloads (common.cpp) ----

/// One (design, sizes) pair; `design` is a catalog name, which is also the
/// stem of its .sa file in designs/.
struct Pair {
  std::string design;
  Int n = 1;
  Int m = 1;
  friend bool operator<(const Pair& a, const Pair& b) {
    return std::tie(a.design, a.n, a.m) < std::tie(b.design, b.n, b.m);
  }
  friend bool operator==(const Pair&, const Pair&) = default;
};

/// The .sa text of every design in designs/ (not its subdirectories),
/// keyed by file stem.
[[nodiscard]] std::map<std::string, std::string> load_gallery(
    const std::string& designs_dir);

/// A run request for `pair` with `batch` instances.
[[nodiscard]] systolize::service::Request run_request(const Pair& pair,
                                                      Int batch, Int id);

/// The schedule facts a run must reproduce whatever the engine.
struct Schedule {
  Int statements = 0;
  Int makespan = 0;
  std::map<std::string, Int> transfers;
  friend bool operator==(const Schedule&, const Schedule&) = default;
};

/// Schedule facts of a run response's metrics JSON.
[[nodiscard]] Schedule schedule_of_json(const std::string& metrics_json);

/// In-process execute() of pairs on the bytecode VM without a plan cache,
/// so the handler's runs (template-expanded plans, the interpreter for solo
/// requests) are checked against another plan builder and another engine.
/// Compiles each design once. Throws when a statement count differs from
/// the nest's closed form.
class ScheduleOracle {
 public:
  [[nodiscard]] Schedule schedule(const Pair& pair);

 private:
  struct Compiled {
    systolize::Design design;
    systolize::CompiledProgram prog;
  };
  std::map<std::string, std::unique_ptr<Compiled>> programs_;
};

/// A run response must be ok/success and reproduce `expected` (statement
/// count, makespan, per-stream transfers); "" when it does.
[[nodiscard]] std::string check_response(
    const systolize::service::Response& r, const Pair& pair,
    const Schedule& expected);

/// One completed operation of a timed loop, in completion order.
struct Sample {
  float ms = 0;                 ///< latency
  std::uint32_t instances = 1;  ///< problem instances it solved
};

/// Sample buffers are reserved once, before set-up, and never reallocate;
/// a timed loop ends when its buffer is full. Reserved pages that no sample
/// reaches are never touched, so a buffer adds only the samples it holds
/// (8 bytes each) to peak_rss_mib.
inline constexpr std::size_t kSampleCapacity = std::size_t{1} << 19;

/// An empty vector with room for kSampleCapacity elements.
template <typename T>
[[nodiscard]] std::vector<T> reserved() {
  std::vector<T> v;
  v.reserve(kSampleCapacity);
  return v;
}

/// latency_p50_ms, latency_p99_ms, ops_per_s and instances_per_s of a
/// single-caller timed loop. Rates divide by the summed latency, so the
/// generator's own checks between operations are not counted. Throws when
/// fewer than kMinSamples samples were taken.
void add_loop_metrics(Outcome& out, const std::vector<Sample>& samples);

/// ops_per_s of a traced loop, by the same rule (operations over summed
/// latency), for the tracing overhead.
[[nodiscard]] double traced_ops_per_s(const std::vector<Sample>& samples);

/// Median of `values` (the set-up repetitions).
[[nodiscard]] double median(std::vector<double> values);

/// Replay `pairs` through each layer's public function under spans:
/// parse, compile and template compile once per design; verify, the
/// legacy plan builder, expansion, lowering, the VM (one lane and a
/// 16-lane batch), the interpreter on a warm plan cache and the
/// sequential baseline per pair. Outputs are checked into `out`.
void replay_layers(Tracer& t, const std::map<std::string, std::string>& sa,
                   const std::vector<Pair>& pairs, Outcome& out);

/// Per-request durations of the service replay, in request order.
struct ServiceSplit {
  std::vector<double> request_us;  ///< round trip over the daemon's socket
  std::vector<double> handle_us;   ///< Executor::handle of the same request
};

/// Prime `daemon` and an in-process Executor (both with the default
/// configuration) with `priming`, then send `reqs` one at a time to the
/// daemon (span service.request) and to the Executor (span service.handle);
/// every response must be ok.
[[nodiscard]] ServiceSplit replay_service(
    Tracer& t, class Daemon& daemon,
    const std::vector<systolize::service::Request>& priming,
    const std::vector<systolize::service::Request>& reqs, Outcome& out);

/// Per-layer metrics from the traced run's spans, a stats-op payload
/// (Executor::stats_json; deltas taken against `stats_before`) and the
/// service replay: medians of the round trip, of the handler, and of the
/// per-request difference between the two (service.wire_us). A workload
/// without one of these passes "{}" or an empty split; its metrics then
/// read 0 over 0 samples.
void add_layer_metrics(Outcome& out, const std::vector<const Tracer*>& tracers,
                       const std::string& stats_before,
                       const std::string& stats_after, const ServiceSplit& split,
                       double traced_ops_per_s);

/// Write every span to `path` as CSV.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

inline constexpr Int kBatch = 16;

}  // namespace perfbench
