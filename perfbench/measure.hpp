// Measurement primitives of the load generator: in-memory spans with
// self-time attribution, the percentile rule, peak-RSS probes and the
// metric table / result line the benchmark prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded around each call into a layer's public function. One
/// Tracer belongs to one thread; spans stay in memory until the run ends.
/// A disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Spans opened from now on belong to operation `op` (a request id).
  void set_op(std::uint64_t op) { op_ = op; }

  /// RAII span; the innermost open span is its parent.
  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  /// A count or size observed at a layer boundary (e.g. a plan's bytes).
  void value(const char* name, double v);

  struct Summary {
    std::size_t count = 0;
    double total_ns = 0;  ///< sum of span durations
    double self_ns = 0;   ///< sum of durations minus covered child time
    double sum = 0;       ///< value(): sum of observations
  };

  /// Per-name totals, merged over several tracers (one per thread).
  [[nodiscard]] static std::map<std::string, Summary> summarize(
      const std::vector<const Tracer*>& tracers);

  /// Write every span as one CSV line: op,name,id,parent,start_ns,end_ns.
  void write_csv(std::ostream& os) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Record> spans_;
  std::vector<std::int64_t> open_;
  std::map<std::string, std::pair<std::size_t, double>> values_;
};

/// Nearest-rank percentile of ascending `sorted` (p in (0, 100]).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 99.9, 99, 95 and 90 that has at least ten samples
/// beyond it, or 0 when even the 90th has fewer (fewer than forty
/// samples: report the median alone).
[[nodiscard]] double tail_percentile(std::size_t n);

/// Smallest sample count that puts ten samples beyond the 99th
/// percentile; every timed loop runs at least this many operations.
inline constexpr std::size_t kMinSamples = 1000;

/// VmHWM of this process in MiB, or -1 when unreadable.
[[nodiscard]] double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< first few correctness findings

  void wrong(const std::string& why);
  void add(std::string name, double value, std::string unit,
           std::size_t samples);
};

/// Human-readable table (name, value, unit, sample count) followed by the
/// one-line JSON result the benchmark contract asks for.
void print_outcome(const Outcome& out, const std::string& workload);

}  // namespace perfbench
