#include "measure.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

Tracer::Span::Span(Tracer& t, const char* name) {
  if (!t.enabled_) return;
  tracer_ = &t;
  index_ = t.spans_.size();
  const std::int64_t parent = t.open_.empty() ? -1 : t.open_.back();
  t.spans_.push_back({name, t.op_, parent, now_ns(), 0});
  t.open_.push_back(static_cast<std::int64_t>(index_));
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = now_ns();
  tracer_->open_.pop_back();
}

void Tracer::value(const char* name, double v) {
  if (!enabled_) return;
  auto& [count, sum] = values_[name];
  ++count;
  sum += v;
}

std::map<std::string, Tracer::Summary> Tracer::summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, Summary> out;
  for (const Tracer* t : tracers) {
    std::vector<double> child_ns(t->spans_.size(), 0.0);
    for (const Record& r : t->spans_) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] +=
            static_cast<double>(r.end_ns - r.start_ns);
      }
    }
    for (std::size_t i = 0; i < t->spans_.size(); ++i) {
      const Record& r = t->spans_[i];
      const double dur = static_cast<double>(r.end_ns - r.start_ns);
      Summary& s = out[r.name];
      ++s.count;
      s.total_ns += dur;
      s.self_ns += dur - child_ns[i];
    }
    for (const auto& [name, cv] : t->values_) {
      Summary& s = out[name];
      s.count += cv.first;
      s.sum += cv.second;
    }
  }
  return out;
}

void Tracer::write_csv(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    os << r.op << ',' << r.name << ',' << i << ',' << r.parent << ','
       << r.start_ns << ',' << r.end_ns << '\n';
  }
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  // Nearest rank: the smallest rank k with k >= p/100 * n. The epsilon
  // keeps exact products (990.0 for p=99, n=1000) from rounding up.
  const double exact = p / 100.0 * static_cast<double>(n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return n - rank;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[sorted.size() - 1 - samples_beyond(sorted.size(), p)];
}

double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return -1;
}

void Outcome::wrong(const std::string& why) {
  correct = false;
  if (problems.size() < 8) problems.push_back(why);
}

void Outcome::add(std::string name, double value, std::string unit,
                  std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void print_outcome(const Outcome& out, const std::string& workload) {
  std::cout << "workload " << workload << ": attempted " << out.attempted
            << ", failed " << out.failed << ", outputs "
            << (out.correct ? "correct" : "WRONG") << '\n';
  for (const std::string& p : out.problems) std::cout << "  problem: " << p << '\n';
  for (const Metric& m : out.metrics) {
    std::printf("  %-36s %14s %-6s n=%zu\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  std::ostringstream js;
  js << "{\"correct\": " << (out.correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    js << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

}  // namespace perfbench
