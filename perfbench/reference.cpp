#include "reference.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using systolize::IntVec;
using systolize::Stream;
using systolize::Value;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Int Rng::range(Int lo, Int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<Int>(next() % span);
}

Env sizes_for(const LoopNest& nest, Int n, Int m) {
  Env env;
  for (const auto& s : nest.sizes()) {
    env[s.name()] = systolize::Rational(s.name() == "m" ? m : n);
  }
  return env;
}

IndexedStore seeded_inputs(const LoopNest& nest, const Env& sizes,
                           std::uint64_t seed) {
  IndexedStore store;
  for (const Stream& s : nest.streams()) {
    const bool read = s.access() == systolize::StreamAccess::Read;
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a of the name
    for (const char c : s.name()) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    Rng rng(seed ^ h);
    store.fill(s, sizes, [&](const IntVec&) -> Value {
      return read ? rng.range(-9, 9) : 0;
    });
  }
  return store;
}

namespace {

using Elements = std::map<IntVec, Value, systolize::IntVecLess>;

struct Expected {
  const char* stream = "";
  Elements values;
};

Value at(const IndexedStore& s, const char* var, std::initializer_list<Int> i) {
  return s.get(var, IntVec(i));
}

// Each kernel is the design's body written as plain loops, summed into a
// zero-initialized result over its full declared domain.
Expected reference(const std::string& nest, const IndexedStore& in, Int n,
                   Int m) {
  Expected e;
  if (nest == "matmul" || nest == "banded_matmul" || nest == "closure") {
    const bool closure = nest == "closure";
    const char* a = closure ? "t" : "a";
    const char* b = closure ? "u" : "b";
    e.stream = "c";
    for (Int i = 0; i <= n; ++i) {
      for (Int j = 0; j <= n; ++j) {
        Value c = 0;
        for (Int k = 0; k <= n; ++k) {
          if (nest == "banded_matmul" && !(i <= j + 2)) continue;
          c += at(in, a, {i, k}) * at(in, b, {k, j});
        }
        e.values[IntVec{i, j}] = c;
      }
    }
  } else if (nest == "polyprod" || nest == "masked_polyprod") {
    e.stream = "c";
    for (Int k = 0; k <= 2 * n; ++k) e.values[IntVec{k}] = 0;
    for (Int i = 0; i <= n; ++i) {
      for (Int j = 0; j <= n; ++j) {
        if (nest == "masked_polyprod" && !(i >= j)) continue;
        e.values[IntVec{i + j}] += at(in, "a", {i}) * at(in, "b", {j});
      }
    }
  } else if (nest == "correlation") {
    e.stream = "c";
    for (Int d = -n; d <= n; ++d) e.values[IntVec{d}] = 0;
    for (Int i = 0; i <= n; ++i) {
      for (Int j = 0; j <= n; ++j) {
        e.values[IntVec{i - j}] += at(in, "a", {i}) * at(in, "b", {j});
      }
    }
  } else if (nest == "convolution") {
    e.stream = "y";
    for (Int i = 0; i <= n; ++i) {
      Value y = 0;
      for (Int j = 0; j <= m; ++j) y += at(in, "w", {j}) * at(in, "x", {i + j});
      e.values[IntVec{i}] = y;
    }
  } else if (nest == "fir_bank") {
    e.stream = "y";
    for (Int i = 0; i <= n; ++i) {
      for (Int f = 0; f <= m; ++f) {
        Value y = 0;
        for (Int j = 0; j <= m; ++j) {
          y += at(in, "w", {f, j}) * at(in, "x", {i + j, f});
        }
        e.values[IntVec{i, f}] = y;
      }
    }
  } else {
    throw std::runtime_error("no reference kernel for nest '" + nest + "'");
  }
  return e;
}

std::string show(const IntVec& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.dim(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
  return os.str();
}

}  // namespace

bool has_reference(const std::string& nest) {
  for (const char* known : {"matmul", "banded_matmul", "closure", "polyprod",
                            "masked_polyprod", "correlation", "convolution",
                            "fir_bank"}) {
    if (nest == known) return true;
  }
  return false;
}

Int closed_form_statements(const std::string& nest, Int n, Int m) {
  if (nest == "matmul" || nest == "banded_matmul" || nest == "closure") {
    return (n + 1) * (n + 1) * (n + 1);
  }
  if (nest == "polyprod" || nest == "masked_polyprod" ||
      nest == "correlation") {
    return (n + 1) * (n + 1);
  }
  if (nest == "convolution") return (n + 1) * (m + 1);
  if (nest == "fir_bank") return (n + 1) * (m + 1) * (m + 1);
  throw std::runtime_error("no closed form for nest '" + nest + "'");
}

std::string check_against_reference(const std::string& nest,
                                    const IndexedStore& inputs,
                                    const IndexedStore& result, Int n, Int m) {
  const Expected e = reference(nest, inputs, n, m);
  const std::string stream = e.stream;
  if (!result.has(stream)) return "stream " + stream + " missing";
  const Elements& got = result.elements(e.stream);
  if (got.size() != e.values.size()) {
    return "stream " + stream + " has " + std::to_string(got.size()) +
           " elements, expected " + std::to_string(e.values.size());
  }
  for (const auto& [index, want] : e.values) {
    const auto it = got.find(index);
    const Value have = it == got.end() ? 0 : it->second;
    if (it == got.end() || have != want) {
      return nest + ": " + stream + show(index) + " = " +
             std::to_string(have) + ", reference " + std::to_string(want);
    }
  }
  return "";
}

}  // namespace perfbench
