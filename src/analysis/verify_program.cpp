// PROGRAM-level rules: schedule validity re-derived from the compiled
// (step, place), consistency of the recorded stream motions with the
// flows the schedule implies, and the guard analysis — feasibility of
// every piecewise clause and pairwise disjointness (or provable value
// agreement) of overlapping clauses, decided by Fourier-Motzkin under
// the program's standing assumptions.
#include "analysis/verify.hpp"

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "numeric/rat_matrix.hpp"
#include "runtime/host.hpp"
#include "symbolic/fourier_motzkin.hpp"
#include "systolic/flow.hpp"

namespace systolize {
namespace {

std::optional<IntVec> unique_null_generator(const IntMatrix& m) {
  auto basis = m.null_space_basis();
  if (basis.size() != 1) return std::nullopt;
  return basis.front();
}

/// Component differences between two piece values, as affine expressions.
/// The values are provably equal on a region iff every difference is
/// provably zero there.
std::vector<AffineExpr> value_diffs(const AffineExpr& a,
                                    const AffineExpr& b) {
  return {a - b};
}

std::vector<AffineExpr> value_diffs(const AffinePoint& a,
                                    const AffinePoint& b) {
  std::vector<AffineExpr> diffs;
  const std::size_t n = a.dim() < b.dim() ? a.dim() : b.dim();
  for (std::size_t i = 0; i < n; ++i) diffs.push_back(a[i] - b[i]);
  // A dimension mismatch means the values certainly disagree; encode it
  // as the unsatisfiable-to-refute difference 1.
  if (a.dim() != b.dim()) diffs.push_back(AffineExpr(1));
  return diffs;
}

/// Exact on integer points: d can be non-zero on the (integer) region g
/// iff g /\ {1 <= d} or g /\ {d <= -1} is feasible. Our affine forms have
/// integer values on integer points, so the rational relaxation of those
/// two strict sides is exact (cf. implies() in fourier_motzkin.hpp).
bool provably_zero_on(const AffineExpr& d, const Guard& g,
                      const Guard& assumptions) {
  Guard pos = g;
  pos.add(Constraint{AffineExpr(1), d});
  if (is_feasible(pos, assumptions)) return false;
  Guard neg = g;
  neg.add(Constraint{d, AffineExpr(-1)});
  return !is_feasible(neg, assumptions);
}

/// The guard analysis for one piecewise definition `pw` named `subject`:
///  - guard.dead-clause (warning): a clause no point of the assumption
///    region can ever select;
///  - guard.overlap (error): two clauses overlap and their values provably
///    differ somewhere on the overlap — the selected alternative then
///    depends on clause order, which the paper's semantics forbids;
///  - guard.overlap-benign (info): clauses overlap but the values are
///    provably equal on the whole overlap (the paper's "projections of a
///    point on several faces" case — harmless).
template <typename T>
void check_pieces(VerifyReport& report, const std::string& subject,
                  const Piecewise<T>& pw, const Guard& assumptions) {
  const auto& pieces = pw.pieces();
  std::size_t benign_pairs = 0;
  std::vector<bool> alive(pieces.size(), false);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    alive[i] = is_feasible(pieces[i].guard, assumptions);
    if (!alive[i]) {
      report.add("guard.dead-clause", Severity::Warning, subject,
                 "clause " + std::to_string(i) + " with guard [" +
                     pieces[i].guard.to_string() +
                     "] is infeasible under the standing assumptions and "
                     "can never be selected");
    }
  }
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (!alive[i]) continue;
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      if (!alive[j]) continue;
      Guard overlap = pieces[i].guard.conjoined(pieces[j].guard);
      if (!is_feasible(overlap, assumptions)) continue;
      bool equal = true;
      for (const AffineExpr& d :
           value_diffs(pieces[i].value, pieces[j].value)) {
        if (!provably_zero_on(d, overlap, assumptions)) {
          equal = false;
          break;
        }
      }
      if (equal) {
        ++benign_pairs;
      } else {
        report.add("guard.overlap", Severity::Error, subject,
                   "clauses " + std::to_string(i) + " and " +
                       std::to_string(j) +
                       " overlap and their values differ somewhere on "
                       "the overlap: which alternative fires depends "
                       "on clause order (double-covered points)");
      }
    }
  }
  if (benign_pairs != 0) {
    report.add("guard.overlap-benign", Severity::Info, subject,
               std::to_string(benign_pairs) +
                   " overlapping clause pair(s), all provably value-equal "
                   "on their overlaps (projections of points on several "
                   "faces — harmless)");
  }
}

/// All the piecewise definitions of one compiled program, by subject.
void check_guards(VerifyReport& report, const CompiledProgram& prog) {
  const Guard& as = prog.assumptions;
  check_pieces(report, "repeater.first", prog.repeater.first, as);
  check_pieces(report, "repeater.last", prog.repeater.last, as);
  check_pieces(report, "repeater.count", prog.repeater.count, as);
  for (const StreamPlan& sp : prog.streams) {
    check_pieces(report, sp.name + ".soak", sp.soak, as);
    check_pieces(report, sp.name + ".drain", sp.drain, as);
    check_pieces(report, sp.name + ".io.first_s", sp.io.first_s, as);
    check_pieces(report, sp.name + ".io.last_s", sp.io.last_s, as);
    check_pieces(report, sp.name + ".io.count_s", sp.io.count_s, as);
  }
}

}  // namespace

void verify_program_into(VerifyReport& report, const CompiledProgram& prog,
                         const LoopNest& nest) {
  const std::size_t r = prog.depth;
  const StepFunction& step = prog.step;
  const PlaceFunction& place = prog.place;

  if (r == 0 || r != nest.depth() || step.arity() != r ||
      place.arity() != r || place.space_dim() + 1 != r) {
    report.add("schedule.arity", Severity::Error, "compiled program",
               "compiled (step, place) shapes do not match a depth-" +
                   std::to_string(nest.depth()) + " nest");
    return;
  }

  // Schedule validity, Equation (1): (step, place) stacked as an r x r
  // map must have rank r — then distinct statements differ in step or in
  // place, and the repeater enumerates each process's workload exactly
  // once (Theorem 3).
  RatMatrix stacked(r, r);
  for (std::size_t c = 0; c < r; ++c) {
    stacked.at(0, c) = Rational(step.coeffs()[c]);
    for (std::size_t rr = 0; rr + 1 < r; ++rr) {
      stacked.at(rr + 1, c) = Rational(place.matrix().at(rr, c));
    }
  }
  std::optional<IntVec> w = unique_null_generator(place.matrix());
  if (!w.has_value()) {
    report.add("schedule.place-rank", Severity::Error, place.to_string(),
               "place must have rank r-1 (Theorem 1)");
  } else if (stacked.rank() < r) {
    report.add("schedule.injectivity", Severity::Error,
               step.to_string() + " / " + place.to_string(),
               "(step, place) is not injective on the index space: step "
               "vanishes on null.place generator " +
                   w->to_string() + " (Equation (1), Theorem 3)");
  }

  // The computation repeater's increment must walk exactly the fibre of
  // place through each process (null.place direction) and strictly
  // forwards in time (Sect. 6.2 chooses inc with step.inc > 0).
  const IntVec& inc = prog.repeater.increment;
  if (inc.dim() != r || inc.is_zero()) {
    report.add("schedule.increment", Severity::Error, inc.to_string(),
               "repeater increment must be a non-zero vector in Z^r");
  } else {
    if (!place.apply(inc).is_zero()) {
      report.add("schedule.increment", Severity::Error, inc.to_string(),
                 "repeater increment leaves the process's fibre: "
                 "place.increment != 0, so the repeater visits points "
                 "belonging to other processes");
    }
    if (step.apply(inc) <= 0) {
      report.add("schedule.increment", Severity::Error, inc.to_string(),
                 "step does not strictly increase along the repeater "
                 "increment (step.inc = " +
                     std::to_string(step.apply(inc)) +
                     "); successive statements of one process would not "
                     "execute in increasing step order");
    }
  }

  // Recorded stream motions vs the flows the schedule implies
  // (flow.s = place.n / step.n, Theorem 10).
  for (const StreamPlan& sp : prog.streams) {
    const Stream* stream = nullptr;
    for (const Stream& s : nest.streams()) {
      if (s.name() == sp.name) {
        stream = &s;
        break;
      }
    }
    if (stream == nullptr) {
      report.add("flow.consistency", Severity::Error, sp.name,
                 "compiled program plans a stream the source program does "
                 "not declare");
      continue;
    }
    RatVec derived;
    try {
      derived = compute_flow(*stream, step, place);
    } catch (const Error& e) {
      report.add("schedule.dependence-step", Severity::Error, sp.name,
                 std::string("flow.") + sp.name +
                     " is undefined under the compiled schedule: " +
                     e.what());
      continue;
    }
    const FlowDecomposition dec = decompose_flow(derived);
    if (sp.motion.flow != derived) {
      std::string msg = "recorded flow " + sp.motion.flow.to_string() +
                        " differs from the flow the schedule implies, " +
                        derived.to_string() + " (Theorem 10)";
      if (!derived.is_zero() && sp.motion.direction == -dec.direction) {
        msg += "; the recorded direction is exactly reversed — elements "
               "would travel against the dependences";
      }
      report.add("flow.consistency", Severity::Error, sp.name, msg);
      continue;
    }
    if (sp.motion.stationary != derived.is_zero()) {
      report.add("flow.consistency", Severity::Error, sp.name,
                 "stationary flag disagrees with the derived flow");
      continue;
    }
    if (!derived.is_zero()) {
      if (sp.motion.direction != dec.direction ||
          sp.motion.denominator != dec.denominator) {
        report.add("flow.consistency", Severity::Error, sp.name,
                   "recorded direction/denominator (" +
                       sp.motion.direction.to_string() + ", " +
                       std::to_string(sp.motion.denominator) +
                       ") differ from the decomposition of the flow (" +
                       dec.direction.to_string() + ", " +
                       std::to_string(dec.denominator) + ")");
        continue;
      }
      if (!dec.direction.is_neighbour_offset()) {
        report.add("flow.neighbour", Severity::Error, sp.name,
                   "flow direction " + dec.direction.to_string() +
                       " is not a neighbour offset (Sect. 3.2)");
      }
    } else if (sp.motion.direction.is_zero() ||
               !sp.motion.direction.is_neighbour_offset()) {
      report.add("flow.loading", Severity::Error, sp.name,
                 "stationary stream's loading & recovery direction " +
                     sp.motion.direction.to_string() +
                     " must be a non-zero neighbour offset (Sect. 4.2)");
    }
  }

  check_guards(report, prog);
}

VerifyReport verify_program(const CompiledProgram& prog,
                            const LoopNest& nest) {
  VerifyReport report;
  report.design = prog.name;
  verify_program_into(report, prog, nest);
  return report;
}

void verify_design_into(VerifyReport& report, const CompiledProgram& prog,
                        const LoopNest& nest, const Env& sizes,
                        const PlanShape& shape, PlanCache* cache) {
  verify_program_into(report, prog, nest);
  if (report.errors() != 0) return;  // plan would inherit the rot
  verify_loading_cover_into(report, prog, nest, sizes);
  if (report.errors() != 0) return;
  try {
    verify_plan_into(report, *plan_for(prog, nest, sizes, shape, cache));
  } catch (const Error& e) {
    report.add("plan.error", Severity::Error, "network plan",
               std::string("interning the plan failed: ") + e.what(),
               e.diagnostic().empty() ? "" : e.diagnostic());
  }
}

VerifyReport verify_design(const CompiledProgram& prog, const LoopNest& nest,
                           const Env& sizes, const PlanShape& shape,
                           PlanCache* cache) {
  VerifyReport report;
  report.design = prog.name;
  verify_design_into(report, prog, nest, sizes, shape, cache);
  return report;
}

void verify_loading_cover_into(VerifyReport& report,
                               const CompiledProgram& prog,
                               const LoopNest& nest, const Env& sizes) {
  // Loading cover (stationary streams only): the loading & recovery
  // pipelines enumerate the declared element box, while the cells that
  // hold the elements are the index-map image of the iteration domain.
  // When the image is not exactly the box — the map's image over the
  // domain is not rectangular — the two sequences misalign and loading
  // deposits elements into the wrong cells (found by differential
  // fuzzing: the recovered values come back cyclically shifted along
  // the loading direction). Moving streams are immune: their element
  // identities are derived per chord from the iteration domain itself.
  for (const StreamPlan& sp : prog.streams) {
    if (!sp.motion.stationary) continue;
    const Stream* stream = nullptr;
    for (const Stream& s : nest.streams()) {
      if (s.name() == sp.name) stream = &s;
    }
    if (stream == nullptr) continue;  // flow.consistency already fired
    std::set<IntVec, IntVecLess> image;
    for (const IntVec& x : nest.enumerate_index_space(sizes)) {
      image.insert(stream->element_of(x));
    }
    const std::vector<IntVec> box = IndexedStore::domain(*stream, sizes);
    bool covered = image.size() == box.size();
    for (std::size_t i = 0; covered && i < box.size(); ++i) {
      covered = image.contains(box[i]);
    }
    if (!covered) {
      report.add("flow.loading-cover", Severity::Error, sp.name,
                 "stationary stream's declared element box (" +
                     std::to_string(box.size()) +
                     " elements) is not exactly the index-map image of "
                     "the iteration domain (" +
                     std::to_string(image.size()) +
                     " elements) — the loading & recovery pipelines "
                     "would deposit elements into the wrong cells");
    }
  }
}

}  // namespace systolize
