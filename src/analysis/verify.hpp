// Static plan verifier: prove or refute the correctness conditions of a
// compiled systolic network without executing a single scheduler round.
//
// The compilation scheme is only sound when (step, place) is injective on
// the index space (Eq. (1), Theorem 3), flows are consistent and
// neighbour-restricted (Sect. 3.2, Theorem 10), and the generated
// repeater/soak/drain guards cover exactly the intended lattice points
// (Sects. 6-7). The runtime's PR-1 forensics only discover violations
// dynamically, mid-run; this pass discharges them at compile time:
//
//   * SPEC level   — verify_spec: symbolic checks on (source, array)
//     directly, so broken specs are diagnosed even when compile() would
//     refuse them (rank/injectivity/dependence/flow rules).
//   * PROGRAM level — verify_program: the same schedule checks off the
//     compiled program, plus flow-record consistency and the guard
//     feasibility/disjointness analysis (Fourier-Motzkin under the
//     program's standing assumptions; exact on integer points).
//   * PLAN level   — verify_plan: channel discipline (single writer and
//     reader, send/recv count balance off the first/last-derived counts)
//     and static deadlock freedom of the interned NetworkPlan, by
//     topologically retiring its step-ordered communication graph. A
//     detected cycle is reported in the exact wait-for schema of the
//     runtime forensics (DeadlockReport), so diagnostics look identical
//     whether found statically or dynamically.
//
// Every diagnostic carries a stable rule id (docs/static-analysis.md).
#pragma once

#include "analysis/findings.hpp"
#include "runtime/plan_cache.hpp"
#include "scheme/types.hpp"
#include "systolic/array_spec.hpp"

namespace systolize {

/// Symbolic checks on a raw (source program, array spec) pair. Never
/// throws on the violations it checks for — they become findings.
[[nodiscard]] VerifyReport verify_spec(const LoopNest& nest,
                                       const ArraySpec& spec);
void verify_spec_into(VerifyReport& report, const LoopNest& nest,
                      const ArraySpec& spec);

/// Symbolic checks on a compiled program: schedule validity, recorded
/// flow consistency, guard feasibility and pairwise disjointness.
[[nodiscard]] VerifyReport verify_program(const CompiledProgram& program,
                                          const LoopNest& nest);
void verify_program_into(VerifyReport& report, const CompiledProgram& program,
                         const LoopNest& nest);

/// Structural checks on an interned NetworkPlan: per-channel single
/// writer/reader discipline, send/recv count balance, and static
/// deadlock freedom of the communication structure.
[[nodiscard]] VerifyReport verify_plan(const NetworkPlan& plan);
void verify_plan_into(VerifyReport& report, const NetworkPlan& plan);

/// Concrete-size check that every stationary stream's declared element
/// box is exactly the index-map image of the iteration domain. The
/// loading & recovery pipelines enumerate the box while the cells hold
/// the image, so any mismatch deposits elements into the wrong cells
/// (rule flow.loading-cover; found by differential fuzzing). Moving
/// streams derive element identities per chord and are immune.
void verify_loading_cover_into(VerifyReport& report,
                               const CompiledProgram& program,
                               const LoopNest& nest, const Env& sizes);

/// The full pipeline on a compiled design: program-level checks; when
/// those leave no errors, the loading-cover check at `sizes`; when that
/// passes too, intern the plan at `sizes` and `shape` (through `cache`
/// when given) and run the plan-level checks. A plan that cannot be
/// interned becomes a `plan.error` finding. No scheduler is ever
/// constructed. `systolize verify` and the serve `verify` op run this
/// after the spec-level checks.
[[nodiscard]] VerifyReport verify_design(const CompiledProgram& program,
                                         const LoopNest& nest,
                                         const Env& sizes,
                                         const PlanShape& shape = {},
                                         PlanCache* cache = nullptr);
void verify_design_into(VerifyReport& report, const CompiledProgram& program,
                        const LoopNest& nest, const Env& sizes,
                        const PlanShape& shape = {},
                        PlanCache* cache = nullptr);

}  // namespace systolize
