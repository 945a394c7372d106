// C++ code generation — the second target language of the ObjectMath 4.0
// code generator (Figure 8). Same task structure as the Fortran emitter:
// parallel `rhs(worker_id, t, yin, yout)` with a switch per task, or a
// serial globally-CSE'd body.
#pragma once

#include "omx/codegen/fortran.hpp"  // EmitResult, EmitOptions

namespace omx::codegen {

EmitResult emit_cpp_parallel(const model::FlatSystem& flat,
                             const TaskPlan& plan,
                             const EmitOptions& opts = {});

EmitResult emit_cpp_serial(const model::FlatSystem& flat,
                           const AssignmentSet& set,
                           const EmitOptions& opts = {});

// Batched (structure-of-arrays) variants for ensemble execution: the same
// task bodies wrapped in a contiguous lane loop, `rhs_batch(int nb, const
// double* ts, const double* yin, double* yout)` with state i of lane j at
// yin[i * nb + j] and a per-lane time ts[j]. The per-lane arithmetic is
// emitted from the same expression trees as the scalar variants, so lane
// results match a scalar call bit for bit; the inner loops are unit-stride
// so the host compiler can auto-vectorize across lanes.

EmitResult emit_cpp_parallel_batch(const model::FlatSystem& flat,
                                   const TaskPlan& plan,
                                   const EmitOptions& opts = {});

EmitResult emit_cpp_serial_batch(const model::FlatSystem& flat,
                                 const AssignmentSet& set,
                                 const EmitOptions& opts = {});

/// The scalar and batched variants of one surface, printed from a single
/// preparation (inlining, CSE, renames) of each unit. Byte-identical to
/// the separate emit_cpp_* calls, at the preparation cost of one.
struct EmitVariants {
  EmitResult scalar;
  EmitResult batch;
};

EmitVariants emit_cpp_serial_variants(const model::FlatSystem& flat,
                                      const AssignmentSet& set,
                                      const EmitOptions& opts = {});

EmitVariants emit_cpp_parallel_variants(const model::FlatSystem& flat,
                                        const TaskPlan& plan,
                                        const EmitOptions& opts = {});

}  // namespace omx::codegen
