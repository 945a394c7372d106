// Expression transformer (§3.1, Figure 9): turns the flat equation system
// into the list of assignments that "really needs to be computed by the
// generated code" — derivatives removed, equations replaced by assignments
// whose right-hand sides are the equation right-hand sides.
#pragma once

#include "omx/model/flat_system.hpp"

namespace omx::codegen {

struct Assignment {
  enum class Kind { kAlgebraic, kStateDer };
  Kind kind = Kind::kStateDer;
  int index = 0;  // algebraic index or state index
  SymbolId target = kInvalidSymbol;
  expr::ExprId rhs = expr::kNoExpr;
};

struct AssignmentSet {
  /// Auxiliary assignments in dependency order.
  std::vector<Assignment> algebraics;
  /// One per state: <name>dot = rhs.
  std::vector<Assignment> states;
};

struct TransformOptions {
  /// Run algebraic simplification over every RHS first.
  bool simplify = true;
};

AssignmentSet build_assignments(const model::FlatSystem& flat,
                                const TransformOptions& opts = {});

/// Rewrites `e` with every algebraic variable replaced by its defining
/// expression, recursively. Used when compiling self-contained parallel
/// tasks (no values are shared between tasks in the distributed version).
///
/// Inline-once contract: the result for an input ExprId is memoized in
/// the system's InlineCache, so the task planner, the emitters and the
/// tape compilers share one inlining per state; a repeated call costs a
/// hash lookup. A miss substitutes only the algebraics in the transitive
/// closure of `e`, in descending index order.
///
/// Node-order invariant: the pool receives exactly the nodes, in exactly
/// the order, that substituting every algebraic in descending index order
/// would create. CSE numbers its temporaries in ascending ExprId order,
/// so emitted code (and with it the golden files and the native cache
/// key) depends on this order.
expr::ExprId inline_algebraics(const model::FlatSystem& flat,
                               expr::ExprId e);

}  // namespace omx::codegen
