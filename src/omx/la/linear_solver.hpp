// Factorized-linear-system interface shared by the dense and sparse LU
// backends. The implicit ODE solvers factor the Newton iteration matrix
// M = I - h*beta*J once per refresh and then solve against many
// right-hand sides; this interface lets them select dense vs sparse by
// predicted factorization flops without caring which factorization they
// got. The two agree bitwise where the sparse ordering is natural and the
// pivots coincide (see la/sparse.hpp), and to rounding elsewhere.
#pragma once

#include <cstddef>
#include <span>

namespace omx::la {

class LinearSolver {
 public:
  virtual ~LinearSolver() = default;

  virtual std::size_t size() const = 0;

  /// Solves A x = b; `x` may alias `b`.
  virtual void solve(std::span<const double> b,
                     std::span<double> x) const = 0;

  /// Backend tag for diagnostics/metrics ("dense_lu", "sparse_lu").
  virtual const char* kind() const = 0;

  /// Nonzeros stored in the factors (n*n for dense LU) — the memory and
  /// per-solve work proxy the selection heuristic reports.
  virtual std::size_t factor_nnz() const = 0;
};

}  // namespace omx::la
