// Sparse linear-algebra substrate for the stiff path: CSR sparsity
// patterns, distance-2 column coloring (compressed finite-difference
// Jacobians), a CSR value matrix, and a two-phase sparse LU behind the
// la::LinearSolver interface: a symbolic minimum-degree ordering computed
// once per pattern, and a numeric factorization that records its pivot
// sequence and elimination schedule once, then refactors in place.
//
// Bitwise contract: SparseLu performs exactly the floating-point
// operations of the dense LuFactors on the same matrix when the
// minimum-degree order is the natural one and the pivot rows coincide
// with dense partial pivoting's, as on the tridiagonal heat-PDE stencil.
// Structural zeros are exact 0.0 in the dense path, so they can never win
// the strict-`>` pivot search, their row updates are numerical no-ops,
// and fill values are computed as `0.0 - m * u` just like the dense
// in-place update; each entry takes its updates in ascending pivot order
// with m = a * inv_pivot. Elsewhere (a reordered pattern, or a replayed
// pivot sequence that partial pivoting would have changed) the factors
// differ from dense LU by rounding only, and are checked against it with
// a residual oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "omx/la/linear_solver.hpp"
#include "omx/la/matrix.hpp"

namespace omx::la {

/// Structure-only CSR pattern (row_ptr/col_idx, columns sorted per row).
struct SparsityPattern {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> row_ptr;  // rows + 1 offsets into col_idx
  std::vector<std::size_t> col_idx;  // sorted within each row, no dupes

  static SparsityPattern dense(std::size_t n);
  static SparsityPattern from_dense_mask(
      const std::vector<std::vector<bool>>& mask);
  /// Builds from (row, col) pairs; duplicates are collapsed.
  static SparsityPattern from_triplets(
      std::size_t rows, std::size_t cols,
      std::vector<std::pair<std::size_t, std::size_t>> entries);

  std::size_t nnz() const { return col_idx.size(); }
  /// max(i - j) over stored entries with i > j (0 when none).
  std::size_t lower_bandwidth() const;
  /// max(j - i) over stored entries with j > i (0 when none).
  std::size_t upper_bandwidth() const;

  bool contains(std::size_t r, std::size_t c) const;
  /// Index into col_idx (and any aligned value array) or npos.
  std::size_t find(std::size_t r, std::size_t c) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Same pattern with every diagonal entry present (square only).
  SparsityPattern with_diagonal() const;

  bool operator==(const SparsityPattern&) const = default;
};

/// CSC companion of a pattern; csr_pos maps each column-major slot back
/// to its index in the CSR col_idx (and any value array aligned with it).
struct ColumnView {
  std::vector<std::size_t> col_ptr;  // cols + 1
  std::vector<std::size_t> row_idx;  // nnz
  std::vector<std::size_t> csr_pos;  // nnz
};

ColumnView columns(const SparsityPattern& p);

/// Greedy distance-2 coloring of the columns: two columns sharing any row
/// get different colors, so all columns of one color can be perturbed in
/// a single finite-difference RHS evaluation.
struct Coloring {
  std::vector<int> color;                         // per column
  int num_colors = 0;
  std::vector<std::vector<std::size_t>> groups;   // columns per color
};

Coloring color_columns(const SparsityPattern& p);

/// Symbolic phase of SparseLu: a fill-reducing elimination order for a
/// square pattern and the factor it predicts under diagonal pivoting.
struct SymbolicLu {
  std::vector<std::size_t> order;  // order[new_index] = old_index
  std::size_t factor_nnz = 0;      // predicted L+U entries, diagonal included
  std::size_t factor_flops = 0;    // predicted elimination multiply-adds
};

/// Minimum-degree ordering of the symmetrized pattern A + A^T, computed
/// on a quotient graph (eliminated nodes become elements that absorb
/// their neighbours) with approximate external degrees. Ties go to the
/// lowest index, so banded and tridiagonal patterns keep their natural
/// order. The predicted counts are exact for the returned order.
SymbolicLu minimum_degree(const SparsityPattern& p);

/// Multiply-adds of dense LU at order n: sum over k of (n-1-k)^2, about
/// n^3/3. The backend choice compares SymbolicLu::factor_flops with it.
std::size_t dense_lu_flops(std::size_t n);

/// CSR value matrix over a shared (immutable) pattern.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(std::shared_ptr<const SparsityPattern> pattern);

  const SparsityPattern& pattern() const { return *pattern_; }
  std::shared_ptr<const SparsityPattern> pattern_ptr() const {
    return pattern_;
  }

  std::span<double> values() { return values_; }
  std::span<const double> values() const { return values_; }

  std::size_t rows() const { return pattern_ ? pattern_->rows : 0; }
  std::size_t cols() const { return pattern_ ? pattern_->cols : 0; }

  /// Value at (r, c); exact 0.0 for entries outside the pattern.
  double at(std::size_t r, std::size_t c) const;

  void set_zero();
  Matrix to_dense() const;

  /// y = A x.
  void multiply(std::span<const double> x, std::span<double> y) const;

 private:
  std::shared_ptr<const SparsityPattern> pattern_;
  std::vector<double> values_;
};

/// Sparse LU with partial pivoting on a minimum-degree ordered matrix.
///
/// The first factor() runs a left-looking elimination with the dense
/// LuFactors' partial-pivoting rule over structural entries only. It
/// records the pivot sequence, the structural L+U pattern (fill is kept
/// even where a multiplier is numerically zero) and a flat elimination
/// schedule: where each input entry lands in the factor, and where each
/// multiply-add writes. Every later factor() replays that schedule in
/// place with no allocation, search or merge. If a replayed multiplier
/// exceeds 1 / kPivotTolerance or a pivot is exactly zero, the stored
/// sequence no longer suits the matrix and a full factorization records a
/// new one. Throws omx::Error on a singular matrix.
///
/// solve() uses a workspace owned by the object, so one SparseLu must not
/// be solved against from two threads at once; each stiff solver owns
/// its own.
class SparseLu final : public LinearSolver {
 public:
  /// Threshold partial pivoting's tau: a replayed pivot must be at least
  /// tau times every other entry of its column.
  static constexpr double kPivotTolerance = 0.1;

  /// Binds the symbolic phase of `pattern`; factor() supplies values.
  SparseLu(std::shared_ptr<const SparsityPattern> pattern,
           const SymbolicLu& symbolic);
  /// Orders a's pattern and factors it.
  explicit SparseLu(const CsrMatrix& a);

  /// Factors `a`, whose pattern must be the bound one. Returns false when
  /// a replay failed the threshold test and fell back to a full
  /// factorization.
  bool factor(const CsrMatrix& a);

  std::size_t size() const override { return n_; }
  void solve(std::span<const double> b, std::span<double> x) const override;
  const char* kind() const override { return "sparse_lu"; }
  std::size_t factor_nnz() const override { return val_.size(); }
  /// Multiply-adds of one elimination under the recorded pivot sequence.
  std::size_t factor_flops() const { return upd_.size(); }

 private:
  void factor_full(const CsrMatrix& a);
  bool replay(const CsrMatrix& a);

  std::size_t n_ = 0;
  std::shared_ptr<const SparsityPattern> pattern_;
  std::vector<std::size_t> order_;      // symmetric ordering, new -> old
  std::vector<std::size_t> inv_order_;  // old -> new
  bool recorded_ = false;               // schedule valid for replay

  // Factor rows in pivot order (CSR): L multipliers left of the
  // diagonal, U from the diagonal on.
  std::vector<std::size_t> ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
  std::vector<std::size_t> diag_;
  std::vector<std::size_t> src_;  // input row feeding factor row s

  // Elimination schedule: load_[e] is input entry e's factor slot;
  // pivot k's multipliers sit at lcol_[lcol_ptr_[k] .. lcol_ptr_[k+1]],
  // and the i-th of them writes U row k's entries to the next
  // (ptr_[k+1] - diag_[k] - 1) slots of upd_.
  std::vector<std::size_t> load_;
  std::vector<std::size_t> lcol_ptr_;
  std::vector<std::size_t> lcol_;
  std::vector<std::uint32_t> upd_;

  mutable std::vector<double> work_;  // solve() workspace
};

}  // namespace omx::la
