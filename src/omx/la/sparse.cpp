#include "omx/la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <iterator>
#include <numeric>
#include <string>

#include "omx/support/diagnostics.hpp"

namespace omx::la {

SparsityPattern SparsityPattern::dense(std::size_t n) {
  SparsityPattern p;
  p.rows = n;
  p.cols = n;
  p.row_ptr.resize(n + 1);
  p.col_idx.reserve(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    p.row_ptr[r] = r * n;
    for (std::size_t c = 0; c < n; ++c) {
      p.col_idx.push_back(c);
    }
  }
  p.row_ptr[n] = n * n;
  return p;
}

SparsityPattern SparsityPattern::from_dense_mask(
    const std::vector<std::vector<bool>>& mask) {
  SparsityPattern p;
  p.rows = mask.size();
  p.cols = p.rows == 0 ? 0 : mask.front().size();
  p.row_ptr.resize(p.rows + 1, 0);
  for (std::size_t r = 0; r < p.rows; ++r) {
    OMX_REQUIRE(mask[r].size() == p.cols, "ragged sparsity mask");
    p.row_ptr[r] = p.col_idx.size();
    for (std::size_t c = 0; c < p.cols; ++c) {
      if (mask[r][c]) {
        p.col_idx.push_back(c);
      }
    }
  }
  p.row_ptr[p.rows] = p.col_idx.size();
  return p;
}

SparsityPattern SparsityPattern::from_triplets(
    std::size_t rows, std::size_t cols,
    std::vector<std::pair<std::size_t, std::size_t>> entries) {
  for (const auto& [r, c] : entries) {
    OMX_REQUIRE(r < rows && c < cols, "triplet out of range");
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  SparsityPattern p;
  p.rows = rows;
  p.cols = cols;
  p.row_ptr.resize(rows + 1, 0);
  p.col_idx.reserve(entries.size());
  std::size_t r = 0;
  for (const auto& [er, ec] : entries) {
    while (r <= er) {
      p.row_ptr[r++] = p.col_idx.size();
    }
    p.col_idx.push_back(ec);
  }
  while (r <= rows) {
    p.row_ptr[r++] = p.col_idx.size();
  }
  return p;
}

std::size_t SparsityPattern::lower_bandwidth() const {
  std::size_t b = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (r > col_idx[k]) {
        b = std::max(b, r - col_idx[k]);
      }
    }
  }
  return b;
}

std::size_t SparsityPattern::upper_bandwidth() const {
  std::size_t b = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] > r) {
        b = std::max(b, col_idx[k] - r);
      }
    }
  }
  return b;
}

bool SparsityPattern::contains(std::size_t r, std::size_t c) const {
  return find(r, c) != npos;
}

std::size_t SparsityPattern::find(std::size_t r, std::size_t c) const {
  OMX_REQUIRE(r < rows && c < cols, "pattern index out of range");
  const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]);
  const auto end =
      col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) {
    return npos;
  }
  return static_cast<std::size_t>(it - col_idx.begin());
}

SparsityPattern SparsityPattern::with_diagonal() const {
  OMX_REQUIRE(rows == cols, "with_diagonal needs a square pattern");
  SparsityPattern p;
  p.rows = rows;
  p.cols = cols;
  p.row_ptr.resize(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    p.row_ptr[r] = p.col_idx.size();
    bool placed = false;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (!placed && c >= r) {
        if (c != r) {
          p.col_idx.push_back(r);
        }
        placed = true;
      }
      p.col_idx.push_back(c);
    }
    if (!placed) {
      p.col_idx.push_back(r);
    }
  }
  p.row_ptr[rows] = p.col_idx.size();
  return p;
}

ColumnView columns(const SparsityPattern& p) {
  ColumnView v;
  v.col_ptr.assign(p.cols + 1, 0);
  for (std::size_t c : p.col_idx) {
    ++v.col_ptr[c + 1];
  }
  for (std::size_t c = 0; c < p.cols; ++c) {
    v.col_ptr[c + 1] += v.col_ptr[c];
  }
  v.row_idx.resize(p.nnz());
  v.csr_pos.resize(p.nnz());
  std::vector<std::size_t> cursor(v.col_ptr.begin(), v.col_ptr.end() - 1);
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      const std::size_t c = p.col_idx[k];
      v.row_idx[cursor[c]] = r;
      v.csr_pos[cursor[c]] = k;
      ++cursor[c];
    }
  }
  return v;
}

Coloring color_columns(const SparsityPattern& p) {
  const ColumnView cv = columns(p);
  Coloring out;
  out.color.assign(p.cols, -1);
  // forbidden[c] == j means color c is already taken by a column that
  // shares a row with column j (stamp trick: no per-column reset).
  std::vector<std::size_t> forbidden(p.cols + 1,
                                     std::numeric_limits<std::size_t>::max());
  for (std::size_t j = 0; j < p.cols; ++j) {
    for (std::size_t k = cv.col_ptr[j]; k < cv.col_ptr[j + 1]; ++k) {
      const std::size_t r = cv.row_idx[k];
      for (std::size_t q = p.row_ptr[r]; q < p.row_ptr[r + 1]; ++q) {
        const int c = out.color[p.col_idx[q]];
        if (c >= 0) {
          forbidden[static_cast<std::size_t>(c)] = j;
        }
      }
    }
    int c = 0;
    while (forbidden[static_cast<std::size_t>(c)] == j) {
      ++c;
    }
    out.color[j] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
  out.groups.resize(static_cast<std::size_t>(out.num_colors));
  for (std::size_t j = 0; j < p.cols; ++j) {
    out.groups[static_cast<std::size_t>(out.color[j])].push_back(j);
  }
  return out;
}

SymbolicLu minimum_degree(const SparsityPattern& p) {
  OMX_REQUIRE(p.rows == p.cols, "minimum degree needs a square pattern");
  const std::size_t n = p.rows;
  // Quotient graph: var_adj holds each variable's remaining variable
  // neighbours, elem_adj the elements (eliminated pivots, named by their
  // variable) it belongs to, elem_vars each live element's variables. An
  // element stands for the clique its pivot's elimination created, so
  // fill is never stored.
  std::vector<std::vector<std::size_t>> var_adj(n), elem_adj(n), elem_vars(n);
  std::vector<std::size_t> degree(n);
  const ColumnView cv = columns(p);
  for (std::size_t i = 0; i < n; ++i) {
    // Row i of A + A^T: row i of A merged with column i of A.
    auto& nbrs = var_adj[i];
    nbrs.reserve(p.row_ptr[i + 1] - p.row_ptr[i] + cv.col_ptr[i + 1] -
                 cv.col_ptr[i]);
    std::set_union(p.col_idx.begin() + p.row_ptr[i],
                   p.col_idx.begin() + p.row_ptr[i + 1],
                   cv.row_idx.begin() + cv.col_ptr[i],
                   cv.row_idx.begin() + cv.col_ptr[i + 1],
                   std::back_inserter(nbrs));
    std::erase(nbrs, i);
    degree[i] = nbrs.size();
  }

  std::vector<char> eliminated(n, 0), absorbed(n, 0);
  std::vector<std::size_t> mark(n, 0);  // stamp: member of the current Lp
  constexpr std::size_t kUnset = SparsityPattern::npos;
  std::vector<std::size_t> ext(n, kUnset);  // |Le \ Lp| per touched element
  std::vector<std::size_t> lp, touched;
  SymbolicLu out;
  out.order.reserve(n);
  out.factor_nnz = n;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t piv = kUnset;
    for (std::size_t i = 0; i < n; ++i) {
      if (!eliminated[i] && (piv == kUnset || degree[i] < degree[piv])) {
        piv = i;
      }
    }
    // Lp, the pivot's reach through variable edges and its elements, is
    // its column of L (and row of U): exact, whatever the degrees were.
    lp.clear();
    mark[piv] = step + 1;
    auto take = [&](std::size_t v) {
      if (mark[v] != step + 1) {
        mark[v] = step + 1;
        lp.push_back(v);
      }
    };
    for (std::size_t v : var_adj[piv]) {
      take(v);
    }
    for (std::size_t e : elem_adj[piv]) {
      for (std::size_t v : elem_vars[e]) {
        take(v);
      }
      absorbed[e] = 1;  // folded into the new element
      elem_vars[e] = {};
    }
    eliminated[piv] = 1;
    out.order.push_back(piv);
    out.factor_nnz += 2 * lp.size();
    out.factor_flops += lp.size() * lp.size();
    var_adj[piv] = {};
    elem_adj[piv] = {};
    elem_vars[piv] = lp;

    // Approximate external degrees (Amestoy, Davis & Duff 1996): for
    // each old element e next to Lp, ext[e] = |Le \ Lp|; then d(v) is
    // bounded by its variable edges outside Lp, |Lp| - 1, and the ext of
    // its other elements.
    touched.clear();
    for (std::size_t v : lp) {
      for (std::size_t e : elem_adj[v]) {
        if (absorbed[e]) {
          continue;
        }
        if (ext[e] == kUnset) {
          ext[e] = elem_vars[e].size();
          touched.push_back(e);
        }
        --ext[e];
      }
    }
    const std::size_t others = n - step - 1;  // live variables left
    for (std::size_t v : lp) {
      // Edges inside the new clique are covered by the element.
      std::erase_if(var_adj[v], [&](std::size_t u) {
        return eliminated[u] || mark[u] == step + 1;
      });
      std::erase_if(elem_adj[v], [&](std::size_t e) { return absorbed[e]; });
      std::size_t d = var_adj[v].size() + lp.size() - 1;
      for (std::size_t e : elem_adj[v]) {
        d += ext[e];
      }
      degree[v] = std::min({d, degree[v] + lp.size() - 1, others - 1});
      elem_adj[v].push_back(piv);
    }
    for (std::size_t e : touched) {
      ext[e] = kUnset;
    }
  }
  return out;
}

std::size_t dense_lu_flops(std::size_t n) {
  return n == 0 ? 0 : (n - 1) * n * (2 * n - 1) / 6;
}

CsrMatrix::CsrMatrix(std::shared_ptr<const SparsityPattern> pattern)
    : pattern_(std::move(pattern)) {
  OMX_REQUIRE(pattern_ != nullptr, "CsrMatrix needs a pattern");
  values_.assign(pattern_->nnz(), 0.0);
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  const std::size_t k = pattern_->find(r, c);
  return k == SparsityPattern::npos ? 0.0 : values_[k];
}

void CsrMatrix::set_zero() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

Matrix CsrMatrix::to_dense() const {
  Matrix m(rows(), cols());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = pattern_->row_ptr[r]; k < pattern_->row_ptr[r + 1];
         ++k) {
      m(r, pattern_->col_idx[k]) = values_[k];
    }
  }
  return m;
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::span<double> y) const {
  OMX_REQUIRE(x.size() == cols() && y.size() == rows(), "shape mismatch");
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = pattern_->row_ptr[r]; k < pattern_->row_ptr[r + 1];
         ++k) {
      acc += values_[k] * x[pattern_->col_idx[k]];
    }
    y[r] = acc;
  }
}

SparseLu::SparseLu(std::shared_ptr<const SparsityPattern> pattern,
                   const SymbolicLu& symbolic)
    : n_(pattern->rows),
      pattern_(std::move(pattern)),
      order_(symbolic.order),
      inv_order_(n_),
      diag_(n_),
      src_(n_),
      work_(n_) {
  OMX_REQUIRE(pattern_->rows == pattern_->cols && order_.size() == n_,
              "sparse LU needs a square pattern and a matching ordering");
  for (std::size_t i = 0; i < n_; ++i) {
    inv_order_[order_[i]] = i;
  }
}

SparseLu::SparseLu(const CsrMatrix& a)
    : SparseLu(a.pattern_ptr(), minimum_degree(a.pattern())) {
  factor(a);
}

bool SparseLu::factor(const CsrMatrix& a) {
  OMX_REQUIRE(a.pattern_ptr() == pattern_ || a.pattern() == *pattern_,
              "sparse LU: matrix pattern differs from the analyzed one");
  if (recorded_ && replay(a)) {
    return true;
  }
  const bool fallback = recorded_;
  factor_full(a);
  return !fallback;
}

bool SparseLu::replay(const CsrMatrix& a) {
  constexpr double kMaxMultiplier = 1.0 / kPivotTolerance;
  std::fill(val_.begin(), val_.end(), 0.0);
  std::span<const double> av = a.values();
  for (std::size_t e = 0; e < av.size(); ++e) {
    val_[load_[e]] = av[e];
  }
  const std::uint32_t* upd = upd_.data();
  for (std::size_t k = 0; k < n_; ++k) {
    const double pivot = val_[diag_[k]];
    if (pivot == 0.0) {
      return false;
    }
    const double inv_pivot = 1.0 / pivot;
    const double* u = val_.data() + diag_[k] + 1;
    const std::size_t nu = ptr_[k + 1] - diag_[k] - 1;
    for (std::size_t j = lcol_ptr_[k]; j < lcol_ptr_[k + 1]; ++j, upd += nu) {
      double& l = val_[lcol_[j]];
      const double m = l * inv_pivot;
      if (!(std::fabs(m) <= kMaxMultiplier)) {  // NaN fails too
        return false;
      }
      l = m;
      if (m != 0.0) {  // same skip as dense `if (m != 0.0)`
        for (std::size_t q = 0; q < nu; ++q) {
          val_[upd[q]] -= m * u[q];
        }
      }
    }
  }
  return true;
}

void SparseLu::factor_full(const CsrMatrix& a) {
  recorded_ = false;
  constexpr std::size_t kNone = SparsityPattern::npos;
  const SparsityPattern& p = a.pattern();
  std::span<const double> av = a.values();
  const ColumnView acols = columns(p);

  // Left-looking (Gilbert-Peierls) elimination of B = A(order, order),
  // one column at a time. Rows keep their index r in B; pivoting moves
  // slots, exactly as the dense row swaps do. L and U grow by columns:
  // L(:,j) holds (row r, multiplier), U(:,k) holds (slot j, value).
  std::vector<std::size_t> l_ptr{0}, l_row, u_ptr{0}, u_slot;
  std::vector<double> l_val, u_val, u_diag(n_);
  std::vector<std::size_t> slot_of(n_), row_at(n_), pinv(n_, kNone);
  std::iota(slot_of.begin(), slot_of.end(), 0);
  std::iota(row_at.begin(), row_at.end(), 0);
  std::vector<double> x(n_);
  std::vector<std::size_t> mark(n_, kNone), stack, reach, cand;
  for (std::size_t k = 0; k < n_; ++k) {
    // Structure of column k of L \ B: the pivots it reaches through L's
    // structural pattern (zero multipliers included, so any later matrix
    // fits the recorded pattern) and the unpivoted rows it fills.
    reach.clear();
    cand.clear();
    auto visit = [&](std::size_t r) {
      if (mark[r] == k) {
        return;
      }
      mark[r] = k;
      x[r] = 0.0;
      if (pinv[r] == kNone) {
        cand.push_back(r);
      } else {
        stack.push_back(pinv[r]);
      }
    };
    const std::size_t acol = order_[k];
    for (std::size_t q = acols.col_ptr[acol]; q < acols.col_ptr[acol + 1];
         ++q) {
      visit(inv_order_[acols.row_idx[q]]);
    }
    while (!stack.empty()) {
      const std::size_t j = stack.back();
      stack.pop_back();
      reach.push_back(j);
      for (std::size_t t = l_ptr[j]; t < l_ptr[j + 1]; ++t) {
        visit(l_row[t]);
      }
    }
    for (std::size_t q = acols.col_ptr[acol]; q < acols.col_ptr[acol + 1];
         ++q) {
      x[inv_order_[acols.row_idx[q]]] = av[acols.csr_pos[q]];
    }
    // Each entry takes its updates in ascending pivot order, as the
    // dense right-looking `a -= m * u` does, skipping m == 0 likewise.
    std::sort(reach.begin(), reach.end());
    for (std::size_t j : reach) {
      const double u = x[row_at[j]];
      u_slot.push_back(j);
      u_val.push_back(u);
      for (std::size_t t = l_ptr[j]; t < l_ptr[j + 1]; ++t) {
        if (l_val[t] != 0.0) {
          x[l_row[t]] -= l_val[t] * u;
        }
      }
    }
    u_ptr.push_back(u_slot.size());

    // Partial pivot: the largest |x| over slots >= k, the first slot
    // among ties — the dense strict-`>` scan, where absent entries are
    // exact zeros that never win.
    std::size_t piv = k;
    double best = mark[row_at[k]] == k ? std::fabs(x[row_at[k]]) : 0.0;
    for (std::size_t r : cand) {
      const std::size_t s = slot_of[r];
      const double v = std::fabs(x[r]);
      if (s != k && (v > best || (v == best && s < piv))) {
        best = v;
        piv = s;
      }
    }
    if (best == 0.0) {
      throw omx::Error("sparse LU: matrix is singular at column " +
                       std::to_string(k));
    }
    const std::size_t pr = row_at[piv];
    std::swap(row_at[piv], row_at[k]);
    slot_of[row_at[piv]] = piv;
    slot_of[pr] = k;
    pinv[pr] = k;
    u_diag[k] = x[pr];
    const double inv_pivot = 1.0 / x[pr];
    for (std::size_t r : cand) {
      if (r != pr) {
        l_row.push_back(r);
        l_val.push_back(x[r] * inv_pivot);
      }
    }
    l_ptr.push_back(l_row.size());
  }

  // Flatten to rows in pivot order: L entries by ascending column, then
  // the diagonal, then U by ascending column.
  std::vector<std::size_t> nl(n_, 0), nu(n_, 0);
  for (std::size_t r : l_row) {
    ++nl[slot_of[r]];
  }
  for (std::size_t j : u_slot) {
    ++nu[j];
  }
  ptr_.assign(n_ + 1, 0);
  for (std::size_t s = 0; s < n_; ++s) {
    ptr_[s + 1] = ptr_[s] + nl[s] + 1 + nu[s];
    diag_[s] = ptr_[s] + nl[s];
    src_[s] = order_[row_at[s]];
  }
  col_.resize(ptr_[n_]);
  val_.resize(ptr_[n_]);
  std::vector<std::size_t> lcur(ptr_.begin(), ptr_.end() - 1);
  std::vector<std::size_t> ucur(diag_);
  lcol_ptr_ = l_ptr;
  lcol_.resize(l_row.size());
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t t = l_ptr[k]; t < l_ptr[k + 1]; ++t) {
      const std::size_t q = lcur[slot_of[l_row[t]]]++;
      col_[q] = static_cast<std::uint32_t>(k);
      val_[q] = l_val[t];
      lcol_[t] = q;
    }
    for (std::size_t t = u_ptr[k]; t < u_ptr[k + 1]; ++t) {
      const std::size_t q = ++ucur[u_slot[t]];
      col_[q] = static_cast<std::uint32_t>(k);
      val_[q] = u_val[t];
    }
    col_[diag_[k]] = static_cast<std::uint32_t>(k);
    val_[diag_[k]] = u_diag[k];
  }

  // Replay schedule, row by row through a column -> slot map of the row.
  // Row s holds every column of U row k for each of its multipliers
  // (s, k): that is what the structural elimination guarantees.
  std::vector<std::size_t> upd_at(lcol_.size() + 1, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t t = l_ptr[k]; t < l_ptr[k + 1]; ++t) {
      upd_at[t + 1] = upd_at[t] + (ptr_[k + 1] - diag_[k] - 1);
    }
  }
  std::vector<std::size_t> lidx(ptr_[n_]);
  for (std::size_t t = 0; t < lcol_.size(); ++t) {
    lidx[lcol_[t]] = t;
  }
  upd_.resize(upd_at.back());
  load_.resize(av.size());
  std::vector<std::size_t> pos(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    for (std::size_t q = ptr_[s]; q < ptr_[s + 1]; ++q) {
      pos[col_[q]] = q;
    }
    auto slot_in_row = [&](std::size_t c) {
      const std::size_t q = pos[c];
      OMX_REQUIRE(q >= ptr_[s] && q < ptr_[s + 1] && col_[q] == c,
                  "sparse LU lost a structural entry");
      return q;
    };
    const std::size_t arow = src_[s];
    for (std::size_t e = p.row_ptr[arow]; e < p.row_ptr[arow + 1]; ++e) {
      load_[e] = slot_in_row(inv_order_[p.col_idx[e]]);
    }
    for (std::size_t q = ptr_[s]; q < diag_[s]; ++q) {
      const std::size_t k = col_[q];
      std::size_t w = upd_at[lidx[q]];
      for (std::size_t u = diag_[k] + 1; u < ptr_[k + 1]; ++u) {
        upd_[w++] = static_cast<std::uint32_t>(slot_in_row(col_[u]));
      }
    }
  }
  recorded_ = true;
}

void SparseLu::solve(std::span<const double> b, std::span<double> x) const {
  OMX_REQUIRE(b.size() == n_ && x.size() == n_, "size mismatch");
  // Forward-substitute L (unit diagonal) on the permuted right-hand side,
  // then back-substitute U — entry-for-entry the dense loops with the
  // exact zeros skipped — and undo the symmetric ordering.
  double* w = work_.data();
  for (std::size_t s = 0; s < n_; ++s) {
    double acc = b[src_[s]];
    for (std::size_t q = ptr_[s]; q < diag_[s]; ++q) {
      acc -= val_[q] * w[col_[q]];
    }
    w[s] = acc;
  }
  for (std::size_t s = n_; s-- > 0;) {
    double acc = w[s];
    for (std::size_t q = diag_[s] + 1; q < ptr_[s + 1]; ++q) {
      acc -= val_[q] * w[col_[q]];
    }
    w[s] = acc / val_[diag_[s]];
  }
  for (std::size_t i = 0; i < n_; ++i) {
    x[order_[i]] = w[i];
  }
}

}  // namespace omx::la
