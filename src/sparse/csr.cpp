#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rpcg {

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
                     std::vector<Index> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  RPCG_CHECK(rows >= 0 && cols >= 0, "negative dimensions");
  RPCG_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows) + 1,
             "row_ptr must have rows+1 entries");
  RPCG_CHECK(col_idx_.size() == values_.size(), "col/value size mismatch");
  RPCG_CHECK(row_ptr_.front() == 0 &&
                 row_ptr_.back() == static_cast<Index>(col_idx_.size()),
             "row_ptr bounds invalid");
  for (Index r = 0; r < rows_; ++r) {
    RPCG_CHECK(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr must be nondecreasing");
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      RPCG_CHECK(col_idx_[p] >= 0 && col_idx_[p] < cols_, "column out of range");
      if (p > row_ptr_[r])
        RPCG_CHECK(col_idx_[p - 1] < col_idx_[p],
                   "columns must be sorted and unique within a row");
    }
  }
}

CsrMatrix CsrMatrix::identity(Index n) {
  std::vector<Index> rp(static_cast<std::size_t>(n) + 1);
  std::vector<Index> ci(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n), 1.0);
  for (Index i = 0; i <= n; ++i) rp[static_cast<std::size_t>(i)] = i;
  for (Index i = 0; i < n; ++i) ci[static_cast<std::size_t>(i)] = i;
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(v));
}

std::span<const Index> CsrMatrix::row_cols(Index r) const {
  return {col_idx_.data() + row_ptr_[r],
          static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
}

std::span<const double> CsrMatrix::row_vals(Index r) const {
  return {values_.data() + row_ptr_[r],
          static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
}

double CsrMatrix::value_at(Index r, Index c) const {
  const auto cols = row_cols(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(), c);
  if (it == cols.end() || *it != c) return 0.0;
  return values_[row_ptr_[r] + (it - cols.begin())];
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  RPCG_CHECK(static_cast<Index>(x.size()) == cols_ &&
                 static_cast<Index>(y.size()) == rows_,
             "spmv size mismatch");
  for (Index r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p)
      acc += values_[p] * x[static_cast<std::size_t>(col_idx_[p])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

void CsrMatrix::spmv_add(std::span<const double> x, std::span<double> y) const {
  RPCG_CHECK(static_cast<Index>(x.size()) == cols_ &&
                 static_cast<Index>(y.size()) == rows_,
             "spmv_add size mismatch");
  for (Index r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p)
      acc += values_[p] * x[static_cast<std::size_t>(col_idx_[p])];
    y[static_cast<std::size_t>(r)] += acc;
  }
}

CsrMatrix CsrMatrix::submatrix(std::span<const Index> rows,
                               std::span<const Index> cols) const {
  RPCG_CHECK(std::is_sorted(rows.begin(), rows.end()), "rows must be sorted");
  RPCG_CHECK(std::is_sorted(cols.begin(), cols.end()), "cols must be sorted");
  for (const Index r : rows)
    RPCG_CHECK(r >= 0 && r < rows_, "row index out of range");
  // Row r keeps its entries whose column is in `cols`, renumbered to their
  // position there. Both lists are sorted, so a row is merged against
  // `cols`; a contiguous `cols` (every node block) is one range of the row
  // instead. A repeated column keeps only its first position.
  bool contiguous = true;
  for (std::size_t j = 0; j < cols.size() && contiguous; ++j)
    contiguous = cols[j] == cols.front() + static_cast<Index>(j);
  const Index lo = cols.empty() ? 0 : cols.front();
  const Index hi = cols.empty() ? 0 : cols.back() + 1;
  // Calls keep(position in the row, position in cols) per kept entry.
  const auto for_each_kept = [&](Index r, auto&& keep) {
    const auto rc = row_cols(r);
    auto it = std::lower_bound(rc.begin(), rc.end(), lo);
    const auto end = std::lower_bound(it, rc.end(), hi);
    if (contiguous) {
      for (; it != end; ++it) keep(it - rc.begin(), *it - lo);
      return;
    }
    auto cj = cols.begin();
    for (; it != end; ++it) {
      cj = std::lower_bound(cj, cols.end(), *it);
      if (cj != cols.end() && *cj == *it) keep(it - rc.begin(), cj - cols.begin());
    }
  };

  std::vector<Index> rp(rows.size() + 1, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Index kept = 0;
    for_each_kept(rows[i], [&kept](std::ptrdiff_t, std::ptrdiff_t) { ++kept; });
    rp[i + 1] = rp[i] + kept;
  }
  std::vector<Index> ci(static_cast<std::size_t>(rp.back()));
  std::vector<double> v(ci.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* rv = row_vals(rows[i]).data();
    auto out = static_cast<std::size_t>(rp[i]);
    for_each_kept(rows[i], [&](std::ptrdiff_t p, std::ptrdiff_t j) {
      ci[out] = static_cast<Index>(j);
      v[out++] = rv[p];
    });
  }
  return CsrMatrix(static_cast<Index>(rows.size()),
                   static_cast<Index>(cols.size()), std::move(rp), std::move(ci),
                   std::move(v));
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<Index> rp(static_cast<std::size_t>(cols_) + 2, 0);
  for (const Index c : col_idx_) ++rp[static_cast<std::size_t>(c) + 2];
  for (std::size_t i = 2; i < rp.size(); ++i) rp[i] += rp[i - 1];
  std::vector<Index> ci(col_idx_.size());
  std::vector<double> v(values_.size());
  for (Index r = 0; r < rows_; ++r) {
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const Index dst = rp[static_cast<std::size_t>(col_idx_[p]) + 1]++;
      ci[static_cast<std::size_t>(dst)] = r;
      v[static_cast<std::size_t>(dst)] = values_[p];
    }
  }
  rp.pop_back();
  return CsrMatrix(cols_, rows_, std::move(rp), std::move(ci), std::move(v));
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  const CsrMatrix t = transpose();
  for (Index r = 0; r < rows_; ++r) {
    const auto rc = row_cols(r);
    const auto rv = row_vals(r);
    for (std::size_t p = 0; p < rc.size(); ++p) {
      if (std::abs(rv[p] - t.value_at(r, rc[p])) > tol) return false;
    }
    // Entries present in the transpose but absent here must be ~0.
    const auto tc = t.row_cols(r);
    const auto tv = t.row_vals(r);
    for (std::size_t p = 0; p < tc.size(); ++p) {
      if (value_at(r, tc[p]) == 0.0 && std::abs(tv[p]) > tol) return false;
    }
  }
  return true;
}

Index CsrMatrix::bandwidth() const {
  Index bw = 0;
  for (Index r = 0; r < rows_; ++r)
    for (const Index c : row_cols(r)) bw = std::max(bw, std::abs(r - c));
  return bw;
}

CsrMatrix CsrMatrix::permuted_symmetric(std::span<const Index> perm) const {
  RPCG_CHECK(rows_ == cols_, "symmetric permutation needs a square matrix");
  RPCG_CHECK(static_cast<Index>(perm.size()) == rows_, "permutation size mismatch");
  std::vector<Index> inv(static_cast<std::size_t>(rows_), -1);
  for (Index i = 0; i < rows_; ++i) {
    const Index old = perm[static_cast<std::size_t>(i)];
    RPCG_CHECK(old >= 0 && old < rows_ && inv[static_cast<std::size_t>(old)] == -1,
               "perm is not a permutation");
    inv[static_cast<std::size_t>(old)] = i;
  }
  std::vector<Index> rp;
  rp.reserve(static_cast<std::size_t>(rows_) + 1);
  rp.push_back(0);
  std::vector<Index> ci;
  ci.reserve(col_idx_.size());
  std::vector<double> v;
  v.reserve(values_.size());
  std::vector<std::pair<Index, double>> entries;
  for (Index i = 0; i < rows_; ++i) {
    const Index old = perm[static_cast<std::size_t>(i)];
    entries.clear();
    const auto rc = row_cols(old);
    const auto rv = row_vals(old);
    for (std::size_t p = 0; p < rc.size(); ++p)
      entries.emplace_back(inv[static_cast<std::size_t>(rc[p])], rv[p]);
    std::sort(entries.begin(), entries.end());
    for (const auto& [c, val] : entries) {
      ci.push_back(c);
      v.push_back(val);
    }
    rp.push_back(static_cast<Index>(ci.size()));
  }
  return CsrMatrix(rows_, cols_, std::move(rp), std::move(ci), std::move(v));
}

SymmetricPattern symmetric_pattern(const CsrMatrix& a) {
  RPCG_CHECK(a.rows() == a.cols(), "orderings need a square matrix");
  const Index n = a.rows();
  const auto nu = static_cast<std::size_t>(n);
  SymmetricPattern g;
  g.diagonal.assign(nu, 0);
  // The rows that list column i, ascending: a counting transpose of the
  // off-diagonal pattern.
  std::vector<Index> tp(nu + 1, 0);
  for (Index r = 0; r < n; ++r) {
    for (const Index c : a.row_cols(r)) {
      if (c == r)
        g.diagonal[static_cast<std::size_t>(r)] = 1;
      else
        ++tp[static_cast<std::size_t>(c) + 1];
    }
  }
  for (std::size_t i = 0; i < nu; ++i) tp[i + 1] += tp[i];
  std::vector<Index> ti(static_cast<std::size_t>(tp[nu]));
  {
    std::vector<Index> next(tp.begin(), tp.end() - 1);
    for (Index r = 0; r < n; ++r)
      for (const Index c : a.row_cols(r))
        if (c != r) ti[static_cast<std::size_t>(next[static_cast<std::size_t>(c)]++)] = r;
  }
  // Row i's neighbours: its own off-diagonal columns merged with the rows
  // that list it, each once. Counted first, then written.
  const auto merge = [&](Index i, auto&& emit) {
    const auto own = a.row_cols(i);
    auto x = own.begin();
    const Index* y = ti.data() + tp[static_cast<std::size_t>(i)];
    const Index* const y_end = ti.data() + tp[static_cast<std::size_t>(i) + 1];
    while (x != own.end() || y != y_end) {
      if (x != own.end() && *x == i) {
        ++x;
        continue;
      }
      Index c;
      if (y == y_end || (x != own.end() && *x < *y)) {
        c = *x++;
      } else {
        c = *y++;
        if (x != own.end() && *x == c) ++x;
      }
      emit(c);
    }
  };
  g.ptr.assign(nu + 1, 0);
  for (Index i = 0; i < n; ++i) {
    Index len = 0;
    merge(i, [&len](Index) { ++len; });
    g.ptr[static_cast<std::size_t>(i) + 1] = g.ptr[static_cast<std::size_t>(i)] + len;
  }
  g.adj.resize(static_cast<std::size_t>(g.ptr[nu]));
  for (Index i = 0; i < n; ++i) {
    Index* out = g.adj.data() + g.ptr[static_cast<std::size_t>(i)];
    merge(i, [&out](Index c) { *out++ = c; });
  }
  return g;
}

}  // namespace rpcg
