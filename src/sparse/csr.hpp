// Compressed sparse row (CSR) matrix — the storage format used for the system
// matrix A, the preconditioner blocks, and all submatrices arising during
// exact state reconstruction (A_{If,If}, A_{If,I\If}, ...).
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace rpcg {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of fully-formed CSR arrays. Column indices within each
  /// row must be sorted and unique; this is validated.
  CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
            std::vector<Index> col_idx, std::vector<double> values);

  [[nodiscard]] static CsrMatrix identity(Index n);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] Index nnz() const { return static_cast<Index>(col_idx_.size()); }

  [[nodiscard]] std::span<const Index> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const Index> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  [[nodiscard]] std::span<double> mutable_values() { return values_; }

  /// Column indices / values of row r.
  [[nodiscard]] std::span<const Index> row_cols(Index r) const;
  [[nodiscard]] std::span<const double> row_vals(Index r) const;

  /// Value at (r, c); 0.0 when the entry is not stored. Binary search.
  [[nodiscard]] double value_at(Index r, Index c) const;

  /// y = A x. Sizes must match.
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// y += A x.
  void spmv_add(std::span<const double> x, std::span<double> y) const;

  /// Extracts the submatrix with the given global rows and columns (both
  /// sorted ascending). Entry (i, j) of the result is A(rows[i], cols[j]).
  [[nodiscard]] CsrMatrix submatrix(std::span<const Index> rows,
                                    std::span<const Index> cols) const;

  [[nodiscard]] CsrMatrix transpose() const;

  /// True when the matrix equals its transpose to within tol (absolute,
  /// entrywise). Pattern asymmetry with zero values counts as symmetric.
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// Maximum |r - c| over stored entries (matrix bandwidth).
  [[nodiscard]] Index bandwidth() const;

  /// Applies the symmetric permutation B = P A Pᵀ where row i of B is row
  /// perm[i] of A (perm is the new-to-old ordering).
  [[nodiscard]] CsrMatrix permuted_symmetric(std::span<const Index> perm) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<double> values_;
};

/// The pattern of A + Aᵀ without its diagonal: the graph the fill- and
/// bandwidth-reducing orderings walk. Row i's neighbours are sorted and
/// unique; `diagonal[i]` says whether A stores (i, i).
struct SymmetricPattern {
  std::vector<Index> ptr;  // rows + 1 offsets into adj
  std::vector<Index> adj;
  std::vector<char> diagonal;

  [[nodiscard]] Index rows() const {
    return static_cast<Index>(ptr.size()) - 1;
  }
  [[nodiscard]] std::span<const Index> neighbours(Index i) const {
    return {adj.data() + ptr[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(ptr[static_cast<std::size_t>(i) + 1] -
                                     ptr[static_cast<std::size_t>(i)])};
  }
};

/// Builds the symmetrized pattern of a square matrix: each row's sorted
/// off-diagonal columns merged with the rows that list it.
[[nodiscard]] SymmetricPattern symmetric_pattern(const CsrMatrix& a);

}  // namespace rpcg
