// Dense explicit basis inverse for the revised simplex.
//
// The time-indexed instances have many columns but only (#jobs + #grid
// points) rows, so an m×m dense inverse (m typically a few hundred) with
// O(m²) product-form updates and periodic refactorization is simple, fast
// enough, and numerically transparent. Refactorization pivots the unit
// columns (slacks, artificials) first: they need no elimination, so a basis
// of mostly slacks — every crash basis, and most bases a branch & bound
// node inherits — factorizes in about O(m²) instead of O(m³).
//
// The inverse can also leave with the basis it belongs to (release()) and
// come back in a later solve of the same columns (adopt()), which then
// skips the factorization: a branch & bound child starts from the inverse
// its parent's solve ended with, updates and refresh count included.
#pragma once

#include <functional>
#include <vector>

namespace dynsched::lp {

class DenseBasis {
 public:
  explicit DenseBasis(int m);

  int size() const { return m_; }

  /// Rebuilds the inverse from scratch. `writeColumn(k, col)` must fill
  /// `col` (size m, pre-zeroed) with the k-th basis column. Gauss-Jordan
  /// elimination pivots every column with a single nonzero on that row
  /// first, then the other columns with partial pivoting over the rows still
  /// free. Returns false if the basis matrix is numerically singular.
  bool factorize(
      const std::function<void(int, std::vector<double>&)>& writeColumn);

  /// rhs := B^{-1} rhs (forward transformation). Not reentrant: uses the
  /// basis's scratch buffer, so concurrent calls on one DenseBasis race
  /// (each simplex owns its basis, so this never happens in-tree).
  void ftran(std::vector<double>& rhs) const;

  /// rhs := B^{-T} rhs (backward transformation). Same reentrancy caveat
  /// as ftran().
  void btran(std::vector<double>& rhs) const;

  /// Product-form update after a pivot: basis column `pos` is replaced by
  /// the column whose FTRAN image is `alpha` (so alpha = B^{-1} a_enter).
  /// Requires |alpha[pos]| to be safely nonzero.
  void update(const std::vector<double>& alpha, int pos);

  /// Pivots applied since the last factorize() (or carried in by adopt()).
  int updatesSinceFactorize() const { return updates_; }

  /// Installs an inverse an earlier basis of the same columns ended with,
  /// instead of factorizing: `inverse` is its B^{-1} (row-major m×m, rows in
  /// basis order) and `updates` the pivots applied to it since it was last
  /// factorized.
  void adopt(std::vector<double> inverse, int updates);

  /// Moves the inverse out (for adopt() in a later solve). The basis holds
  /// no inverse afterwards: only factorize() or adopt() make it usable.
  std::vector<double> release();

 private:
  /// Gauss-Jordan step of factorize(): scales row `pr` of [B | inverse] so
  /// column `k` holds 1 there and clears column `k` from every other row.
  void eliminate(std::size_t k, std::size_t pr);

  int m_;
  std::vector<double> inv_;  ///< row-major m×m
  // Reused work buffers: ftran/btran run once per simplex iteration and
  // factorize every few dozen pivots, so per-call vectors would dominate
  // the solver's allocation count.
  mutable std::vector<double> scratch_;   ///< ftran/btran output row
  /// Nonzero positions of the vector or row at hand (ftran, update,
  /// eliminate), so the inner loops touch only those.
  mutable std::vector<std::size_t> nonzeros_;
  std::vector<std::size_t> matNonzeros_;  ///< eliminate: pivot row of B
  std::vector<double> factorMat_;         ///< factorize: row-major B
  std::vector<double> factorCol_;         ///< factorize: one basis column
  std::vector<double> factorOrdered_;     ///< factorize: permuted inverse
  std::vector<int> pivotRow_;      ///< factorize: per column, its pivot row
  std::vector<int> singletonRow_;  ///< factorize: per column, the row of its
                                   ///< only nonzero, or -1
  std::vector<char> rowPivoted_;   ///< factorize: per row, pivoted yet
  int updates_ = 0;
};

}  // namespace dynsched::lp
