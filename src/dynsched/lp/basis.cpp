#include "dynsched/lp/basis.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "dynsched/util/error.hpp"

namespace dynsched::lp {

DenseBasis::DenseBasis(int m) : m_(m) {
  DYNSCHED_CHECK(m > 0);
  nonzeros_.reserve(static_cast<std::size_t>(m_));
  matNonzeros_.reserve(static_cast<std::size_t>(m_));
}

void DenseBasis::adopt(std::vector<double> inverse, int updates) {
  DYNSCHED_CHECK(inverse.size() == static_cast<std::size_t>(m_) *
                                       static_cast<std::size_t>(m_));
  inv_ = std::move(inverse);
  updates_ = updates;
}

std::vector<double> DenseBasis::release() {
  std::vector<double> inverse;
  inverse.swap(inv_);
  return inverse;
}

bool DenseBasis::factorize(
    const std::function<void(int, std::vector<double>&)>& writeColumn) {
  const std::size_t m = static_cast<std::size_t>(m_);
  // Build B column by column, then run Gauss-Jordan on the augmented
  // [B | I], leaving B^{-1} in place of I. The work buffers are members:
  // assign() reuses their capacity on refactorizations.
  std::vector<double>& mat = factorMat_;  // row-major B
  mat.assign(m * m, 0.0);
  std::vector<double>& col = factorCol_;
  col.assign(m, 0.0);
  singletonRow_.assign(m, -1);
  for (std::size_t k = 0; k < m; ++k) {
    std::fill(col.begin(), col.end(), 0.0);
    writeColumn(static_cast<int>(k), col);
    int nonzeros = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (col[i] == 0.0) continue;
      mat[i * m + k] = col[i];
      if (++nonzeros == 1) singletonRow_[k] = static_cast<int>(i);
    }
    if (nonzeros != 1) singletonRow_[k] = -1;
  }
  inv_.assign(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) inv_[i * m + i] = 1.0;
  pivotRow_.assign(m, -1);
  rowPivoted_.assign(m, 0);

  // Unit columns first: pivoting one only scales its row, so these create
  // no fill-in and cost O(m) each. A second unit column on a row already
  // taken waits for the general pass, which then reports the singularity.
  for (std::size_t k = 0; k < m; ++k) {
    const int row = singletonRow_[k];
    if (row < 0 || rowPivoted_[static_cast<std::size_t>(row)] != 0) continue;
    const std::size_t pr = static_cast<std::size_t>(row);
    if (std::fabs(mat[pr * m + k]) < 1e-11) return false;  // singular
    eliminate(k, pr);
    pivotRow_[k] = row;
    rowPivoted_[pr] = 1;
  }
  // The other columns, with partial pivoting: the largest |entry| among
  // the rows not pivoted yet.
  for (std::size_t k = 0; k < m; ++k) {
    if (pivotRow_[k] >= 0) continue;
    std::size_t pr = m;
    double best = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (rowPivoted_[i] != 0) continue;
      const double v = std::fabs(mat[i * m + k]);
      if (pr == m || v > best) {
        best = v;
        pr = i;
      }
    }
    if (pr == m || best < 1e-11) return false;  // singular
    eliminate(k, pr);
    pivotRow_[k] = static_cast<int>(pr);
    rowPivoted_[pr] = 1;
  }
  // Row pivotRow_[k] of the eliminated [B | I] holds row k of B^{-1}
  // (B became a row permutation of I). Gather the rows in order.
  factorOrdered_.resize(m * m);
  for (std::size_t k = 0; k < m; ++k) {
    std::memcpy(&factorOrdered_[k * m],
                &inv_[static_cast<std::size_t>(pivotRow_[k]) * m],
                m * sizeof(double));
  }
  inv_.swap(factorOrdered_);
  updates_ = 0;
  return true;
}

void DenseBasis::eliminate(std::size_t k, std::size_t pr) {
  const std::size_t m = static_cast<std::size_t>(m_);
  double* pivotMat = &factorMat_[pr * m];
  double* pivotInv = &inv_[pr * m];
  const double invPivot = 1.0 / pivotMat[k];
  // Scale the pivot row and list its nonzeros: the row operations below
  // skip the zeros, which leaves every result unchanged.
  matNonzeros_.clear();
  nonzeros_.clear();
  for (std::size_t j = 0; j < m; ++j) {
    if (pivotMat[j] != 0.0) {
      pivotMat[j] *= invPivot;
      matNonzeros_.push_back(j);
    }
    if (pivotInv[j] != 0.0) {
      pivotInv[j] *= invPivot;
      nonzeros_.push_back(j);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (i == pr) continue;
    const double factor = factorMat_[i * m + k];
    if (factor == 0.0) continue;
    double* matRow = &factorMat_[i * m];
    double* invRow = &inv_[i * m];
    for (const std::size_t j : matNonzeros_) matRow[j] -= factor * pivotMat[j];
    for (const std::size_t j : nonzeros_) invRow[j] -= factor * pivotInv[j];
  }
}

void DenseBasis::ftran(std::vector<double>& rhs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(rhs.size() == m);
  // An entering column has a handful of nonzeros: sum over those only
  // (skipping zero terms leaves every sum unchanged).
  nonzeros_.clear();
  for (std::size_t j = 0; j < m; ++j) {
    if (rhs[j] != 0.0) nonzeros_.push_back(j);
  }
  // Swap-with-scratch instead of a fresh vector: after the swap both
  // buffers stay size m, so steady-state ftran allocates nothing.
  scratch_.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = &inv_[i * m];
    double sum = 0;
    for (const std::size_t j : nonzeros_) sum += row[j] * rhs[j];
    scratch_[i] = sum;
  }
  rhs.swap(scratch_);
}

void DenseBasis::btran(std::vector<double>& rhs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(rhs.size() == m);
  scratch_.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double v = rhs[i];
    if (v == 0.0) continue;
    const double* row = &inv_[i * m];
    for (std::size_t j = 0; j < m; ++j) scratch_[j] += row[j] * v;
  }
  rhs.swap(scratch_);
}

void DenseBasis::update(const std::vector<double>& alpha, int pos) {
  const std::size_t m = static_cast<std::size_t>(m_);
  DYNSCHED_CHECK(alpha.size() == m);
  const std::size_t p = static_cast<std::size_t>(pos);
  const double pivot = alpha[p];
  DYNSCHED_CHECK_MSG(std::fabs(pivot) > 1e-12, "pivot too small in update");
  const double invPivot = 1.0 / pivot;
  // E = I except column p: E[i][p] = -alpha_i/alpha_p, E[p][p] = 1/alpha_p.
  // inv := E * inv — row p is scaled, every other row gets a multiple of it.
  double* pivotRow = &inv_[p * m];
  nonzeros_.clear();
  for (std::size_t j = 0; j < m; ++j) {
    if (pivotRow[j] == 0.0) continue;
    pivotRow[j] *= invPivot;
    nonzeros_.push_back(j);
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (i == p) continue;
    const double factor = alpha[i];
    if (factor == 0.0) continue;
    double* row = &inv_[i * m];
    for (const std::size_t j : nonzeros_) row[j] -= factor * pivotRow[j];
  }
  ++updates_;
}

}  // namespace dynsched::lp
