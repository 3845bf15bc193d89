// Direct DenseBasis tests: factorization, FTRAN/BTRAN, product-form
// updates, singular detection — validated against hand matrices and a
// random-matrix property (B · ftran(e_i) = e_i), also for bases that mix
// unit (slack) columns with dense ones, which factorize unit-first.
#include <cmath>

#include <gtest/gtest.h>

#include "dynsched/lp/basis.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::lp {
namespace {

/// Dense matrix-vector product helper (row-major m×m).
std::vector<double> multiply(const std::vector<double>& mat,
                             const std::vector<double>& v) {
  const std::size_t m = v.size();
  std::vector<double> out(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) out[i] += mat[i * m + j] * v[j];
  }
  return out;
}

TEST(DenseBasis, IdentityFactorization) {
  DenseBasis basis(3);
  ASSERT_TRUE(basis.factorize([](int k, std::vector<double>& col) {
    col[static_cast<std::size_t>(k)] = 1.0;
  }));
  std::vector<double> v{1.0, -2.0, 3.5};
  std::vector<double> f = v;
  basis.ftran(f);
  EXPECT_EQ(f, v);
  basis.btran(f);
  EXPECT_EQ(f, v);
}

TEST(DenseBasis, NegatedIdentity) {
  // The slack basis of the simplex: B = −I.
  DenseBasis basis(2);
  ASSERT_TRUE(basis.factorize([](int k, std::vector<double>& col) {
    col[static_cast<std::size_t>(k)] = -1.0;
  }));
  std::vector<double> v{4.0, -6.0};
  basis.ftran(v);
  EXPECT_DOUBLE_EQ(v[0], -4.0);
  EXPECT_DOUBLE_EQ(v[1], 6.0);
}

TEST(DenseBasis, KnownTwoByTwoInverse) {
  // B = [[2, 1], [1, 1]], B^{-1} = [[1, -1], [-1, 2]].
  const std::vector<double> columns = {2, 1, 1, 1};  // column-major pairs
  DenseBasis basis(2);
  ASSERT_TRUE(basis.factorize([&](int k, std::vector<double>& col) {
    col[0] = columns[static_cast<std::size_t>(2 * k)];
    col[1] = columns[static_cast<std::size_t>(2 * k + 1)];
  }));
  std::vector<double> e0{1.0, 0.0};
  basis.ftran(e0);  // first column of B^{-1}
  EXPECT_NEAR(e0[0], 1.0, 1e-12);
  EXPECT_NEAR(e0[1], -1.0, 1e-12);
  std::vector<double> e1{0.0, 1.0};
  basis.btran(e1);  // second row of B^{-1} (via transpose)
  EXPECT_NEAR(e1[0], -1.0, 1e-12);
  EXPECT_NEAR(e1[1], 2.0, 1e-12);
}

TEST(DenseBasis, DetectsSingularMatrix) {
  DenseBasis basis(2);
  EXPECT_FALSE(basis.factorize([](int k, std::vector<double>& col) {
    col[0] = static_cast<double>(k + 1);  // second column = 2x first
    col[1] = static_cast<double>(k + 1);
  }));
}

TEST(DenseBasis, UpdateMatchesRefactorization) {
  // Replace one basis column via update() and compare FTRAN against a
  // from-scratch factorization of the new matrix.
  util::Rng rng(99);
  const int m = 6;
  std::vector<double> cols(static_cast<std::size_t>(m * m));
  for (double& v : cols) v = rng.uniform(-2, 2);
  for (int i = 0; i < m; ++i) {
    cols[static_cast<std::size_t>(i * m + i)] += 4.0;  // well-conditioned
  }
  const auto writer = [&cols, m](int k, std::vector<double>& col) {
    for (int i = 0; i < m; ++i) {
      col[static_cast<std::size_t>(i)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  };
  DenseBasis updated(m);
  ASSERT_TRUE(updated.factorize(writer));

  // New column to enter at position 2.
  std::vector<double> enter(static_cast<std::size_t>(m));
  for (double& v : enter) v = rng.uniform(-3, 3);
  enter[2] += 5.0;
  std::vector<double> alpha = enter;
  updated.ftran(alpha);  // B^{-1} a
  updated.update(alpha, 2);
  EXPECT_EQ(updated.updatesSinceFactorize(), 1);

  for (int i = 0; i < m; ++i) {
    cols[static_cast<std::size_t>(2 * m + i)] =
        enter[static_cast<std::size_t>(i)];
  }
  DenseBasis fresh(m);
  ASSERT_TRUE(fresh.factorize(writer));

  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (double& v : rhs) v = rng.uniform(-1, 1);
  std::vector<double> a = rhs, b = rhs;
  updated.ftran(a);
  fresh.ftran(b);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(a[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i)], 1e-9);
  }
}

class BasisRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BasisRandomTest, FtranInvertsTheMatrix) {
  util::Rng rng(GetParam());
  const int m = static_cast<int>(rng.uniformInt(1, 20));
  std::vector<double> cols(static_cast<std::size_t>(m * m));
  for (double& v : cols) v = rng.uniform(-2, 2);
  for (int i = 0; i < m; ++i) {
    cols[static_cast<std::size_t>(i * m + i)] +=
        (rng.bernoulli(0.5) ? 5.0 : -5.0);  // diagonal dominance
  }
  DenseBasis basis(m);
  ASSERT_TRUE(basis.factorize([&](int k, std::vector<double>& col) {
    for (int i = 0; i < m; ++i) {
      col[static_cast<std::size_t>(i)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  }));
  // Row-major B for the check (cols is column-major).
  std::vector<double> rowMajor(static_cast<std::size_t>(m * m));
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      rowMajor[static_cast<std::size_t>(i * m + k)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  }
  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (double& v : rhs) v = rng.uniform(-4, 4);
  std::vector<double> x = rhs;
  basis.ftran(x);  // x = B^{-1} rhs
  const std::vector<double> back = multiply(rowMajor, x);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)],
                rhs[static_cast<std::size_t>(i)], 1e-8)
        << "seed " << GetParam() << " m " << m;
  }
  // BTRAN solves the transposed system.
  std::vector<double> y = rhs;
  basis.btran(y);  // y = B^{-T} rhs
  std::vector<double> backT(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      backT[static_cast<std::size_t>(j)] +=
          rowMajor[static_cast<std::size_t>(i * m + j)] *
          y[static_cast<std::size_t>(i)];
    }
  }
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(backT[static_cast<std::size_t>(i)],
                rhs[static_cast<std::size_t>(i)], 1e-8);
  }
}

/// A random column-major m×m basis whose columns are ±e_r (a slack or an
/// artificial) or dense, in random order. Each column owns a distinct home
/// row: a unit column is that row's unit vector, a dense one is diagonally
/// dominant there, so the matrix is nonsingular.
std::vector<double> mixedBasis(util::Rng& rng, int m) {
  std::vector<int> home(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) home[static_cast<std::size_t>(k)] = k;
  for (int k = m - 1; k > 0; --k) {
    std::swap(home[static_cast<std::size_t>(k)],
              home[static_cast<std::size_t>(rng.uniformInt(0, k))]);
  }
  std::vector<double> cols(static_cast<std::size_t>(m * m), 0.0);
  for (int k = 0; k < m; ++k) {
    const int row = home[static_cast<std::size_t>(k)];
    double* col = &cols[static_cast<std::size_t>(k * m)];
    if (rng.bernoulli(0.6)) {
      col[row] = rng.bernoulli(0.5) ? 1.0 : -1.0;
      continue;
    }
    for (int i = 0; i < m; ++i) {
      if (rng.bernoulli(0.4)) col[i] = rng.uniform(-1, 1);
    }
    col[row] = (rng.bernoulli(0.5) ? 1.0 : -1.0) * (2.0 + m);
  }
  return cols;
}

bool factorizeColumns(DenseBasis& basis, const std::vector<double>& cols) {
  const int m = basis.size();
  return basis.factorize([&](int k, std::vector<double>& col) {
    for (int i = 0; i < m; ++i) {
      col[static_cast<std::size_t>(i)] =
          cols[static_cast<std::size_t>(k * m + i)];
    }
  });
}

TEST_P(BasisRandomTest, UnitColumnsAmongDenseOnesInvert) {
  util::Rng rng(GetParam());
  const int m = static_cast<int>(rng.uniformInt(2, 24));
  const std::vector<double> cols = mixedBasis(rng, m);
  DenseBasis basis(m);
  ASSERT_TRUE(factorizeColumns(basis, cols));
  // B · B^{-1} = I, one column of B^{-1} (= ftran(e_j)) at a time.
  for (int j = 0; j < m; ++j) {
    std::vector<double> inverseColumn(static_cast<std::size_t>(m), 0.0);
    inverseColumn[static_cast<std::size_t>(j)] = 1.0;
    basis.ftran(inverseColumn);
    for (int i = 0; i < m; ++i) {
      double product = 0;
      for (int k = 0; k < m; ++k) {
        product += cols[static_cast<std::size_t>(k * m + i)] *
                   inverseColumn[static_cast<std::size_t>(k)];
      }
      EXPECT_NEAR(product, i == j ? 1.0 : 0.0, 1e-9)
          << "seed " << GetParam() << " m " << m << " (" << i << ", " << j
          << ")";
    }
  }
}

TEST_P(BasisRandomTest, SingularMixedBasisIsDetected) {
  util::Rng rng(GetParam());
  const int m = static_cast<int>(rng.uniformInt(3, 24));
  std::vector<double> cols = mixedBasis(rng, m);
  // Two unit columns on one row.
  std::vector<double> twoOnOneRow = cols;
  for (int i = 0; i < m; ++i) {
    twoOnOneRow[static_cast<std::size_t>(i)] = i == 1 ? 1.0 : 0.0;
    twoOnOneRow[static_cast<std::size_t>(m + i)] = i == 1 ? -1.0 : 0.0;
  }
  DenseBasis basis(m);
  EXPECT_FALSE(factorizeColumns(basis, twoOnOneRow)) << "seed " << GetParam();
  // A dense column that is a combination of two others.
  std::vector<double> combination = cols;
  for (int i = 0; i < m; ++i) {
    combination[static_cast<std::size_t>(2 * m + i)] =
        2.0 * cols[static_cast<std::size_t>(i)] -
        0.5 * cols[static_cast<std::size_t>(m + i)];
  }
  EXPECT_FALSE(factorizeColumns(basis, combination)) << "seed " << GetParam();
  // The same basis object still factorizes a good basis afterwards.
  EXPECT_TRUE(factorizeColumns(basis, cols));
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, BasisRandomTest,
                         ::testing::Range<std::uint64_t>(5000, 5020));

}  // namespace
}  // namespace dynsched::lp
