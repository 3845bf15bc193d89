#include "dynsched/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dynsched/lp/basis.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"

namespace dynsched::lp {

const char* lpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterationLimit: return "iteration-limit";
    case LpStatus::NumericalFailure: return "numerical-failure";
    case LpStatus::Cancelled: return "cancelled";
  }
  return "?";
}

namespace {

constexpr long kMaxIterations = 200000;   ///< then LpStatus::IterationLimit
constexpr double kFeasibilityTol = 1e-7;  ///< bound violation tolerance
constexpr double kOptimalityTol = 1e-7;   ///< reduced-cost tolerance
constexpr double kPivotTol = 1e-8;        ///< smallest acceptable |pivot|
constexpr int kRefactorInterval = 120;    ///< pivots between refactorizations
constexpr int kBlandThreshold = 60;  ///< degenerate pivots before Bland's rule
/// Dual re-solve stall guard (its anti-cycling rule): after this many
/// consecutive dual pivots that each raise the objective by at most
/// kStallRelTol of its magnitude, the start basis is given up and the model
/// solved cold.
constexpr int kDualStallLimit = 100;
constexpr double kStallRelTol = 1e-9;

/// Bounded-variable simplex: a primal two-phase solve from a crash basis,
/// or a dual re-solve from a given basis.
///
/// Variable layout: [0, n) structural, [n, n+m) row slacks with the
/// convention A x − s = 0 (slack column −e_r, bounds = row bounds),
/// [n+m, n+m+m) one artificial per row. Artificials have column ±e_r signed
/// so their initial basic value is non-negative; phase 1 minimizes their sum
/// with every basis primal feasible, so a single standard ratio test serves
/// both phases (no piecewise-linear composite machinery, which can stall at
/// coordinate-stationary points). The dual re-solve keeps every artificial
/// nonbasic at zero.
class Simplex {
 public:
  Simplex(const LpModel& model, util::CancelToken* cancel)
      : model_(model),
        cancel_(cancel),
        n_(model.numVariables()),
        m_(model.numRows()),
        total_(n_ + 2 * model.numRows()),
        basis_(std::max(1, model.numRows())) {}

  /// `movableInverse`, when not null, is `start->inverse`, which the solve
  /// may move out instead of copying.
  LpSolution solve(const LpBasis* start, std::vector<double>* movableInverse);

 private:
  bool isSlack(int var) const { return var >= n_ && var < n_ + m_; }
  bool isArtificial(int var) const { return var >= n_ + m_; }
  int rowOf(int var) const {
    return isSlack(var) ? var - n_ : var - n_ - m_;
  }

  double lower(int var) const {
    if (var < n_) return model_.columnLower(var);
    if (isSlack(var)) return model_.rowLower(rowOf(var));
    return artificialLb_[static_cast<std::size_t>(rowOf(var))];
  }
  double upper(int var) const {
    if (var < n_) return model_.columnUpper(var);
    if (isSlack(var)) return model_.rowUpper(rowOf(var));
    return artificialUb_[static_cast<std::size_t>(rowOf(var))];
  }
  double cost(int var, bool phase1) const {
    if (phase1) return isArtificial(var) ? 1.0 : 0.0;
    return var < n_ ? model_.objectiveCoef(var) : 0.0;
  }

  /// Writes the dense constraint column of `var` into `out` (pre-zeroed).
  void writeColumn(int var, std::vector<double>& out) const {
    if (var < n_) {
      for (const ColumnEntry& e : model_.column(var)) {
        out[static_cast<std::size_t>(e.row)] += e.value;
      }
    } else if (isSlack(var)) {
      out[static_cast<std::size_t>(rowOf(var))] -= 1.0;
    } else {
      const int r = rowOf(var);
      out[static_cast<std::size_t>(r)] +=
          artificialSign_[static_cast<std::size_t>(r)];
    }
  }

  double dotColumn(int var, const std::vector<double>& y) const {
    if (var < n_) {
      double sum = 0;
      for (const ColumnEntry& e : model_.column(var)) {
        sum += y[static_cast<std::size_t>(e.row)] * e.value;
      }
      return sum;
    }
    if (isSlack(var)) return -y[static_cast<std::size_t>(rowOf(var))];
    const int r = rowOf(var);
    return y[static_cast<std::size_t>(r)] *
           artificialSign_[static_cast<std::size_t>(r)];
  }

  /// Nonbasic and not fixed: the dual ratio test may pick it. (Fixed
  /// variables never enter; their reduced cost may take either sign.)
  bool canEnter(int var) const {
    return status_[static_cast<std::size_t>(var)] != VarStatus::Basic &&
           lower(var) != upper(var);
  }

  double nonbasicValue(int var) const {
    switch (status_[static_cast<std::size_t>(var)]) {
      case VarStatus::AtLower: return lower(var);
      case VarStatus::AtUpper: return upper(var);
      case VarStatus::Free: return 0.0;
      case VarStatus::Basic: break;
    }
    DYNSCHED_CHECK(false);
  }

  bool refactorize();
  void computeBasicValues();
  double phaseObjective(bool phase1) const;

  /// Two-phase primal simplex from a crash basis.
  void solveCold(LpSolution& result);
  /// Makes `start` the current basis (see solveLp), with its inverse when
  /// that still fits, else refactorized. False when it does not fit the
  /// model or is singular.
  bool installBasis(const LpBasis& start, std::vector<double>* movableInverse);
  /// y = B^{-T} c_B and the reduced cost of every nonbasic non-artificial
  /// variable into reducedCost_. False when one has the wrong sign for the
  /// bound its variable sits at, beyond kOptimalityTol.
  bool priceDualFeasible();
  /// Dual simplex from the installed basis. True when `result.status` is
  /// final; false when the start cannot be used and the caller must solve
  /// cold.
  bool dualResolve(LpSolution& result);
  /// Fills an Optimal result from the current basis and moves the inverse
  /// into it; the basis is unusable afterwards.
  void extractOptimal(LpSolution& result);

  const LpModel& model_;
  util::CancelToken* cancel_;
  int n_, m_, total_;
  DenseBasis basis_;

  std::vector<VarStatus> status_;
  std::vector<int> basisVars_;
  std::vector<double> xBasic_;
  std::vector<double> rhsScratch_;  ///< computeBasicValues work buffer
  std::vector<double> artificialSign_;  ///< per row: +1 / −1
  std::vector<double> artificialLb_, artificialUb_;
  // Per-pivot work buffers, sized once per solve.
  std::vector<double> y_;            ///< pricing vector B^{-T} c_B
  std::vector<double> alpha_;        ///< entering column B^{-1} a_q
  std::vector<double> rho_;          ///< dual: leaving row of B^{-1}
  std::vector<double> pivotRow_;     ///< dual: rho·a_j per variable
  std::vector<double> reducedCost_;  ///< dual: d_j per variable
  long refactorCount_ = 0;
};

bool Simplex::refactorize() {
  ++refactorCount_;
  return basis_.factorize([this](int k, std::vector<double>& col) {
    writeColumn(basisVars_[static_cast<std::size_t>(k)], col);
  });
}

void Simplex::computeBasicValues() {
  // b = 0, so xB = −B^{-1} · Σ_{nonbasic j} A_j x_j. The rhs buffer is a
  // member: this runs at every refactorization, so a per-call vector would
  // show up in the allocation gate.
  std::vector<double>& rhs = rhsScratch_;
  rhs.assign(static_cast<std::size_t>(m_), 0.0);
  for (int var = 0; var < total_; ++var) {
    if (status_[static_cast<std::size_t>(var)] == VarStatus::Basic) continue;
    const double value = nonbasicValue(var);
    if (value == 0.0) continue;
    if (var < n_) {
      for (const ColumnEntry& e : model_.column(var)) {
        rhs[static_cast<std::size_t>(e.row)] -= e.value * value;
      }
    } else if (isSlack(var)) {
      rhs[static_cast<std::size_t>(rowOf(var))] += value;
    } else {
      const int r = rowOf(var);
      rhs[static_cast<std::size_t>(r)] -=
          artificialSign_[static_cast<std::size_t>(r)] * value;
    }
  }
  basis_.ftran(rhs);
  xBasic_ = rhs;
}

double Simplex::phaseObjective(bool phase1) const {
  double total = 0;
  for (int i = 0; i < m_; ++i) {
    total += cost(basisVars_[static_cast<std::size_t>(i)], phase1) *
             xBasic_[static_cast<std::size_t>(i)];
  }
  if (!phase1) {
    for (int var = 0; var < n_; ++var) {
      if (status_[static_cast<std::size_t>(var)] != VarStatus::Basic) {
        total += cost(var, false) * nonbasicValue(var);
      }
    }
  }
  return total;
}

LpSolution Simplex::solve(const LpBasis* start,
                          std::vector<double>* movableInverse) {
  LpSolution result;
  if (cancel_ != nullptr && cancel_->injectLpFailure()) {
    // Deterministic fault injection: this solve "fails numerically".
    result.status = LpStatus::NumericalFailure;
    return result;
  }
  if (m_ == 0) {
    // No constraints: every variable sits at its cheaper bound.
    result.x.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const double c = model_.objectiveCoef(j);
      const double l = model_.columnLower(j), u = model_.columnUpper(j);
      double v;
      if (c > 0) {
        v = l;
      } else if (c < 0) {
        v = u;
      } else {
        v = (l > -kInf) ? l : std::min(u, 0.0);
      }
      if (v <= -kInf || v >= kInf) {
        result.status = LpStatus::Unbounded;
        return result;
      }
      result.x[static_cast<std::size_t>(j)] = v;
    }
    result.status = LpStatus::Optimal;
    result.objective = model_.objectiveValue(result.x);
    return result;
  }

  const std::size_t m = static_cast<std::size_t>(m_);
  y_.assign(m, 0.0);
  alpha_.assign(m, 0.0);
  if (start != nullptr) {
    if (installBasis(*start, movableInverse) && dualResolve(result)) {
      result.refactorizations = refactorCount_;
      return result;
    }
    result.coldFallback = true;
  }
  solveCold(result);
  result.refactorizations = refactorCount_;
  return result;
}

bool Simplex::installBasis(const LpBasis& start,
                           std::vector<double>* movableInverse) {
  const std::size_t rowsThen = start.basic.size();
  if (start.columns() != n_ || rowsThen > static_cast<std::size_t>(m_)) {
    return false;
  }
  const std::size_t m = static_cast<std::size_t>(m_);
  // Artificials stay nonbasic and fixed at zero.
  artificialSign_.assign(m, 1.0);
  artificialLb_.assign(m, 0.0);
  artificialUb_.assign(m, 0.0);
  status_.assign(static_cast<std::size_t>(total_), VarStatus::AtLower);
  std::copy(start.status.begin(), start.status.end(), status_.begin());
  basisVars_.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    if (r < rowsThen) {
      const int var = start.basic[r];
      if (var < 0 || var >= n_ + static_cast<int>(rowsThen) ||
          status_[static_cast<std::size_t>(var)] != VarStatus::Basic) {
        return false;
      }
      basisVars_[r] = var;
    } else {
      // A row appended since the basis was taken: its slack is basic.
      const int slackVar = n_ + static_cast<int>(r);
      basisVars_[r] = slackVar;
      status_[static_cast<std::size_t>(slackVar)] = VarStatus::Basic;
    }
  }
  int basics = 0;
  for (int var = 0; var < n_ + m_; ++var) {
    VarStatus& st = status_[static_cast<std::size_t>(var)];
    if (st == VarStatus::Basic) {
      ++basics;
      continue;
    }
    // Bounds may have moved since: a nonbasic whose recorded bound is now
    // infinite sits at its finite one, or is free.
    const double l = lower(var), u = upper(var);
    const bool fits = (st == VarStatus::AtLower && l > -kInf) ||
                      (st == VarStatus::AtUpper && u < kInf) ||
                      (st == VarStatus::Free && l <= -kInf && u >= kInf);
    if (!fits) {
      st = l > -kInf   ? VarStatus::AtLower
           : u < kInf ? VarStatus::AtUpper
                      : VarStatus::Free;
    }
  }
  if (basics != m_) return false;
  // The start's inverse still fits unless rows were appended since or its
  // periodic refresh is due.
  if (rowsThen == m && start.inverse.size() == m * m &&
      start.updates < kRefactorInterval) {
    if (movableInverse != nullptr) {
      basis_.adopt(std::move(*movableInverse), start.updates);
    } else {
      basis_.adopt(start.inverse, start.updates);
    }
  } else if (!refactorize()) {
    return false;
  }
  computeBasicValues();
  return true;
}

bool Simplex::priceDualFeasible() {
  for (int i = 0; i < m_; ++i) {
    y_[static_cast<std::size_t>(i)] =
        cost(basisVars_[static_cast<std::size_t>(i)], /*phase1=*/false);
  }
  basis_.btran(y_);
  for (int var = 0; var < n_ + m_; ++var) {
    const VarStatus st = status_[static_cast<std::size_t>(var)];
    double& d = reducedCost_[static_cast<std::size_t>(var)];
    if (st == VarStatus::Basic) {
      d = 0.0;
      continue;
    }
    d = cost(var, false) - dotColumn(var, y_);
    if (lower(var) == upper(var)) continue;  // fixed: either sign is fine
    if ((st != VarStatus::AtUpper && d < -kOptimalityTol) ||
        (st != VarStatus::AtLower && d > kOptimalityTol)) {
      return false;
    }
  }
  return true;
}

bool Simplex::dualResolve(LpSolution& result) {
  const std::size_t m = static_cast<std::size_t>(m_);
  const std::size_t structAndSlack = static_cast<std::size_t>(n_ + m_);
  rho_.assign(m, 0.0);
  pivotRow_.assign(structAndSlack, 0.0);
  reducedCost_.assign(structAndSlack, 0.0);
  if (!priceDualFeasible()) return false;
  // The dual objective (= c·x of the current basic solution) only rises,
  // by t·(violation) per pivot; see kDualStallLimit.
  double dualObjective = phaseObjective(false);
  int stallRun = 0;

  for (long iter = result.iterations;; ++iter) {
    if (iter >= kMaxIterations) {
      result.status = LpStatus::IterationLimit;
      return true;
    }
    result.iterations = iter;
    if (stallRun > kDualStallLimit) return false;
    if (cancel_ != nullptr && cancel_->onLpIteration()) {
      result.status = LpStatus::Cancelled;
      return true;
    }
    if (basis_.updatesSinceFactorize() >= kRefactorInterval) {
      if (!refactorize()) return false;
      computeBasicValues();
      if (!priceDualFeasible()) return false;
    }

    // Leaving row: the basic variable with the largest bound violation. It
    // leaves at the bound it violates.
    int leavingPos = -1;
    double worst = kFeasibilityTol;
    double target = 0;
    bool toLower = true;
    for (std::size_t i = 0; i < m; ++i) {
      const int var = basisVars_[i];
      const double v = xBasic_[i];
      const double below = lower(var) - v, above = v - upper(var);
      if (below > worst) {
        worst = below;
        leavingPos = static_cast<int>(i);
        target = lower(var);
        toLower = true;
      } else if (above > worst) {
        worst = above;
        leavingPos = static_cast<int>(i);
        target = upper(var);
        toLower = false;
      }
    }
    if (leavingPos < 0) {
      extractOptimal(result);
      return true;
    }
    const std::size_t r = static_cast<std::size_t>(leavingPos);

    // Pivot row: rho = B^{-T} e_r, entry rho·a_j for every nonbasic column.
    // Once the leaving variable is nonbasic its reduced cost is −θ, so the
    // dual step θ is ≤ 0 when it leaves at its lower bound and ≥ 0 at its
    // upper; sigma folds both cases into one ratio test.
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[r] = 1.0;
    basis_.btran(rho_);
    const double sigma = toLower ? 1.0 : -1.0;
    // Harris two-pass ratio test. A nonbasic blocks when the step drives
    // its reduced cost toward the wrong sign: `slack` is how far it is from
    // that sign, `rate` how fast the step closes the distance. Pass 1 finds
    // the largest step no blocker overshoots by more than kOptimalityTol;
    // pass 2 takes the largest |pivot| among the blockers within it.
    const auto blocker = [&](int var, double& slack, double& rate) {
      const double a = pivotRow_[static_cast<std::size_t>(var)];
      const double d = reducedCost_[static_cast<std::size_t>(var)];
      const VarStatus st = status_[static_cast<std::size_t>(var)];
      if (st == VarStatus::AtLower ||
          (st == VarStatus::Free && sigma * a < 0)) {
        rate = -sigma * a;
        slack = d;
      } else {
        rate = sigma * a;
        slack = -d;
      }
      return rate > kPivotTol;
    };
    double stepBound = kInf;
    for (int var = 0; var < n_ + m_; ++var) {
      if (!canEnter(var)) continue;
      pivotRow_[static_cast<std::size_t>(var)] = dotColumn(var, rho_);
      double slack, rate;
      if (!blocker(var, slack, rate)) continue;
      stepBound = std::min(stepBound, (slack + kOptimalityTol) / rate);
    }
    int entering = -1;
    double enterSlack = 0, enterRate = 0;
    for (int var = 0; var < n_ + m_; ++var) {
      double slack, rate;
      if (!canEnter(var) || !blocker(var, slack, rate) ||
          slack / rate > stepBound) {
        continue;
      }
      if (entering < 0 || rate > enterRate) {
        entering = var;
        enterSlack = slack;
        enterRate = rate;
      }
    }
    if (entering < 0) {
      // No column can restore row r: the dual is unbounded along rho, so
      // the primal is infeasible.
      result.status = LpStatus::Infeasible;
      return true;
    }

    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    writeColumn(entering, alpha_);
    basis_.ftran(alpha_);
    if (std::fabs(alpha_[r]) < kPivotTol) return false;

    // Primal step: the entering variable moves until the leaving one sits
    // at its target bound.
    const double delta = (xBasic_[r] - target) / alpha_[r];
    for (std::size_t i = 0; i < m; ++i) {
      const double a = alpha_[i];
      if (a != 0.0) xBasic_[i] -= a * delta;
    }
    xBasic_[r] = nonbasicValue(entering) + delta;

    // Dual step θ = −sigma·t, with t clamped at 0 where Harris picked a
    // reduced cost already inside the tolerance on the wrong side.
    const double t = std::max(0.0, enterSlack / enterRate);
    const double theta = -sigma * t;
    for (int var = 0; var < n_ + m_; ++var) {
      if (!canEnter(var)) continue;
      reducedCost_[static_cast<std::size_t>(var)] -=
          theta * pivotRow_[static_cast<std::size_t>(var)];
    }
    const int leavingVar = basisVars_[r];
    reducedCost_[static_cast<std::size_t>(entering)] = 0.0;
    reducedCost_[static_cast<std::size_t>(leavingVar)] = -theta;
    basisVars_[r] = entering;
    status_[static_cast<std::size_t>(entering)] = VarStatus::Basic;
    status_[static_cast<std::size_t>(leavingVar)] =
        toLower ? VarStatus::AtLower : VarStatus::AtUpper;
    basis_.update(alpha_, leavingPos);

    const double gain = t * worst;
    dualObjective += gain;
    stallRun = gain <= kStallRelTol * std::max(1.0, std::fabs(dualObjective))
                   ? stallRun + 1
                   : 0;
  }
}

void Simplex::extractOptimal(LpSolution& result) {
  std::vector<double> x(static_cast<std::size_t>(total_), 0.0);
  for (int var = 0; var < total_; ++var) {
    if (status_[static_cast<std::size_t>(var)] != VarStatus::Basic) {
      x[static_cast<std::size_t>(var)] = nonbasicValue(var);
    }
  }
  for (int i = 0; i < m_; ++i) {
    x[static_cast<std::size_t>(basisVars_[static_cast<std::size_t>(i)])] =
        xBasic_[static_cast<std::size_t>(i)];
  }
  result.x.assign(x.begin(), x.begin() + n_);
  // Slack values equal the row activities (A x − s = 0), but recompute
  // activities from x so tiny basic drift cannot desynchronize them.
  result.rowActivity = model_.rowActivity(result.x);
  result.objective = model_.objectiveValue(result.x);

  for (int i = 0; i < m_; ++i) {
    y_[static_cast<std::size_t>(i)] =
        cost(basisVars_[static_cast<std::size_t>(i)], /*phase1=*/false);
  }
  basis_.btran(y_);
  result.duals = y_;
  result.status = LpStatus::Optimal;

  // A basis with an artificial still basic (at zero) is not handed on.
  const bool artificialBasic =
      std::any_of(basisVars_.begin(), basisVars_.end(),
                  [this](int var) { return isArtificial(var); });
  if (!artificialBasic) {
    result.basis.basic = basisVars_;
    result.basis.status.assign(status_.begin(), status_.begin() + n_ + m_);
    result.basis.updates = basis_.updatesSinceFactorize();
    result.basis.inverse = basis_.release();
  }
}

void Simplex::solveCold(LpSolution& result) {
  // --- Crash basis ------------------------------------------------------
  // Structural variables start at a finite bound (or free at 0). For each
  // row, if the resulting activity fits the row bounds, the slack itself is
  // basic and feasible; otherwise the slack sits at its nearest bound and a
  // signed artificial carries the (non-negative) residual.
  status_.assign(static_cast<std::size_t>(total_), VarStatus::AtLower);
  for (int j = 0; j < n_; ++j) {
    if (model_.columnLower(j) > -kInf) {
      status_[static_cast<std::size_t>(j)] = VarStatus::AtLower;
    } else if (model_.columnUpper(j) < kInf) {
      status_[static_cast<std::size_t>(j)] = VarStatus::AtUpper;
    } else {
      status_[static_cast<std::size_t>(j)] = VarStatus::Free;
    }
  }
  std::vector<double> activity(static_cast<std::size_t>(m_), 0.0);
  for (int j = 0; j < n_; ++j) {
    const double v = status_[static_cast<std::size_t>(j)] == VarStatus::Free
                         ? 0.0
                         : nonbasicValue(j);
    if (v == 0.0) continue;
    for (const ColumnEntry& e : model_.column(j)) {
      activity[static_cast<std::size_t>(e.row)] += e.value * v;
    }
  }
  basisVars_.resize(static_cast<std::size_t>(m_));
  artificialSign_.assign(static_cast<std::size_t>(m_), 1.0);
  artificialLb_.assign(static_cast<std::size_t>(m_), 0.0);
  artificialUb_.assign(static_cast<std::size_t>(m_), 0.0);
  bool needPhase1 = false;
  for (int r = 0; r < m_; ++r) {
    const std::size_t sr = static_cast<std::size_t>(r);
    const int slackVar = n_ + r;
    const int artVar = n_ + m_ + r;
    const double act = activity[sr];
    const double lb = model_.rowLower(r), ub = model_.rowUpper(r);
    if (act >= lb && act <= ub) {
      basisVars_[sr] = slackVar;
      status_[static_cast<std::size_t>(slackVar)] = VarStatus::Basic;
      status_[static_cast<std::size_t>(artVar)] = VarStatus::AtLower;
      // artificial stays fixed at 0
    } else {
      // Slack pinned to its nearest bound; artificial absorbs the residual.
      const double pin = act < lb ? lb : ub;
      status_[static_cast<std::size_t>(slackVar)] =
          act < lb ? VarStatus::AtLower : VarStatus::AtUpper;
      // Row equation: A x − s ± a = 0  =>  a = ∓(A x − s) = ∓(act − pin).
      const double residual = act - pin;
      artificialSign_[sr] = residual > 0 ? -1.0 : 1.0;
      artificialUb_[sr] = kInf;
      basisVars_[sr] = artVar;
      status_[static_cast<std::size_t>(artVar)] = VarStatus::Basic;
      needPhase1 = true;
    }
  }
  if (!refactorize()) {
    result.status = LpStatus::NumericalFailure;
    return;
  }
  computeBasicValues();

  std::vector<double>& y = y_;
  std::vector<double>& alpha = alpha_;
  int degenerateRun = 0;
  bool bland = false;
  bool phase1 = needPhase1;
  bool hitIterationLimit = true;

  for (long iter = result.iterations; iter < kMaxIterations; ++iter) {
    result.iterations = iter;
    if (cancel_ != nullptr && cancel_->onLpIteration()) {
      result.status = LpStatus::Cancelled;
      return;
    }
    if (basis_.updatesSinceFactorize() >= kRefactorInterval) {
      if (!refactorize()) {
        result.status = LpStatus::NumericalFailure;
        return;
      }
      computeBasicValues();
    }

    // Phase transition: all artificial mass driven to ~0.
    if (phase1 && phaseObjective(true) <= kFeasibilityTol) {
      phase1 = false;
      // Freeze artificials at zero so they can never re-enter.
      for (int r = 0; r < m_; ++r) artificialUb_[static_cast<std::size_t>(r)] = 0.0;
      degenerateRun = 0;
      bland = false;
    }

    // Pricing vector y = B^{-T} c_B for the current phase's costs.
    for (int i = 0; i < m_; ++i) {
      y[static_cast<std::size_t>(i)] =
          cost(basisVars_[static_cast<std::size_t>(i)], phase1);
    }
    basis_.btran(y);

    int entering = -1;
    int enterDir = 0;
    double bestScore = kOptimalityTol;
    for (int var = 0; var < total_; ++var) {
      const VarStatus st = status_[static_cast<std::size_t>(var)];
      if (st == VarStatus::Basic) continue;
      if (isArtificial(var)) continue;  // artificials never re-enter
      const double l = lower(var), u = upper(var);
      if (l == u) continue;  // fixed variables never enter
      const double rc = cost(var, phase1) - dotColumn(var, y);
      int dir = 0;
      if ((st == VarStatus::AtLower || st == VarStatus::Free) &&
          rc < -kOptimalityTol) {
        dir = +1;
      } else if ((st == VarStatus::AtUpper || st == VarStatus::Free) &&
                 rc > kOptimalityTol) {
        dir = -1;
      }
      if (dir == 0) continue;
      if (bland) {
        entering = var;
        enterDir = dir;
        break;
      }
      const double score = std::fabs(rc);
      if (score > bestScore) {
        bestScore = score;
        entering = var;
        enterDir = dir;
      }
    }

    if (entering < 0) {
      if (phase1) {
        // Phase-1 optimum with residual artificial mass: infeasible.
        result.status = phaseObjective(true) > kFeasibilityTol
                            ? LpStatus::Infeasible
                            : LpStatus::Optimal;
        if (result.status == LpStatus::Infeasible) return;
        // Degenerate corner: feasible but phase flag not yet flipped.
        phase1 = false;
        for (int r = 0; r < m_; ++r)
          artificialUb_[static_cast<std::size_t>(r)] = 0.0;
        continue;
      }
      hitIterationLimit = false;
      break;  // optimal
    }

    std::fill(alpha.begin(), alpha.end(), 0.0);
    writeColumn(entering, alpha);
    basis_.ftran(alpha);

    // Ratio test: all basics are feasible; each blocks at the bound it
    // approaches. delta_i = −enterDir·α_i is the basic's change per unit t.
    double tMax = kInf;
    int leavingPos = -1;
    double leavingTarget = 0;
    double bestPivotMag = 0;
    for (int i = 0; i < m_; ++i) {
      const double a = alpha[static_cast<std::size_t>(i)];
      if (std::fabs(a) < kPivotTol) continue;
      const double delta = -static_cast<double>(enterDir) * a;
      const int var = basisVars_[static_cast<std::size_t>(i)];
      const double v = xBasic_[static_cast<std::size_t>(i)];
      double target;
      if (delta > 0) {
        target = upper(var);
        if (target >= kInf) continue;
      } else {
        target = lower(var);
        if (target <= -kInf) continue;
      }
      const double ratio = std::max(0.0, (target - v) / delta);
      const double mag = std::fabs(a);
      // Ties: Bland's rule needs the smallest variable index to leave
      // (anti-cycling requires BOTH the entering and leaving rule); outside
      // Bland mode prefer the largest pivot for numerical stability.
      bool take = ratio < tMax - 1e-12;
      if (!take && ratio < tMax + 1e-12 && leavingPos >= 0) {
        take = bland
                   ? var < basisVars_[static_cast<std::size_t>(leavingPos)]
                   : mag > bestPivotMag;
      }
      if (take) {
        tMax = ratio;
        leavingPos = i;
        leavingTarget = target;
        bestPivotMag = mag;
      }
    }

    // Bound flip of the entering variable itself.
    const bool flipPossible =
        lower(entering) > -kInf && upper(entering) < kInf;
    const double span = upper(entering) - lower(entering);
    if (flipPossible && span < tMax) {
      for (int i = 0; i < m_; ++i) {
        const double a = alpha[static_cast<std::size_t>(i)];
        if (a == 0.0) continue;
        xBasic_[static_cast<std::size_t>(i)] -=
            static_cast<double>(enterDir) * a * span;
      }
      status_[static_cast<std::size_t>(entering)] =
          enterDir > 0 ? VarStatus::AtUpper : VarStatus::AtLower;
      degenerateRun = 0;
      bland = false;
      continue;
    }

    if (leavingPos < 0) {
      // No blocking basic and no bound flip: a ray. In phase 1 the
      // objective (Σ artificials ≥ 0) is bounded, so a ray means numerics.
      result.status =
          phase1 ? LpStatus::NumericalFailure : LpStatus::Unbounded;
      return;
    }

    const double t = tMax;
    for (int i = 0; i < m_; ++i) {
      const double a = alpha[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      xBasic_[static_cast<std::size_t>(i)] -=
          static_cast<double>(enterDir) * a * t;
    }
    const int leavingVar = basisVars_[static_cast<std::size_t>(leavingPos)];
    const double enterStart = nonbasicValue(entering);
    xBasic_[static_cast<std::size_t>(leavingPos)] =
        enterStart + static_cast<double>(enterDir) * t;
    basisVars_[static_cast<std::size_t>(leavingPos)] = entering;
    status_[static_cast<std::size_t>(entering)] = VarStatus::Basic;
    status_[static_cast<std::size_t>(leavingVar)] =
        (leavingTarget == lower(leavingVar)) ? VarStatus::AtLower
                                             : VarStatus::AtUpper;
    basis_.update(alpha, leavingPos);

    if (t < 1e-10) {
      if (++degenerateRun > kBlandThreshold) bland = true;
    } else {
      degenerateRun = 0;
      bland = false;
    }
  }

  if (hitIterationLimit) {
    result.status = LpStatus::IterationLimit;
    return;
  }

  // Optimal: refactorize once more for clean values and duals.
  if (!refactorize()) {
    result.status = LpStatus::NumericalFailure;
    return;
  }
  computeBasicValues();
  extractOptimal(result);
}

}  // namespace

LpSolution solveLp(const LpModel& model, util::CancelToken* cancel,
                   const LpBasis* start) {
  Simplex solver(model, cancel);
  return solver.solve(start, nullptr);
}

LpSolution solveLp(const LpModel& model, util::CancelToken* cancel,
                   LpBasis&& start) {
  Simplex solver(model, cancel);
  return solver.solve(&start, &start.inverse);
}

}  // namespace dynsched::lp
