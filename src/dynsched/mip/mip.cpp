#include "dynsched/mip/mip.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "dynsched/lp/simplex.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::mip {

int MipModel::addIntegerVariable(double lb, double ub, double objective,
                                 std::string name) {
  const int col = lp.addVariable(lb, ub, objective, std::move(name));
  integer.resize(static_cast<std::size_t>(lp.numVariables()), false);
  integer[static_cast<std::size_t>(col)] = true;
  return col;
}

const char* mipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::Optimal: return "optimal";
    case MipStatus::FeasibleLimit: return "feasible-limit";
    case MipStatus::Infeasible: return "infeasible";
    case MipStatus::NoSolutionLimit: return "no-solution-limit";
    case MipStatus::Error: return "error";
  }
  return "?";
}

bool mipStatusFromIndex(std::uint8_t index, MipStatus& status) {
  if (index >= static_cast<std::uint8_t>(kMipStatuses)) return false;
  status = static_cast<MipStatus>(index);
  return true;
}

double MipResult::gap() const {
  if (!hasSolution()) return lp::kInf;
  const double denom = std::max(1.0, std::fabs(objective));
  return std::max(0.0, (objective - bestBound) / denom);
}

namespace {

struct BoundChange {
  int var;
  double lb;
  double ub;
};

/// A node's start basis: its parent's optimal basis, shared by both
/// children. Null makes the node LP solve cold.
using SharedBasis = std::shared_ptr<lp::LpBasis>;

/// Bytes of basis inverses that one solve may keep parked in its open
/// nodes' bases. An inverse costs 8·m² bytes (0.2–0.7 MB at the pinned
/// scenario's 161–301 rows); past the budget a branched node hands its
/// children the basis without it, and they refactorize. A constant of the
/// solve, so whether a child adopts its parent's inverse depends on that
/// solve's inputs alone.
constexpr std::size_t kParkedInverseBytes = std::size_t{24} << 20;

std::size_t inverseBytes(const lp::LpBasis& basis) {
  return basis.inverse.size() * sizeof(double);
}

struct Node {
  long id = 0;
  double bound = -lp::kInf;            ///< parent LP objective (lower bound)
  std::vector<BoundChange> changes;    ///< path from root
  SharedBasis basis;                   ///< parent's optimal basis
};

struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    // Best-first: smallest bound on top; FIFO on ties for determinism.
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id > b.id;
  }
};

class BranchAndBound {
 public:
  BranchAndBound(const MipModel& model, const MipOptions& options)
      : model_(model), opts_(options), work_(model.lp) {
    DYNSCHED_CHECK(model_.integer.size() ==
                   static_cast<std::size_t>(model_.lp.numVariables()));
    colGroup_.assign(static_cast<std::size_t>(model_.lp.numVariables()), -1);
    for (std::size_t g = 0; g < opts_.branchGroups.size(); ++g) {
      for (const int col : opts_.branchGroups[g]) {
        DYNSCHED_CHECK(col >= 0 && col < model_.lp.numVariables());
        DYNSCHED_CHECK_MSG(colGroup_[static_cast<std::size_t>(col)] < 0,
                           "column " << col << " in two branch groups");
        colGroup_[static_cast<std::size_t>(col)] = static_cast<int>(g);
      }
    }
  }

  MipResult run();

 private:
  bool isIntegerFeasible(const std::vector<double>& x) const;
  /// Rounds near-integer components of a candidate and validates it.
  bool tryIncumbent(std::vector<double> x, const char* source);
  int pickBranchVariable(const std::vector<double>& x) const;
  double tightenBound(double bound) const;
  /// Separates violated cover cuts from the *original* rows against the
  /// fractional point `x`, appending them to work_ (globally valid rows).
  int separateCoverCuts(const std::vector<double>& x);
  /// Hands a node's optimal basis on to its children; null when the LP left
  /// an artificial basic (lp::LpSolution::basis is then empty). The inverse
  /// goes along while it fits the parked budget.
  SharedBasis shareBasis(lp::LpBasis&& basis);
  /// Solves the LP of a popped node from its start basis. The last node
  /// holding a basis takes its inverse; an earlier sibling copies it.
  lp::LpSolution solveNode(Node& node);

  const MipModel& model_;
  const MipOptions& opts_;
  lp::LpModel work_;  ///< working copy whose bounds are rewritten per node
  std::vector<int> colGroup_;  ///< per column: branch-group index or -1
  int cutRoundsUsed_ = 0;
  /// Bytes of the inverses held by open nodes' bases (kParkedInverseBytes).
  std::size_t parkedBytes_ = 0;

  MipResult result_;
  bool haveIncumbent_ = false;
  util::WallTimer timer_;
};

bool BranchAndBound::isIntegerFeasible(const std::vector<double>& x) const {
  for (int j = 0; j < model_.lp.numVariables(); ++j) {
    if (!model_.integer[static_cast<std::size_t>(j)]) continue;
    const double v = x[static_cast<std::size_t>(j)];
    if (std::fabs(v - std::round(v)) > kIntegralityTol) return false;
  }
  return true;
}

bool BranchAndBound::tryIncumbent(std::vector<double> x, const char* source) {
  if (static_cast<int>(x.size()) != model_.lp.numVariables()) return false;
  for (int j = 0; j < model_.lp.numVariables(); ++j) {
    if (model_.integer[static_cast<std::size_t>(j)]) {
      x[static_cast<std::size_t>(j)] =
          std::round(x[static_cast<std::size_t>(j)]);
    }
  }
  if (!model_.lp.isFeasible(x, 1e-6)) return false;
  const double objective = model_.lp.objectiveValue(x);
  if (haveIncumbent_ && objective >= result_.objective - 1e-12) return false;
  result_.objective = objective;
  result_.x = std::move(x);
  haveIncumbent_ = true;
  DYNSCHED_LOG(Debug) << "new incumbent " << objective << " from " << source;
  return true;
}

int BranchAndBound::pickBranchVariable(const std::vector<double>& x) const {
  // Most fractional; ties by larger objective coefficient, then index.
  int best = -1;
  double bestScore = kIntegralityTol;
  double bestCoef = -lp::kInf;
  for (int j = 0; j < model_.lp.numVariables(); ++j) {
    if (!model_.integer[static_cast<std::size_t>(j)]) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double score = std::min(frac, 1.0 - frac);
    if (score <= kIntegralityTol) continue;
    const double coef = std::fabs(model_.lp.objectiveCoef(j));
    if (score > bestScore + 1e-12 ||
        (score > bestScore - 1e-12 && coef > bestCoef)) {
      bestScore = score;
      bestCoef = coef;
      best = j;
    }
  }
  return best;
}

int BranchAndBound::separateCoverCuts(const std::vector<double>& x) {
  // Row-wise view of the original matrix (columns store it column-wise).
  const int originalRows = model_.lp.numRows();
  std::vector<std::vector<std::pair<int, double>>> rows(
      static_cast<std::size_t>(originalRows));
  for (int j = 0; j < model_.lp.numVariables(); ++j) {
    for (const lp::ColumnEntry& e : model_.lp.column(j)) {
      rows[static_cast<std::size_t>(e.row)].emplace_back(j, e.value);
    }
  }
  int added = 0;
  // Per-row scratch, hoisted so the separation loop reuses capacity.
  std::vector<std::pair<int, double>> sorted;
  std::vector<int> cover;
  std::vector<std::pair<int, double>> entries;
  for (int r = 0; r < originalRows && added < kMaxCoverCutsPerRound; ++r) {
    // Separation is O(rows · columns); on big time-indexed models it must
    // observe the shared budget too, not only the node loop.
    if (opts_.cancel != nullptr && opts_.cancel->poll()) break;
    // Candidate: pure <= row over binary columns with positive weights.
    if (model_.lp.rowLower(r) > -lp::kInf) continue;
    const double capacity = model_.lp.rowUpper(r);
    if (capacity >= lp::kInf) continue;
    bool eligible = true;
    for (const auto& [col, weight] : rows[static_cast<std::size_t>(r)]) {
      if (weight <= 0 || !model_.integer[static_cast<std::size_t>(col)] ||
          model_.lp.columnLower(col) != 0.0 ||
          model_.lp.columnUpper(col) != 1.0) {
        eligible = false;
        break;
      }
    }
    if (!eligible || rows[static_cast<std::size_t>(r)].empty()) continue;

    // Greedy cover: take columns by descending fractional value until the
    // weight exceeds the capacity.
    sorted.assign(rows[static_cast<std::size_t>(r)].begin(),
                  rows[static_cast<std::size_t>(r)].end());
    std::sort(sorted.begin(), sorted.end(),
              [&x](const auto& a, const auto& b) {
                return x[static_cast<std::size_t>(a.first)] >
                       x[static_cast<std::size_t>(b.first)];
              });
    double weight = 0, fracSum = 0;
    cover.clear();
    cover.reserve(sorted.size());
    for (const auto& [col, w] : sorted) {
      if (x[static_cast<std::size_t>(col)] <= 1e-9) break;
      cover.push_back(col);
      weight += w;
      fracSum += x[static_cast<std::size_t>(col)];
      if (weight > capacity + 1e-9) break;
    }
    if (weight <= capacity + 1e-9 || cover.size() < 2) continue;
    const double rhs = static_cast<double>(cover.size()) - 1.0;
    if (fracSum <= rhs + 1e-6) continue;  // not violated

    entries.clear();
    entries.reserve(cover.size());
    for (const int col : cover) entries.emplace_back(col, 1.0);
    work_.addRow(-lp::kInf, rhs, entries);
    ++added;
  }
  return added;
}

SharedBasis BranchAndBound::shareBasis(lp::LpBasis&& basis) {
  if (basis.basic.empty()) return nullptr;
  if (parkedBytes_ + inverseBytes(basis) > kParkedInverseBytes) {
    basis.inverse = std::vector<double>();  // frees it; children refactorize
  }
  parkedBytes_ += inverseBytes(basis);
  return std::make_shared<lp::LpBasis>(std::move(basis));
}

lp::LpSolution BranchAndBound::solveNode(Node& node) {
  if (!node.basis) return lp::solveLp(work_, opts_.cancel);
  if (node.basis.use_count() > 1) {
    return lp::solveLp(work_, opts_.cancel, node.basis.get());
  }
  return lp::solveLp(work_, opts_.cancel, std::move(*node.basis));
}

double BranchAndBound::tightenBound(double bound) const {
  // With an integral objective, any integer point costs at least the next
  // integer above a fractional LP bound.
  if (!opts_.objectiveIsIntegral) return bound;
  return std::ceil(bound - 1e-6);
}

MipResult BranchAndBound::run() {
  if (opts_.warmStart.has_value()) {
    tryIncumbent(*opts_.warmStart, "warm-start");
  }

  // A binary heap under NodeWorse (best bound at the front); nodes leave
  // it by move.
  std::vector<Node> open;
  const auto push = [&open](Node&& node) {
    open.push_back(std::move(node));
    std::push_heap(open.begin(), open.end(), NodeWorse{});
  };
  long nextId = 0;
  push(Node{nextId++, -lp::kInf, {}, nullptr});  // the root solves cold
  bool anyLimitHit = false;

  while (!open.empty()) {
    if (result_.nodes >= opts_.maxNodes) {
      anyLimitHit = true;
      result_.message = "node limit (" + std::to_string(opts_.maxNodes) +
                        ") hit";
      break;
    }
    if (timer_.elapsedSeconds() > opts_.timeLimitSeconds) {
      anyLimitHit = true;
      result_.message = "time limit hit at node " +
                        std::to_string(result_.nodes);
      break;
    }
    if (opts_.cancel != nullptr && opts_.cancel->onNode()) {
      anyLimitHit = true;
      result_.message =
          std::string("budget cancelled (") +
          util::cancelReasonName(opts_.cancel->reason()) + ") at node " +
          std::to_string(result_.nodes);
      break;
    }
    std::pop_heap(open.begin(), open.end(), NodeWorse{});
    Node node = std::move(open.back());
    open.pop_back();
    // The last open node holding its basis releases the parked inverse.
    if (node.basis.use_count() == 1) parkedBytes_ -= inverseBytes(*node.basis);

    // Global bound = min over open nodes and the node in hand.
    const double globalBound =
        haveIncumbent_
            ? std::min(result_.objective, node.bound)
            : node.bound;
    result_.bestBound = std::max(result_.bestBound, globalBound);
    if (haveIncumbent_) {
      const double denom = std::max(1.0, std::fabs(result_.objective));
      if ((result_.objective - node.bound) / denom <= kRelGapTol) {
        // Everything still open is within tolerance of the incumbent.
        result_.bestBound = result_.objective;
        break;
      }
    }

    // Apply the node's bound changes to the working model.
    for (int j = 0; j < work_.numVariables(); ++j) {
      work_.setColumnBounds(j, model_.lp.columnLower(j),
                            model_.lp.columnUpper(j));
    }
    bool crossed = false;
    for (const BoundChange& c : node.changes) {
      const double lb = std::max(work_.columnLower(c.var), c.lb);
      const double ub = std::min(work_.columnUpper(c.var), c.ub);
      if (lb > ub) {
        crossed = true;
        break;
      }
      work_.setColumnBounds(c.var, lb, ub);
    }
    ++result_.nodes;
    if (crossed) continue;

    if (opts_.cancel != nullptr &&
        opts_.cancel->shouldFailNode(result_.nodes)) {
      result_.status = MipStatus::Error;
      result_.message = "injected LP failure at node " +
                        std::to_string(result_.nodes);
      result_.stopReason = opts_.cancel->reason();
      result_.seconds = timer_.elapsedSeconds();
      return result_;
    }
    lp::LpSolution relax = solveNode(node);
    result_.lpIterations += relax.iterations;
    result_.refactorizations += relax.refactorizations;
    if (relax.status == lp::LpStatus::Infeasible) continue;
    if (relax.status == lp::LpStatus::Cancelled) {
      // The shared budget fired mid-relaxation; the node is unexplored but
      // the incumbent (if any) and every bound stay valid.
      anyLimitHit = true;
      std::ostringstream os;
      os << "budget cancelled ("
         << util::cancelReasonName(opts_.cancel != nullptr
                                       ? opts_.cancel->reason()
                                       : util::CancelReason::External)
         << ") inside the LP of node " << result_.nodes << " after "
         << relax.iterations << " iterations";
      result_.message = os.str();
      push(std::move(node));  // count it among the open bounds below
      break;
    }
    if (relax.status == lp::LpStatus::Unbounded) {
      // An unbounded relaxation at the root means an unbounded MIP; treat
      // as an error (our models are always bounded).
      result_.status = MipStatus::Error;
      std::ostringstream os;
      os << "node relaxation unbounded at node " << result_.nodes << " after "
         << result_.lpIterations << " total LP iterations";
      result_.message = os.str();
      if (opts_.cancel != nullptr) result_.stopReason = opts_.cancel->reason();
      result_.seconds = timer_.elapsedSeconds();
      return result_;
    }
    if (relax.status != lp::LpStatus::Optimal) {
      result_.status = MipStatus::Error;
      std::ostringstream os;
      os << "node relaxation " << lp::lpStatusName(relax.status)
         << " at node " << result_.nodes << " after " << relax.iterations
         << " LP iterations (" << result_.lpIterations << " total)";
      result_.message = os.str();
      if (opts_.cancel != nullptr) result_.stopReason = opts_.cancel->reason();
      result_.seconds = timer_.elapsedSeconds();
      return result_;
    }

    const double nodeBound = tightenBound(relax.objective);
    if (haveIncumbent_ && nodeBound >= result_.objective - 1e-9) {
      continue;  // cannot improve
    }

    if (isIntegerFeasible(relax.x)) {
      tryIncumbent(relax.x, "lp-integral");
      continue;
    }

    // Root cutting-plane rounds: strengthen the relaxation before any
    // branching happens (cuts are globally valid, so they stay in work_).
    if (node.changes.empty() && cutRoundsUsed_ < opts_.coverCutRounds) {
      ++cutRoundsUsed_;
      if (separateCoverCuts(relax.x) > 0) {
        // The cut rows join the root's basis with their slacks basic.
        push(Node{nextId++, tightenBound(relax.objective), {},
                  shareBasis(std::move(relax.basis))});
        continue;
      }
    }

    if (opts_.roundingHeuristic) {
      if (auto candidate = opts_.roundingHeuristic(relax.x)) {
        if (tryIncumbent(std::move(*candidate), "heuristic")) {
          ++result_.heuristicSolutions;
        }
      }
    }

    const int branchVar = pickBranchVariable(relax.x);
    if (branchVar < 0) {
      // All integer vars integral within tolerance yet isIntegerFeasible
      // failed — tolerance edge; accept via rounding attempt and move on.
      tryIncumbent(relax.x, "tolerance-edge");
      continue;
    }
    const SharedBasis parentBasis = shareBasis(std::move(relax.basis));

    const int group = colGroup_[static_cast<std::size_t>(branchVar)];
    if (group >= 0) {
      // SOS1 dichotomy: split the group's value axis at the fractional
      // mean position. Both children drop at least one positive column, so
      // the search strictly progresses.
      const std::vector<int>& cols =
          opts_.branchGroups[static_cast<std::size_t>(group)];
      double weight = 0, meanPos = 0;
      int firstPos = -1, lastPos = -1;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        // Only columns still available in this node carry weight.
        if (work_.columnUpper(cols[k]) <= 0.5) continue;
        const double v = relax.x[static_cast<std::size_t>(cols[k])];
        if (v <= kIntegralityTol) continue;
        weight += v;
        meanPos += v * static_cast<double>(k);
        if (firstPos < 0) firstPos = static_cast<int>(k);
        lastPos = static_cast<int>(k);
      }
      if (weight > 0 && firstPos < lastPos) {
        meanPos /= weight;
        const int split = std::clamp(static_cast<int>(meanPos), firstPos,
                                     lastPos - 1);
        // Each child gets the parent's change list plus its own block of
        // fixings; reserving the exact final size makes the copy + appends
        // a single allocation instead of a growth cascade per node.
        Node left;   // keep positions [0, split]
        left.id = nextId++;
        left.bound = nodeBound;
        left.basis = parentBasis;
        const std::size_t tailFixings =
            cols.size() - static_cast<std::size_t>(split) - 1;
        left.changes.reserve(node.changes.size() + tailFixings);
        left.changes.insert(left.changes.end(), node.changes.begin(),
                            node.changes.end());
        for (std::size_t k = static_cast<std::size_t>(split) + 1;
             k < cols.size(); ++k) {
          left.changes.push_back(BoundChange{cols[k], -lp::kInf, 0.0});
        }
        Node right;  // keep positions [split+1, end)
        right.id = nextId++;
        right.bound = nodeBound;
        right.basis = parentBasis;
        right.changes.reserve(node.changes.size() +
                              static_cast<std::size_t>(split) + 1);
        right.changes.insert(right.changes.end(), node.changes.begin(),
                             node.changes.end());
        for (std::size_t k = 0; k <= static_cast<std::size_t>(split); ++k) {
          right.changes.push_back(BoundChange{cols[k], -lp::kInf, 0.0});
        }
        push(std::move(left));
        push(std::move(right));
        continue;
      }
      // Degenerate group (single fractional column): fall through to the
      // plain variable dichotomy.
    }

    const double v = relax.x[static_cast<std::size_t>(branchVar)];
    const double floorV = std::floor(v);

    Node down;
    down.id = nextId++;
    down.bound = nodeBound;
    down.basis = parentBasis;
    down.changes.reserve(node.changes.size() + 1);
    down.changes.insert(down.changes.end(), node.changes.begin(),
                        node.changes.end());
    down.changes.push_back(BoundChange{branchVar, -lp::kInf, floorV});
    Node up;
    up.id = nextId++;
    up.bound = nodeBound;
    up.basis = parentBasis;
    up.changes.reserve(node.changes.size() + 1);
    up.changes.insert(up.changes.end(), node.changes.begin(),
                      node.changes.end());
    up.changes.push_back(BoundChange{branchVar, floorV + 1.0, lp::kInf});
    // Push the child whose branch direction is closer to the LP value
    // first so ties pop it earlier (mild plunging under best-first).
    if (v - floorV > 0.5) {
      push(std::move(up));
      push(std::move(down));
    } else {
      push(std::move(down));
      push(std::move(up));
    }
  }

  // Global lower bound: min(incumbent, smallest bound among open nodes);
  // with the tree fully explored it is the incumbent itself.
  if (!open.empty()) {
    double openBound = open.front().bound;
    if (haveIncumbent_) openBound = std::min(openBound, result_.objective);
    result_.bestBound = std::max(result_.bestBound, openBound);
  } else if (haveIncumbent_) {
    result_.bestBound = result_.objective;
  }

  if (haveIncumbent_) {
    const double denom = std::max(1.0, std::fabs(result_.objective));
    const double gap =
        std::max(0.0, (result_.objective - result_.bestBound) / denom);
    result_.status = (open.empty() || gap <= kRelGapTol)
                         ? MipStatus::Optimal
                         : MipStatus::FeasibleLimit;
    if (result_.status == MipStatus::Optimal) result_.message.clear();
  } else {
    result_.status =
        anyLimitHit ? MipStatus::NoSolutionLimit : MipStatus::Infeasible;
    if (result_.status == MipStatus::NoSolutionLimit) {
      result_.message += " before any incumbent was found";
    }
  }
  if (opts_.cancel != nullptr) result_.stopReason = opts_.cancel->reason();
  result_.seconds = timer_.elapsedSeconds();
  return result_;
}

}  // namespace

MipResult solveMip(const MipModel& model, const MipOptions& options) {
  BranchAndBound solver(model, options);
  return solver.run();
}

}  // namespace dynsched::mip
