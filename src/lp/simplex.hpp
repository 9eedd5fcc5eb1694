#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace xring::lp {

/// Direction of a linear constraint.
enum class Sense { kLe, kGe, kEq };

/// Outcome of an LP solve.
enum class Status { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

std::string to_string(Status s);

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A linear program over bounded continuous variables:
///
///   minimize   c'x
///   subject to a_i'x  (<= | >= | =)  b_i      for every row i
///              lo_j <= x_j <= hi_j            for every variable j
///
/// Columns are stored sparsely; the solver is a revised simplex on a sparse
/// LU of the basis (lp/basis.hpp) with full bounded-variable support
/// (nonbasic variables rest at either bound, bound flips are handled without
/// pivots). This is the substrate that replaces Gurobi for the XRing MILP
/// model.
class Problem {
 public:
  /// Adds a variable with bounds [lo, hi] and objective coefficient c.
  /// Returns its column index.
  int add_variable(double lo, double hi, double objective);

  /// Starts a new empty constraint; returns its row index.
  int add_constraint(Sense sense, double rhs);

  /// Adds `coefficient * x[var]` to constraint `row`. Coefficients for the
  /// same (row, var) pair accumulate.
  void add_term(int row, int var, double coefficient);

  /// Convenience: adds a full constraint at once.
  int add_constraint(const std::vector<std::pair<int, double>>& terms,
                     Sense sense, double rhs);

  void set_maximize(bool maximize) { maximize_ = maximize; }
  bool maximize() const { return maximize_; }

  int num_variables() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const { return static_cast<int>(rhs_.size()); }

  double lower_bound(int var) const { return lower_[var]; }
  double upper_bound(int var) const { return upper_[var]; }
  void set_bounds(int var, double lo, double hi);

  // Internal accessors used by the solver.
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<double>& rhs() const { return rhs_; }
  const std::vector<Sense>& senses() const { return senses_; }
  const std::vector<std::vector<std::pair<int, double>>>& columns() const {
    return columns_;
  }

 private:
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::vector<std::pair<int, double>>> columns_;  // per variable
  std::vector<double> rhs_;
  std::vector<Sense> senses_;
  bool maximize_ = false;
};

/// An opaque snapshot of an optimal simplex basis, exported via
/// SolveOptions::export_basis and fed back through SolveOptions::warm_start.
/// Valid only for a problem with the same constraint rows, senses, and
/// variable count as the one that produced it (bounds may differ — that is
/// the point: the MILP branch-and-bound re-solves each child node from the
/// parent's basis after a single bound change with a handful of dual-simplex
/// pivots instead of a full two-phase resolve).
struct WarmBasis {
  int rows = 0;         ///< constraint count of the producing problem
  int structurals = 0;  ///< structural variable count
  int columns = 0;      ///< internal column count (struct + slack + artificial)
  std::vector<int> basis;           ///< slot -> internal column
  std::vector<std::uint8_t> at_upper;  ///< nonbasic resting bound per column
  bool valid() const { return !basis.empty(); }
};

/// Per-solve kernel statistics, surfaced as obs metrics by `solve`.
struct SolveStats {
  int refactorizations = 0;  ///< basis factorizations beyond the initial one
  long long eta_nnz = 0;     ///< nonzeros appended to the eta file
  long long ftran_calls = 0;
  long long ftran_nnz = 0;   ///< sum of ftran result nonzeros
  int dual_pivots = 0;       ///< dual-simplex pivots (warm starts only)
  bool warm = false;         ///< solve started from SolveOptions::warm_start
  int rows = 0;              ///< constraint rows (denominator of ftran density)
};

struct SolveOptions {
  /// Optional basis to warm-start from (see WarmBasis). Ignored when its
  /// dimensions do not match the problem. A warm solve skips phase 1
  /// entirely: it refactorizes the given basis and runs the bounded-variable
  /// dual simplex until primal feasibility is restored, then verifies
  /// optimality with the primal pricing loop. Falls back to a cold solve on
  /// any numerical trouble — the answer is the same either way.
  const WarmBasis* warm_start = nullptr;
  /// When non-null, receives the optimal basis (only filled on kOptimal).
  WarmBasis* export_basis = nullptr;
};

struct Solution {
  Status status = Status::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< values of the structural variables
  /// Dual values (simplex multipliers) per constraint row at the optimum,
  /// in the caller's objective sense: for a maximization, y_i is the rate
  /// at which the optimum grows per unit of slack added to row i. Strong
  /// duality (b'y == c'x for feasible bounded problems with inactive
  /// variable bounds) is exercised in the tests.
  std::vector<double> duals;
  /// Reduced cost per structural variable at the optimum (objective sense
  /// of the caller).
  std::vector<double> reduced_costs;
  int iterations = 0;  ///< total simplex pivot loop passes (primal + dual)
  SolveStats stats;
};

/// Solves the LP with a revised bounded-variable simplex: two-phase primal
/// from a slack/artificial crash basis, or dual simplex from
/// SolveOptions::warm_start when one is supplied. With obs enabled, every
/// solve records the `lp.*` metrics and an `lp.solve` event.
Solution solve(const Problem& problem, const SolveOptions& options = {});

}  // namespace xring::lp
