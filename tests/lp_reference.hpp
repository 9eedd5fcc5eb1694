#pragma once

// An LP oracle that shares no code with src/lp, for tests/test_lp_sparse.cpp:
//
//  * solve_tableau — a dense two-phase tableau simplex with Bland's rule.
//    Bounds become rows (x = lo + x', x' <= hi - lo), so the whole solver is
//    the textbook standard-form method: slow (O(rows * columns) per pivot)
//    but short enough to check by eye, and Bland's rule guarantees it
//    terminates. lp::solve must match its status and optimum.
//  * kkt_violations — a certificate check of an answer with its duals and
//    reduced costs: primal feasibility, dual signs per row sense and bound
//    status, complementary slackness, consistency d = c - A'y, and strong
//    duality c'x = b'y + d'x. It needs no second solve, so it also covers
//    LPs too large for the tableau.
//  * DenseLu — Gaussian elimination with partial pivoting of a dense square
//    matrix, solving A x = b and A^T y = c; the reference for the sparse
//    basis factorization's ftran and btran.
//
// Header-only and test-only; it includes nothing from src/. Do not
// "optimize" this code.

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace xring::lp_reference {

enum class RowSense { kLe, kGe, kEq };

struct Row {
  std::vector<std::pair<int, double>> terms;  ///< (variable, coefficient)
  RowSense sense = RowSense::kLe;
  double rhs = 0.0;
};

/// minimize (or maximize) cost'x  s.t.  rows,  lower <= x <= upper.
/// Every lower bound must be finite; upper bounds may be +infinity.
struct Lp {
  bool maximize = false;
  std::vector<double> cost, lower, upper;
  std::vector<Row> rows;
};

enum class Outcome { kOptimal, kInfeasible, kUnbounded };

struct Result {
  Outcome outcome = Outcome::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
};

namespace detail {

constexpr double kEps = 1e-9;

/// Dense tableau: rows 0..m-1 are constraints, row m is the objective
/// (reduced costs, last entry = -objective). Column `cols` is the rhs.
struct Tableau {
  int m = 0, cols = 0;
  std::vector<std::vector<double>> t;
  std::vector<int> basic;  // row -> basic column

  void pivot(int r, int c) {
    const double p = t[r][c];
    for (double& v : t[r]) v /= p;
    for (int i = 0; i <= m; ++i) {
      if (i == r || t[i][c] == 0.0) continue;
      const double f = t[i][c];
      for (int j = 0; j <= cols; ++j) t[i][j] -= f * t[r][j];
    }
    basic[r] = c;
  }

  /// Bland's rule on columns [0, enter_limit): the lowest-index column with
  /// a negative reduced cost enters; the minimum ratio leaves, ties to the
  /// lowest basic column. Returns false when the objective is unbounded.
  bool optimize(int enter_limit) {
    while (true) {
      int enter = -1;
      for (int j = 0; j < enter_limit; ++j) {
        if (t[m][j] < -kEps) {
          enter = j;
          break;
        }
      }
      if (enter < 0) return true;
      int leave = -1;
      double best = 0.0;
      for (int i = 0; i < m; ++i) {
        if (t[i][enter] <= kEps) continue;
        const double ratio = t[i][cols] / t[i][enter];
        if (leave < 0 || ratio < best - kEps ||
            (ratio < best + kEps && basic[i] < basic[leave])) {
          leave = i;
          best = ratio;
        }
      }
      if (leave < 0) return false;
      pivot(leave, enter);
    }
  }

  /// Loads `cost` (per column) as the objective row, priced out against the
  /// current basis.
  void set_objective(const std::vector<double>& cost) {
    std::fill(t[m].begin(), t[m].end(), 0.0);
    for (int j = 0; j < cols; ++j) t[m][j] = cost[j];
    for (int i = 0; i < m; ++i) {
      const double cb = cost[basic[i]];
      if (cb == 0.0) continue;
      for (int j = 0; j <= cols; ++j) t[m][j] -= cb * t[i][j];
    }
  }
};

}  // namespace detail

inline Result solve_tableau(const Lp& lp) {
  using detail::kEps;
  const int n = static_cast<int>(lp.cost.size());

  // Shift x = lower + x' and collect the rows over x' >= 0, each with a
  // nonnegative right-hand side (a negated row swaps <= and >=).
  struct DenseRow {
    std::vector<double> a;
    RowSense sense;
    double rhs;
  };
  std::vector<DenseRow> rows;
  for (const Row& r : lp.rows) {
    DenseRow d{std::vector<double>(n, 0.0), r.sense, r.rhs};
    for (const auto& [j, a] : r.terms) d.a[j] += a;
    for (int j = 0; j < n; ++j) d.rhs -= d.a[j] * lp.lower[j];
    rows.push_back(std::move(d));
  }
  for (int j = 0; j < n; ++j) {
    if (lp.upper[j] == std::numeric_limits<double>::infinity()) continue;
    DenseRow d{std::vector<double>(n, 0.0), RowSense::kLe,
               lp.upper[j] - lp.lower[j]};
    d.a[j] = 1.0;
    rows.push_back(std::move(d));
  }
  for (DenseRow& d : rows) {
    if (d.rhs >= 0.0) continue;
    for (double& v : d.a) v = -v;
    d.rhs = -d.rhs;
    if (d.sense == RowSense::kLe) {
      d.sense = RowSense::kGe;
    } else if (d.sense == RowSense::kGe) {
      d.sense = RowSense::kLe;
    }
  }

  // Columns: x' (n), one slack or surplus per inequality, then one
  // artificial per >= or = row. A <= row starts with its slack basic.
  const int m = static_cast<int>(rows.size());
  int slacks = 0, artificials = 0;
  for (const DenseRow& d : rows) {
    if (d.sense != RowSense::kEq) ++slacks;
    if (d.sense != RowSense::kLe) ++artificials;
  }
  const int first_artificial = n + slacks;
  detail::Tableau tab;
  tab.m = m;
  tab.cols = first_artificial + artificials;
  tab.t.assign(m + 1, std::vector<double>(tab.cols + 1, 0.0));
  tab.basic.assign(m, -1);
  int next_slack = n, next_artificial = first_artificial;
  for (int i = 0; i < m; ++i) {
    const DenseRow& d = rows[i];
    for (int j = 0; j < n; ++j) tab.t[i][j] = d.a[j];
    tab.t[i][tab.cols] = d.rhs;
    if (d.sense == RowSense::kLe) {
      tab.t[i][next_slack] = 1.0;
      tab.basic[i] = next_slack++;
    } else {
      if (d.sense == RowSense::kGe) tab.t[i][next_slack++] = -1.0;
      tab.t[i][next_artificial] = 1.0;
      tab.basic[i] = next_artificial++;
    }
  }

  Result out;
  // Phase 1: minimize the sum of the artificials.
  if (artificials > 0) {
    std::vector<double> phase1(tab.cols, 0.0);
    for (int j = first_artificial; j < tab.cols; ++j) phase1[j] = 1.0;
    tab.set_objective(phase1);
    tab.optimize(tab.cols);  // bounded below by 0
    if (-tab.t[m][tab.cols] > 1e-7) {
      out.outcome = Outcome::kInfeasible;
      return out;
    }
    // Pivot basic artificials (all at zero) out where the row allows; a
    // row with no other nonzero is redundant and its artificial stays put.
    for (int i = 0; i < m; ++i) {
      if (tab.basic[i] < first_artificial) continue;
      for (int j = 0; j < first_artificial; ++j) {
        if (std::abs(tab.t[i][j]) > kEps) {
          tab.pivot(i, j);
          break;
        }
      }
    }
  }

  // Phase 2 over the structural and slack columns only.
  std::vector<double> cost(tab.cols, 0.0);
  const double sign = lp.maximize ? -1.0 : 1.0;
  for (int j = 0; j < n; ++j) cost[j] = sign * lp.cost[j];
  tab.set_objective(cost);
  if (!tab.optimize(first_artificial)) {
    out.outcome = Outcome::kUnbounded;
    return out;
  }

  out.outcome = Outcome::kOptimal;
  out.x = lp.lower;
  for (int i = 0; i < m; ++i) {
    if (tab.basic[i] < n) out.x[tab.basic[i]] += tab.t[i][tab.cols];
  }
  for (int j = 0; j < n; ++j) out.objective += lp.cost[j] * out.x[j];
  return out;
}

/// Checks that (x, duals, reduced_costs, objective) certifies an optimum of
/// `lp`. Duals and reduced costs are read in the caller's objective sense,
/// with d = c - A'y: for a minimization a <= row has y <= 0, a >= row
/// y >= 0, a variable at its lower bound d >= 0 and one at its upper bound
/// d <= 0; a maximization flips every sign. `tol` is relative to the
/// magnitudes involved. Returns one line per violated condition (empty when
/// the certificate holds).
inline std::vector<std::string> kkt_violations(
    const Lp& lp, const std::vector<double>& x, const std::vector<double>& duals,
    const std::vector<double>& reduced_costs, double objective, double tol) {
  const int n = static_cast<int>(lp.cost.size());
  const int m = static_cast<int>(lp.rows.size());
  std::vector<std::string> out;
  auto fail = [&out](const std::string& what, int index, double value) {
    std::ostringstream s;
    s << what << " [" << index << "]: " << value;
    out.push_back(s.str());
  };
  if (static_cast<int>(x.size()) != n ||
      static_cast<int>(reduced_costs.size()) != n ||
      static_cast<int>(duals.size()) != m) {
    out.push_back("vector sizes do not match the LP");
    return out;
  }
  // Everything below is in minimization form.
  const double sign = lp.maximize ? -1.0 : 1.0;
  double cmax = 1.0;
  for (const double c : lp.cost) cmax = std::max(cmax, std::abs(c));
  const double dual_tol = tol * cmax;

  // Primal feasibility: bounds, then rows.
  for (int j = 0; j < n; ++j) {
    const double slack = tol * std::max(1.0, std::abs(x[j]));
    if (x[j] < lp.lower[j] - slack) fail("below lower bound", j, x[j]);
    if (x[j] > lp.upper[j] + slack) fail("above upper bound", j, x[j]);
  }
  std::vector<double> activity(m, 0.0);
  std::vector<double> row_scale(m, 1.0);
  for (int i = 0; i < m; ++i) {
    const Row& r = lp.rows[i];
    row_scale[i] = std::max(1.0, std::abs(r.rhs));
    for (const auto& [j, a] : r.terms) {
      activity[i] += a * x[j];
      row_scale[i] = std::max(row_scale[i], std::abs(a * x[j]));
    }
    const double gap = activity[i] - r.rhs;
    const double slack = tol * row_scale[i];
    if ((r.sense == RowSense::kLe && gap > slack) ||
        (r.sense == RowSense::kGe && gap < -slack) ||
        (r.sense == RowSense::kEq && std::abs(gap) > slack)) {
      fail("row violated", i, gap);
    }
  }

  // Dual sign per row sense, and complementary slackness of the rows.
  for (int i = 0; i < m; ++i) {
    const double y = sign * duals[i];
    const RowSense s = lp.rows[i].sense;
    if (s == RowSense::kLe && y > dual_tol) fail("<= row dual > 0", i, y);
    if (s == RowSense::kGe && y < -dual_tol) fail(">= row dual < 0", i, y);
    const double gap = std::abs(activity[i] - lp.rows[i].rhs);
    if (s != RowSense::kEq && std::abs(y) * gap > dual_tol * row_scale[i]) {
      fail("slack row with nonzero dual", i, y * gap);
    }
  }

  // Reduced costs: consistent with the duals, and signed by bound status.
  std::vector<double> aty(n, 0.0);
  for (int i = 0; i < m; ++i) {
    for (const auto& [j, a] : lp.rows[i].terms) aty[j] += a * duals[i];
  }
  for (int j = 0; j < n; ++j) {
    const double expect = lp.cost[j] - aty[j];
    if (std::abs(reduced_costs[j] - expect) > dual_tol) {
      fail("reduced cost != c - A'y", j, reduced_costs[j] - expect);
    }
    const double d = sign * reduced_costs[j];
    const double at = tol * std::max(1.0, std::abs(x[j]));
    const bool at_lower = x[j] <= lp.lower[j] + at;
    const bool at_upper = x[j] >= lp.upper[j] - at;
    if (!at_lower && d > dual_tol) fail("reduced cost > 0 off lower", j, d);
    if (!at_upper && d < -dual_tol) fail("reduced cost < 0 off upper", j, d);
  }

  // The reported objective, and strong duality c'x = b'y + d'x.
  double cx = 0.0, by = 0.0, dx = 0.0, scale = 1.0;
  for (int j = 0; j < n; ++j) {
    cx += lp.cost[j] * x[j];
    dx += reduced_costs[j] * x[j];
    scale = std::max(scale, std::abs(lp.cost[j] * x[j]));
  }
  for (int i = 0; i < m; ++i) {
    by += lp.rows[i].rhs * duals[i];
    scale = std::max(scale, std::abs(lp.rows[i].rhs * duals[i]));
  }
  if (std::abs(objective - cx) > tol * scale) {
    fail("objective != c'x", 0, objective - cx);
  }
  if (std::abs(cx - by - dx) > tol * scale) {
    fail("c'x != b'y + d'x", 0, cx - by - dx);
  }
  return out;
}

/// A = P^T L U of a dense n x n matrix by Gaussian elimination with partial
/// pivoting (row-major input, a[i * n + j] = A_ij).
class DenseLu {
 public:
  DenseLu(std::vector<double> a, int n) : n_(n), lu_(std::move(a)), perm_(n) {
    for (int i = 0; i < n; ++i) perm_[i] = i;
    for (int k = 0; k < n; ++k) {
      int p = k;
      for (int i = k + 1; i < n; ++i) {
        if (std::abs(at(i, k)) > std::abs(at(p, k))) p = i;
      }
      if (at(p, k) == 0.0) {
        singular_ = true;
        return;
      }
      if (p != k) {
        for (int j = 0; j < n; ++j) std::swap(at(p, j), at(k, j));
        std::swap(perm_[p], perm_[k]);
      }
      for (int i = k + 1; i < n; ++i) {
        const double f = at(i, k) / at(k, k);
        at(i, k) = f;
        if (f == 0.0) continue;  // nothing to eliminate (most rows of a basis)
        for (int j = k + 1; j < n; ++j) at(i, j) -= f * at(k, j);
      }
    }
  }

  bool singular() const { return singular_; }

  /// x with A x = b.
  std::vector<double> solve(const std::vector<double>& b) const {
    std::vector<double> x(n_);
    for (int i = 0; i < n_; ++i) {
      double t = b[perm_[i]];
      for (int j = 0; j < i; ++j) t -= at(i, j) * x[j];
      x[i] = t;
    }
    for (int i = n_ - 1; i >= 0; --i) {
      double t = x[i];
      for (int j = i + 1; j < n_; ++j) t -= at(i, j) * x[j];
      x[i] = t / at(i, i);
    }
    return x;
  }

  /// y with A^T y = c.
  std::vector<double> solve_transposed(const std::vector<double>& c) const {
    std::vector<double> z(n_);
    for (int i = 0; i < n_; ++i) {  // U^T z = c
      double t = c[i];
      for (int j = 0; j < i; ++j) t -= at(j, i) * z[j];
      z[i] = t / at(i, i);
    }
    for (int i = n_ - 1; i >= 0; --i) {  // L^T w = z
      double t = z[i];
      for (int j = i + 1; j < n_; ++j) t -= at(j, i) * z[j];
      z[i] = t;
    }
    std::vector<double> y(n_);
    for (int i = 0; i < n_; ++i) y[perm_[i]] = z[i];
    return y;
  }

 private:
  double& at(int i, int j) { return lu_[static_cast<std::size_t>(i) * n_ + j]; }
  double at(int i, int j) const {
    return lu_[static_cast<std::size_t>(i) * n_ + j];
  }

  int n_;
  std::vector<double> lu_;
  std::vector<int> perm_;  // row i of L U is row perm_[i] of A
  bool singular_ = false;
};

}  // namespace xring::lp_reference
