// The sparse-LU simplex against an oracle that shares none of its code
// (lp_reference.hpp): a dense tableau simplex with Bland's rule must agree
// on status and objective for seeded random LPs and assignment LPs, and
// every optimal answer — the ring-construction relaxations behind Tables
// I-III and the warm starts included — must carry a KKT certificate in its
// duals and reduced costs. Also pins the dual-simplex warm-start path: a
// warm solve after a bound change or lazy-row growth must reproduce the
// cold answer with dual pivots. Below the simplex, the basis factorization's
// ftran and btran are held to a dense Gaussian solve across eta updates and
// refactorizations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/basis.hpp"
#include "lp/simplex.hpp"
#include "lp_reference.hpp"
#include "netlist/floorplan.hpp"
#include "ring/conflict.hpp"
#include "ring/tsp_model.hpp"

namespace xring::lp {
namespace {

/// Deterministic 64-bit LCG (same constants as MMIX); keeps the random LPs
/// identical across platforms and runs.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  int uniform(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double real(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next() % 1000000ULL) / 1e6);
  }

 private:
  std::uint64_t state_;
};

Problem random_lp(std::uint64_t seed) {
  Lcg rng(seed);
  Problem p;
  const int nv = rng.uniform(4, 20);
  const int mc = rng.uniform(3, 14);
  p.set_maximize(rng.uniform(0, 1) == 1);
  for (int v = 0; v < nv; ++v) {
    // Finite boxes keep every instance bounded, so the statuses to compare
    // are only optimal / infeasible.
    p.add_variable(0.0, rng.real(0.5, 10.0), rng.real(-5.0, 5.0));
  }
  for (int c = 0; c < mc; ++c) {
    std::vector<std::pair<int, double>> terms;
    const int nt = rng.uniform(1, std::min(nv, 6));
    for (int t = 0; t < nt; ++t) {
      terms.emplace_back(rng.uniform(0, nv - 1), rng.real(-3.0, 3.0));
    }
    const int sense = rng.uniform(0, 9);
    if (sense < 5) {
      p.add_constraint(terms, Sense::kLe, rng.real(0.0, 12.0));
    } else if (sense < 8) {
      p.add_constraint(terms, Sense::kGe, rng.real(-12.0, 2.0));
    } else {
      p.add_constraint(terms, Sense::kEq, rng.real(-2.0, 4.0));
    }
  }
  return p;
}

/// The same LP in the reference's own types.
lp_reference::Lp to_reference(const Problem& p) {
  lp_reference::Lp lp;
  lp.maximize = p.maximize();
  lp.cost = p.objective();
  lp.rows.resize(p.num_constraints());
  for (int i = 0; i < p.num_constraints(); ++i) {
    const Sense s = p.senses()[i];
    lp.rows[i].sense = s == Sense::kLe   ? lp_reference::RowSense::kLe
                       : s == Sense::kGe ? lp_reference::RowSense::kGe
                                         : lp_reference::RowSense::kEq;
    lp.rows[i].rhs = p.rhs()[i];
  }
  for (int j = 0; j < p.num_variables(); ++j) {
    lp.lower.push_back(p.lower_bound(j));
    lp.upper.push_back(p.upper_bound(j));
    for (const auto& [row, a] : p.columns()[j]) {
      lp.rows[row].terms.emplace_back(j, a);
    }
  }
  return lp;
}

/// Relative tolerance of the KKT check: the simplex prices and ratio-tests
/// at 1e-8, so an honest certificate holds well inside this.
constexpr double kKktTol = 1e-7;

/// An optimal answer must certify itself through its duals and reduced
/// costs.
void expect_kkt(const Problem& p, const Solution& s, const std::string& label) {
  ASSERT_EQ(s.status, Status::kOptimal) << label;
  for (const std::string& v : lp_reference::kkt_violations(
           to_reference(p), s.x, s.duals, s.reduced_costs, s.objective,
           kKktTol)) {
    ADD_FAILURE() << label << ": " << v;
  }
}

/// lp::solve and the tableau reference agree on status and optimum, and an
/// optimal answer passes the KKT check. Returns lp::solve's status.
Status expect_matches_reference(const Problem& p, const std::string& label) {
  const Solution s = solve(p);
  const lp_reference::Result ref = lp_reference::solve_tableau(to_reference(p));
  const Status expected = ref.outcome == lp_reference::Outcome::kOptimal
                              ? Status::kOptimal
                          : ref.outcome == lp_reference::Outcome::kInfeasible
                              ? Status::kInfeasible
                              : Status::kUnbounded;
  EXPECT_EQ(s.status, expected) << label;
  if (s.status == Status::kOptimal && expected == Status::kOptimal) {
    const double scale = std::max(1.0, std::abs(ref.objective));
    EXPECT_NEAR(s.objective / scale, ref.objective / scale, 1e-7) << label;
    expect_kkt(p, s, label);
  }
  return s.status;
}

TEST(SparseVsDense, SeededRandomLps) {
  int optimal = 0, infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Status st =
        expect_matches_reference(random_lp(seed), "seed=" + std::to_string(seed));
    optimal += st == Status::kOptimal;
    infeasible += st == Status::kInfeasible;
  }
  // Both outcomes stay exercised: a generator change that made every LP
  // infeasible would leave the optimum and the certificate unchecked.
  EXPECT_EQ(optimal, 23);
  EXPECT_EQ(infeasible, 17);
}

TEST(SparseVsDense, NearlyTiedColumns) {
  // min -x - 1.9999y  s.t.  x + 2y <= 2,  x in [0, 2],  y in [0, 1].
  // Per unit of the row x gains 1 and y 0.99995, so Dantzig pricing moves y
  // first and leaves reduced costs of only ~1e-4 on the way to the optimum
  // x = 2, y = 0. Declaring optimality at a coarser reduced cost than the
  // pricing tolerance stops at x = 0, y = 1.
  Problem p;
  const int x = p.add_variable(0, 2, -1.0);
  const int y = p.add_variable(0, 1, -1.9999);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::kLe, 2.0);
  EXPECT_EQ(expect_matches_reference(p, "nearly tied"), Status::kOptimal);
  EXPECT_NEAR(solve(p).x[x], 2.0, 1e-9);
}

/// The LP relaxation of a MILP model, sign-normalized to minimization — the
/// same mapping branch_and_bound.cpp applies before solving node LPs.
Problem relax(const milp::Model& model) {
  Problem p;
  const double sign = model.maximize() ? -1.0 : 1.0;
  for (int v = 0; v < model.num_variables(); ++v) {
    p.add_variable(model.lower(v), model.upper(v), sign * model.objective(v));
  }
  for (const milp::Constraint& c : model.constraints()) {
    p.add_constraint(c.terms, c.sense, c.rhs);
  }
  return p;
}

Problem table_model(int n) {
  const auto fp = netlist::Floorplan::standard(n);
  const ring::ConflictOracle oracle(fp);
  const ring::TspModel tsp(fp, oracle, ring::ConflictMode::kLazy);
  return relax(tsp.model());
}

TEST(SparseVsDense, TableRingModels) {
  // The ring-construction relaxations behind Tables I-III (n = 8, 16, 32;
  // the tableau takes ~0.4 s on the 992-variable n = 32 one in Release).
  for (const int n : {8, 16, 32}) {
    EXPECT_EQ(expect_matches_reference(table_model(n), "n=" + std::to_string(n)),
              Status::kOptimal);
  }
}

TEST(SparseVsDense, AssignmentModels) {
  for (const int n : {4, 7, 10}) {
    Problem p;
    std::vector<std::vector<int>> var(n, std::vector<int>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        var[i][j] = p.add_variable(0, 1, std::abs(i - j) + 0.1 * ((i + j) % 3));
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<std::pair<int, double>> row, col;
      for (int j = 0; j < n; ++j) {
        row.emplace_back(var[i][j], 1.0);
        col.emplace_back(var[j][i], 1.0);
      }
      p.add_constraint(row, Sense::kEq, 1.0);
      p.add_constraint(col, Sense::kEq, 1.0);
    }
    EXPECT_EQ(expect_matches_reference(p, "assignment n=" + std::to_string(n)),
              Status::kOptimal);
  }
}

/// `got` matches the dense reference `want` to 1e-9 relative to want's
/// largest entry.
void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  double scale = 1.0;
  for (const double v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::abs(got[i] - want[i]) > 1e-9 * scale) {
      ADD_FAILURE() << label << ": entry " << i << " is " << got[i]
                    << ", dense solve " << want[i];
      return;
    }
  }
}

TEST(SparseLuBasis, SolvesMatchDenseGaussianAcrossUpdates) {
  // Bases shaped like the ring LP's: 85-95% of the slots hold a +-1 slack
  // singleton, the rest columns of 2-4 nonzeros. 70 basis changes go
  // through update(), so each trial crosses the 64-eta refactorization
  // request. After every change ftran, ftran_dense and btran must match a
  // dense Gaussian solve of the test's own copy of B, and ftran's nonzero
  // list must be ascending and name exactly the nonzero entries.
  constexpr int kChanges = 70;
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 50 + 50 * trial;
    const std::string tag = "m=" + std::to_string(m);
    Lcg rng(0x5eed0000ULL + static_cast<std::uint64_t>(trial));
    auto value = [&rng] {
      const double v = rng.real(0.5, 2.0);
      return rng.uniform(0, 1) == 0 ? v : -v;
    };

    // Columns 0..m-1 are the rows' slacks; column m + i has a dominant
    // entry in row i and 1-3 more in distinct random rows.
    ColumnStore cols;
    for (int i = 0; i < m; ++i) {
      cols.add_singleton(i, rng.uniform(0, 1) == 0 ? 1.0 : -1.0);
    }
    for (int i = 0; i < m; ++i) {
      SparseCol col{{i, 4.0 * value()}};
      const int size = rng.uniform(2, 4);
      while (static_cast<int>(col.size()) < size) {
        const int r = rng.uniform(0, m - 1);
        bool seen = false;
        for (const auto& entry : col) seen = seen || entry.first == r;
        if (!seen) col.emplace_back(r, value());
      }
      cols.add(col);
    }

    // Slot i holds row i's slack or, for 5-15% of the slots, column m + i.
    std::vector<int> basis(m), order(m);
    for (int i = 0; i < m; ++i) basis[i] = order[i] = i;
    for (int i = m - 1; i > 0; --i) std::swap(order[i], order[rng.uniform(0, i)]);
    const int structural = m * rng.uniform(5, 15) / 100;
    for (int k = 0; k < structural; ++k) basis[order[k]] = m + order[k];
    std::vector<char> is_basic(cols.size(), 0);
    for (const int j : basis) is_basic[j] = 1;

    SparseLuBasis lu(m);
    ASSERT_TRUE(lu.factorize(cols, basis)) << tag;
    int refactorizations = 0;
    std::vector<double> w, x, y;
    std::vector<int> nz;
    for (int change = 0; change <= kChanges; ++change) {
      const std::string label = tag + " change " + std::to_string(change);
      std::vector<double> dense(static_cast<std::size_t>(m) * m, 0.0);
      for (int i = 0; i < m; ++i) {
        for (const auto& [r, v] : cols[basis[i]]) {
          dense[static_cast<std::size_t>(r) * m + i] = v;
        }
      }
      const lp_reference::DenseLu ref(std::move(dense), m);
      ASSERT_FALSE(ref.singular()) << label;

      // ftran of a random pool column and of a slack.
      for (const int j : {rng.uniform(0, cols.size() - 1), rng.uniform(0, m - 1)}) {
        std::vector<double> a(m, 0.0);
        for (const auto& [r, v] : cols[j]) a[r] = v;
        lu.ftran(cols[j], w, nz);
        expect_close(w, ref.solve(a), label + " ftran");
        std::vector<int> exact;
        for (int i = 0; i < m; ++i) {
          if (w[i] != 0.0) exact.push_back(i);
        }
        EXPECT_EQ(nz, exact) << label << ": ftran's nonzero list";
      }
      // ftran_dense of a dense right-hand side.
      std::vector<double> b(m);
      for (double& v : b) v = value();
      lu.ftran_dense(b, x);
      expect_close(x, ref.solve(b), label + " ftran_dense");
      // btran of a sparse cost vector (c_B) and of a unit vector (the dual
      // simplex's pivot row).
      std::vector<double> cb(m, 0.0);
      for (double& v : cb) {
        if (rng.uniform(0, 9) == 0) v = value();
      }
      lu.btran(cb, y);
      expect_close(y, ref.solve_transposed(cb), label + " btran");
      std::vector<double> unit(m, 0.0);
      unit[rng.uniform(0, m - 1)] = 1.0;
      lu.btran(unit, y);
      expect_close(y, ref.solve_transposed(unit), label + " btran unit");
      if (HasFailure() || change == kChanges) break;

      // A nonbasic column enters in the slot of its largest ftran entry.
      int enter = rng.uniform(0, cols.size() - 1);
      while (is_basic[enter] != 0) enter = (enter + 1) % cols.size();
      lu.ftran(cols[enter], w, nz);
      int leave = nz.front();
      for (const int i : nz) {
        if (std::abs(w[i]) > std::abs(w[leave])) leave = i;
      }
      const SparseLuBasis::Update u = lu.update(leave, w, nz);
      ASSERT_NE(u, SparseLuBasis::Update::kSingular) << label;
      is_basic[basis[leave]] = 0;
      is_basic[enter] = 1;
      basis[leave] = enter;
      if (u == SparseLuBasis::Update::kRefactorize) {
        ASSERT_TRUE(lu.factorize(cols, basis)) << label;
        ++refactorizations;
      }
    }
    EXPECT_GE(refactorizations, 1) << tag;
  }
}

TEST(WarmStart, BoundChangeResolvesWithDualPivots) {
  // Solve the n=8 ring model cold, then fix one fractional edge variable to
  // each bound: the warm solve must run the dual simplex (stats.warm, a few
  // dual pivots) and land exactly on the cold answer.
  Problem p = table_model(8);
  WarmBasis basis;
  SolveOptions cold;
  cold.export_basis = &basis;
  const Solution root = solve(p, cold);
  ASSERT_EQ(root.status, Status::kOptimal);
  ASSERT_TRUE(basis.valid());

  for (const double fix : {1.0, 0.0}) {
    // Branch on the first fractional variable, as the B&B would.
    int var = -1;
    for (int v = 0; v < p.num_variables(); ++v) {
      if (std::abs(root.x[v] - std::round(root.x[v])) > 1e-6) {
        var = v;
        break;
      }
    }
    if (var < 0) var = 0;  // fully integral root: still exercise the path
    const double lo = p.lower_bound(var), hi = p.upper_bound(var);
    p.set_bounds(var, fix, fix);

    SolveOptions warm;
    warm.warm_start = &basis;
    const Solution w = solve(p, warm);
    const Solution c = solve(p);

    ASSERT_EQ(w.status, c.status);
    if (w.status == Status::kOptimal) {
      EXPECT_NEAR(w.objective, c.objective, 1e-6 * std::max(1.0, std::abs(c.objective)));
      expect_kkt(p, w, "warm, fixed at " + std::to_string(fix));
    }
    p.set_bounds(var, lo, hi);
    EXPECT_TRUE(w.stats.warm);
  }
}

TEST(WarmStart, SurvivesAppendedRows) {
  // Lazy-constraint pattern: rows are appended after the basis was
  // exported. The warm solve extends the basis over the new rows (new
  // slacks basic) and repairs it with dual pivots instead of falling back
  // to a cold two-phase solve.
  Problem p;
  const int x = p.add_variable(0, 1, -1.0);
  const int y = p.add_variable(0, 1, -2.0);
  const int z = p.add_variable(0, 1, -3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Sense::kLe, 2.5);
  WarmBasis basis;
  SolveOptions cold;
  cold.export_basis = &basis;
  const Solution root = solve(p, cold);
  ASSERT_EQ(root.status, Status::kOptimal);

  // A cut violated by the current optimum, plus an equality row.
  p.add_constraint({{y, 1.0}, {z, 1.0}}, Sense::kLe, 1.0);
  p.add_constraint({{x, 1.0}}, Sense::kEq, 1.0);

  SolveOptions warm;
  warm.warm_start = &basis;
  const Solution w = solve(p, warm);
  const Solution c = solve(p);
  ASSERT_EQ(w.status, Status::kOptimal);
  ASSERT_EQ(c.status, Status::kOptimal);
  EXPECT_NEAR(w.objective, c.objective, 1e-9);
  expect_kkt(p, w, "warm, appended rows");
  EXPECT_TRUE(w.stats.warm);
  EXPECT_GT(w.stats.dual_pivots, 0);
}

TEST(WarmStart, MismatchedShapeFallsBackToCold) {
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, 5, 1.0);
  p.add_constraint({{x, 1.0}}, Sense::kLe, 3.0);
  WarmBasis junk;
  junk.rows = 99;
  junk.structurals = 99;
  junk.columns = 300;
  junk.basis.assign(99, 0);
  junk.at_upper.assign(300, 0);
  SolveOptions o;
  o.warm_start = &junk;
  const Solution s = solve(p, o);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_FALSE(s.stats.warm);
}

TEST(WarmStart, InfeasibleChildDetectedByDualSimplex) {
  // Fixing both variables to 1 violates x + y <= 1.5, so the child is
  // infeasible; the warm dual simplex must prove it (dual unbounded).
  Problem p;
  const int x = p.add_variable(0, 1, -1.0);
  const int y = p.add_variable(0, 1, -2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.5);
  WarmBasis basis;
  SolveOptions cold;
  cold.export_basis = &basis;
  ASSERT_EQ(solve(p, cold).status, Status::kOptimal);

  p.set_bounds(x, 1, 1);
  p.set_bounds(y, 1, 1);
  SolveOptions warm;
  warm.warm_start = &basis;
  EXPECT_EQ(solve(p, warm).status, Status::kInfeasible);
}

}  // namespace
}  // namespace xring::lp
