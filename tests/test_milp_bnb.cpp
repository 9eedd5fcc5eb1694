#include <gtest/gtest.h>

#include <numeric>

#include "milp/branch_and_bound.hpp"

namespace xring::milp {
namespace {

TEST(Model, RejectsUnknownVariableInConstraint) {
  Model m;
  m.add_binary(1.0);
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Sense::kLe, 1.0),
               std::out_of_range);
}

TEST(Model, BinaryBoundsClamped) {
  Model m;
  const int x = m.add_variable(VarType::kBinary, -3.0, 7.0, 0.0);
  EXPECT_EQ(m.lower(x), 0.0);
  EXPECT_EQ(m.upper(x), 1.0);
}

TEST(Bnb, PureLpPassesThrough) {
  // No binaries: the answer is the LP optimum.
  Model m;
  m.set_maximize(true);
  const int x = m.add_variable(VarType::kContinuous, 0, 10, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 6.5);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.5, 1e-6);
}

TEST(Bnb, KnapsackSmall) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6 → {a, c} = 17? Check: a+b: 7 <= 6
  // no; b+c: 6 <= 6 → 20. Optimum is {b, c} with value 20.
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(10), b = m.add_binary(13), c = m.add_binary(7);
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::kLe, 6.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[a], 0.0, 1e-6);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(Bnb, InfeasibleIntegerProgram) {
  // x + y = 1 with x = y forces a fractional solution: integer-infeasible.
  Model m;
  const int x = m.add_binary(1.0);
  const int y = m.add_binary(1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 1.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kEq, 0.0);
  EXPECT_EQ(solve(m).status, MipStatus::kInfeasible);
}

TEST(Bnb, WarmStartAcceptedWhenValid) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(5), b = m.add_binary(4);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  BnbOptions opt;
  opt.warm_start = std::vector<double>{0.0, 1.0};  // feasible, value 4
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);  // still finds the true optimum
}

TEST(Bnb, InvalidWarmStartIgnored) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(5), b = m.add_binary(4);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  BnbOptions opt;
  opt.warm_start = std::vector<double>{1.0, 1.0};  // violates the constraint
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(Bnb, LazyConstraintsCutOffCandidates) {
  // max a + b with no explicit coupling; the lazy handler forbids a+b = 2,
  // emulating a separation oracle. Optimum becomes 1.
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(1), b = m.add_binary(1);
  BnbOptions opt;
  opt.lazy_handler = [&](const std::vector<double>& x) {
    std::vector<Constraint> cuts;
    if (x[a] > 0.5 && x[b] > 0.5) {
      cuts.push_back(Constraint{{{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0});
    }
    return cuts;
  };
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);
  EXPECT_GE(r.lazy_constraints_added, 1);
}

TEST(Bnb, LazyHandlerVetsWarmStartToo) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(1), b = m.add_binary(1);
  int handler_calls = 0;
  BnbOptions opt;
  opt.warm_start = std::vector<double>{1.0, 1.0};
  opt.lazy_handler = [&](const std::vector<double>& x) {
    ++handler_calls;
    std::vector<Constraint> cuts;
    if (x[a] > 0.5 && x[b] > 0.5) {
      cuts.push_back(Constraint{{{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0});
    }
    return cuts;
  };
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);
  EXPECT_GE(handler_calls, 2);  // once for the warm start, once per candidate
}

TEST(Bnb, EqualityPartitioning) {
  // Choose exactly 2 of 4 items minimizing cost.
  Model m;
  const double costs[4] = {3, 1, 4, 1.5};
  std::vector<int> vars;
  Terms sum;
  for (const double c : costs) {
    vars.push_back(m.add_binary(c));
    sum.emplace_back(vars.back(), 1.0);
  }
  m.add_constraint(sum, Sense::kEq, 2.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
  EXPECT_NEAR(r.x[1] + r.x[3], 2.0, 1e-6);
}

TEST(Bnb, MixedIntegerContinuous) {
  // max 2x + y with x binary, y continuous in [0, 1.5], x + y <= 2.
  Model m;
  m.set_maximize(true);
  const int x = m.add_binary(2.0);
  const int y = m.add_variable(VarType::kContinuous, 0, 1.5, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 1.0, 1e-6);
  EXPECT_NEAR(r.x[y], 1.0, 1e-6);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(Bnb, NodeLimitReturnsIncumbentAsFeasible) {
  // A knapsack big enough to need branching, with node_limit 1: the warm
  // start survives as the reported feasible solution.
  Model m;
  m.set_maximize(true);
  std::vector<int> v;
  Terms cap;
  for (int i = 0; i < 12; ++i) {
    v.push_back(m.add_binary(i % 5 + 1));
    cap.emplace_back(v.back(), static_cast<double>(i % 3 + 1));
  }
  m.add_constraint(cap, Sense::kLe, 7.0);
  BnbOptions opt;
  opt.node_limit = 0;
  opt.warm_start = std::vector<double>(12, 0.0);
  const MipResult r = solve(m, opt);
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Bnb, MatchesExhaustiveEnumerationOnSeededPrograms) {
  // Six seeded random 8-binary programs with up to six <= rows: the search
  // must agree with enumerating all 256 points on status and optimum, and
  // return a point that is feasible and attains it.
  for (unsigned seed = 1; seed <= 6; ++seed) {
    unsigned state = seed * 2654435761u + 12345u;
    auto next = [&state] {
      state = state * 1664525u + 1013904223u;
      return state >> 8;
    };
    Model m;
    const int nv = 8;
    for (int v = 0; v < nv; ++v) {
      m.add_binary(static_cast<double>(next() % 9) - 4.0);
    }
    for (int c = 0; c < 6; ++c) {
      Terms t;
      for (int v = 0; v < nv; ++v) {
        const int coef = static_cast<int>(next() % 5) - 2;
        if (coef != 0) t.emplace_back(v, static_cast<double>(coef));
      }
      if (t.empty()) continue;
      m.add_constraint(std::move(t), Sense::kLe,
                       static_cast<double>(next() % 4));
    }
    const auto feasible = [&m](const std::vector<double>& x) {
      for (const Constraint& c : m.constraints()) {
        double lhs = 0.0;
        for (const auto& [v, a] : c.terms) lhs += a * x[v];
        if (lhs > c.rhs + 1e-9) return false;
      }
      return true;
    };
    const auto objective = [&m](const std::vector<double>& x) {
      double obj = 0.0;
      for (int v = 0; v < m.num_variables(); ++v) obj += m.objective(v) * x[v];
      return obj;
    };
    bool any = false;
    double best = 0.0;
    for (int mask = 0; mask < (1 << nv); ++mask) {
      std::vector<double> x(nv);
      for (int v = 0; v < nv; ++v) x[v] = (mask >> v) & 1;
      if (!feasible(x)) continue;
      if (!any || objective(x) < best) best = objective(x);
      any = true;
    }
    const MipResult r = solve(m);
    if (!any) {
      EXPECT_EQ(r.status, MipStatus::kInfeasible) << "seed " << seed;
      continue;
    }
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(r.objective, best, 1e-9) << "seed " << seed;
    ASSERT_EQ(static_cast<int>(r.x.size()), nv) << "seed " << seed;
    EXPECT_TRUE(feasible(r.x)) << "seed " << seed;
    EXPECT_NEAR(objective(r.x), best, 1e-9) << "seed " << seed;
  }
}

TEST(Bnb, FullyFixedModelSolves) {
  Model m;
  const int x = m.add_binary(2.0);
  const int y = m.add_binary(3.0);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 1.0);
  m.add_constraint({{y, 1.0}}, Sense::kLe, 0.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-12);
  EXPECT_EQ(r.x[x], 1.0);
  EXPECT_EQ(r.x[y], 0.0);
}

TEST(Bnb, NearIntegralLpPointStillBranches) {
  // max x, 1000x <= 999.9: the LP optimum x = 0.9999 is 1e-4 from integral.
  // Accepting it as integral would round it to x = 1, which violates the
  // row; the search must branch and prove x = 0 optimal.
  Model m;
  m.set_maximize(true);
  const int x = m.add_binary(1.0);
  m.add_constraint({{x, 1000.0}}, Sense::kLe, 999.9);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_EQ(r.x[x], 0.0);
  EXPECT_EQ(r.objective, 0.0);
}

/// Parameterized property: covering problems min sum x_i, x_i + x_{i+1} >= 1
/// on a cycle of n nodes have optimum ceil(n/2).
class BnbCycleCover : public ::testing::TestWithParam<int> {};

TEST_P(BnbCycleCover, MatchesClosedForm) {
  const int n = GetParam();
  Model m;
  std::vector<int> x;
  for (int i = 0; i < n; ++i) x.push_back(m.add_binary(1.0));
  for (int i = 0; i < n; ++i) {
    m.add_constraint({{x[i], 1.0}, {x[(i + 1) % n], 1.0}}, Sense::kGe, 1.0);
  }
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, (n + 1) / 2, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Cycles, BnbCycleCover,
                         ::testing::Values(3, 4, 5, 7, 10, 13));

}  // namespace
}  // namespace xring::milp
