#include "milp/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "lp/simplex.hpp"
#include "obs/obs.hpp"

namespace xring::milp {

namespace {

constexpr double kInf = lp::kInfinity;
/// Reduction rounds; each round re-propagates with the bounds the previous
/// round tightened. A fixpoint is usually reached in 2-3 rounds.
constexpr int kMaxRounds = 8;
/// Feasibility tolerance used when deciding redundancy / infeasibility.
constexpr double kTol = 1e-9;

/// Working copy of one row. Terms stay in the model's canonical form
/// (sorted, duplicate-free, no zeros — guaranteed by Model::add_constraint),
/// so presolve never rescans a row for repeated variables.
struct Row {
  Terms terms;
  Sense sense;
  double rhs;
  bool active = true;
};

struct Bounds {
  std::vector<double> lo, hi;
};

/// Min/max activity of a row under the current bounds. Infinite bounds
/// propagate into infinite activities.
struct Activity {
  double min = 0.0, max = 0.0;
  int inf_min = 0, inf_max = 0;  // number of infinite contributions
};

Activity activity_of(const Row& row, const Bounds& b) {
  Activity act;
  for (const auto& [v, a] : row.terms) {
    const double lo_c = a > 0 ? a * b.lo[v] : a * b.hi[v];
    const double hi_c = a > 0 ? a * b.hi[v] : a * b.lo[v];
    if (lo_c <= -kInf) {
      ++act.inf_min;
    } else {
      act.min += lo_c;
    }
    if (hi_c >= kInf) {
      ++act.inf_max;
    } else {
      act.max += hi_c;
    }
  }
  return act;
}

}  // namespace

Presolved presolve(const Model& model) {
  const int n = model.num_variables();
  // Integrality margin for rounding a propagated binary bound to 0/1; far
  // looser than kTol because the propagated value comes from a division.
  constexpr double int_tol = 1e-6;

  Presolved out;
  out.fixed_value.assign(n, 0.0);
  out.reduced_of_orig.assign(n, -1);

  Bounds b;
  b.lo.resize(n);
  b.hi.resize(n);
  for (int v = 0; v < n; ++v) {
    b.lo[v] = model.lower(v);
    b.hi[v] = model.upper(v);
  }

  std::vector<Row> rows;
  rows.reserve(model.constraints().size());
  for (const Constraint& c : model.constraints()) {
    rows.push_back(Row{c.terms, c.sense, c.rhs, true});
  }

  auto is_fixed = [&](int v) { return b.lo[v] == b.hi[v]; };

  // Tightens an upper bound; binaries snap to the integral lattice. Returns
  // true when the bound actually moved.
  auto apply_upper = [&](int v, double ub) {
    if (model.type(v) == VarType::kBinary) ub = std::floor(ub + int_tol);
    if (ub >= b.hi[v] - kTol) return false;
    b.hi[v] = std::max(ub, b.lo[v] - 1.0);  // keep lo>hi detectable
    if (model.type(v) == VarType::kBinary && b.hi[v] < 1.0 && b.hi[v] >= 0.0) {
      b.hi[v] = 0.0;
    }
    return true;
  };
  auto apply_lower = [&](int v, double lb) {
    if (model.type(v) == VarType::kBinary) lb = std::ceil(lb - int_tol);
    if (lb <= b.lo[v] + kTol) return false;
    b.lo[v] = std::min(lb, b.hi[v] + 1.0);
    if (model.type(v) == VarType::kBinary && b.lo[v] > 0.0 && b.lo[v] <= 1.0) {
      b.lo[v] = 1.0;
    }
    return true;
  };

  for (int round = 0; round < kMaxRounds && !out.infeasible; ++round) {
    bool changed = false;

    for (Row& row : rows) {
      if (!row.active) continue;

      // Fold fixed variables into the right-hand side and count what is
      // left; a row over only fixed variables is a pure feasibility check.
      double fixed_rhs = row.rhs;
      int free_terms = 0;
      int free_var = -1;
      double free_coef = 0.0;
      for (const auto& [v, a] : row.terms) {
        if (is_fixed(v)) {
          fixed_rhs -= a * b.lo[v];
        } else {
          ++free_terms;
          free_var = v;
          free_coef = a;
        }
      }
      if (free_terms == 0) {
        const bool ok =
            (row.sense == Sense::kLe && 0.0 <= fixed_rhs + kTol) ||
            (row.sense == Sense::kGe && 0.0 >= fixed_rhs - kTol) ||
            (row.sense == Sense::kEq && std::abs(fixed_rhs) <= kTol);
        if (!ok) out.infeasible = true;
        row.active = false;
        ++out.removed_rows;
        changed = true;
        continue;
      }
      if (free_terms == 1) {
        // Singleton row: becomes a bound on its one free variable.
        const double v_rhs = fixed_rhs / free_coef;
        const bool flip = free_coef < 0.0;
        if (row.sense == Sense::kEq) {
          apply_lower(free_var, v_rhs);
          apply_upper(free_var, v_rhs);
        } else if ((row.sense == Sense::kLe) != flip) {
          apply_upper(free_var, v_rhs);
        } else {
          apply_lower(free_var, v_rhs);
        }
        if (b.lo[free_var] > b.hi[free_var] + kTol) out.infeasible = true;
        row.active = false;
        ++out.removed_rows;
        changed = true;
        continue;
      }

      const Activity act = activity_of(row, b);
      const bool min_finite = act.inf_min == 0;
      const bool max_finite = act.inf_max == 0;

      // Redundant / infeasible by activity bounds alone.
      if (row.sense == Sense::kLe) {
        if (min_finite && act.min > row.rhs + kTol) {
          out.infeasible = true;
          break;
        }
        if (max_finite && act.max <= row.rhs + kTol) {
          row.active = false;
          ++out.removed_rows;
          changed = true;
          continue;
        }
      } else if (row.sense == Sense::kGe) {
        if (max_finite && act.max < row.rhs - kTol) {
          out.infeasible = true;
          break;
        }
        if (min_finite && act.min >= row.rhs - kTol) {
          row.active = false;
          ++out.removed_rows;
          changed = true;
          continue;
        }
      } else {
        if ((min_finite && act.min > row.rhs + kTol) ||
            (max_finite && act.max < row.rhs - kTol)) {
          out.infeasible = true;
          break;
        }
        if (min_finite && max_finite && act.min >= row.rhs - kTol &&
            act.max <= row.rhs + kTol) {
          row.active = false;
          ++out.removed_rows;
          changed = true;
          continue;
        }
      }

      // Bound propagation: for each variable, the residual activity of the
      // rest of the row implies a bound. kEq propagates both directions.
      for (const auto& [v, a] : row.terms) {
        if (is_fixed(v)) continue;
        const double c_min = a > 0 ? a * b.lo[v] : a * b.hi[v];
        const double c_max = a > 0 ? a * b.hi[v] : a * b.lo[v];
        if (row.sense != Sense::kGe) {  // kLe or kEq: terms <= rhs
          const bool rest_finite =
              act.inf_min == 0 || (act.inf_min == 1 && c_min <= -kInf);
          if (rest_finite) {
            const double rest_min = act.min - (c_min <= -kInf ? 0.0 : c_min);
            const double slack = row.rhs - rest_min;
            if (a > 0) {
              changed |= apply_upper(v, slack / a);
            } else {
              changed |= apply_lower(v, slack / a);
            }
          }
        }
        if (row.sense != Sense::kLe) {  // kGe or kEq: terms >= rhs
          const bool rest_finite =
              act.inf_max == 0 || (act.inf_max == 1 && c_max >= kInf);
          if (rest_finite) {
            const double rest_max = act.max - (c_max >= kInf ? 0.0 : c_max);
            const double slack = row.rhs - rest_max;
            if (a > 0) {
              changed |= apply_lower(v, slack / a);
            } else {
              changed |= apply_upper(v, slack / a);
            }
          }
        }
        if (b.lo[v] > b.hi[v] + kTol) {
          out.infeasible = true;
          break;
        }
      }
      if (out.infeasible) break;

      // Coefficient tightening on <= rows (Savelsbergh): for an unfixed
      // binary with coefficient a > 0, if the rest of the row alone cannot
      // exceed U_rest < rhs and the row only binds when the binary is 1
      // (a + U_rest > rhs), then {a, rhs} -> {a - (rhs - U_rest), U_rest}
      // preserves the 0/1 feasible set and strictly tightens the LP
      // relaxation of fractional points.
      if (row.sense == Sense::kLe && act.inf_max == 0) {
        for (auto& [v, a] : row.terms) {
          if (model.type(v) != VarType::kBinary || is_fixed(v)) continue;
          if (a <= 0.0) continue;
          if (b.lo[v] != 0.0 || b.hi[v] != 1.0) continue;
          const double u_rest = act.max - a;
          if (u_rest < row.rhs - kTol && a + u_rest > row.rhs + kTol) {
            a -= row.rhs - u_rest;
            row.rhs = u_rest;
            ++out.tightened_coefs;
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }

  if (out.infeasible) {
    if (obs::enabled()) obs::registry().counter("milp.presolve_infeasible").add();
    return out;
  }

  // Assemble the reduced model: surviving variables in original order (the
  // column order is deterministic), active rows with fixed terms folded into
  // the right-hand side.
  for (int v = 0; v < n; ++v) {
    if (is_fixed(v)) {
      out.fixed_value[v] = model.type(v) == VarType::kBinary
                               ? std::round(b.lo[v])
                               : b.lo[v];
      ++out.fixed_variables;
      continue;
    }
    out.reduced_of_orig[v] = static_cast<int>(out.orig_of_reduced.size());
    out.orig_of_reduced.push_back(v);
    out.reduced.add_variable(model.type(v), b.lo[v], b.hi[v],
                             model.objective(v));
  }
  out.reduced.set_maximize(model.maximize());

  for (const Row& row : rows) {
    if (!row.active) continue;
    Terms terms;
    terms.reserve(row.terms.size());
    double rhs = row.rhs;
    for (const auto& [v, a] : row.terms) {
      if (is_fixed(v)) {
        rhs -= a * out.fixed_value[v];
      } else {
        terms.emplace_back(out.reduced_of_orig[v], a);
      }
    }
    out.reduced.add_constraint(std::move(terms), row.sense, rhs);
  }

  if (obs::enabled() && !out.identity()) {
    obs::Registry& reg = obs::registry();
    reg.counter("milp.presolve_fixed").add(out.fixed_variables);
    reg.counter("milp.presolve_rows_removed").add(out.removed_rows);
    reg.counter("milp.presolve_coefs_tightened").add(out.tightened_coefs);
  }
  return out;
}

std::vector<double> Presolved::postsolve(
    const std::vector<double>& reduced_x) const {
  std::vector<double> x = fixed_value;
  for (std::size_t r = 0; r < orig_of_reduced.size(); ++r) {
    x[orig_of_reduced[r]] = reduced_x[r];
  }
  return x;
}

std::vector<double> Presolved::restrict_point(
    const std::vector<double>& orig_x, double tol) const {
  std::vector<double> x;
  x.reserve(orig_of_reduced.size());
  for (std::size_t v = 0; v < reduced_of_orig.size(); ++v) {
    if (reduced_of_orig[v] < 0) {
      if (std::abs(orig_x[v] - fixed_value[v]) > tol) return {};
      continue;
    }
    x.push_back(orig_x[v]);
  }
  return x;
}

Constraint Presolved::translate(const Constraint& row) const {
  Constraint t;
  t.sense = row.sense;
  t.rhs = row.rhs;
  t.terms.reserve(row.terms.size());
  for (const auto& [v, a] : row.terms) {
    if (reduced_of_orig[v] < 0) {
      t.rhs -= a * fixed_value[v];
    } else {
      t.terms.emplace_back(reduced_of_orig[v], a);
    }
  }
  if (!t.terms.empty()) return t;
  // Every variable folded away. If the residual row holds it is a no-op —
  // returned with empty terms so the caller can drop it. If it is violated,
  // no completion of the fixings can satisfy it — and since the fixings are
  // implied by the explicit rows, the full model is empty: emit a
  // bound-contradicting unit row on column 0.
  const bool ok = (t.sense == Sense::kLe && 0.0 <= t.rhs + kTol) ||
                  (t.sense == Sense::kGe && 0.0 >= t.rhs - kTol) ||
                  (t.sense == Sense::kEq && std::abs(t.rhs) <= kTol);
  if (ok) return t;
  t.terms = {{0, 1.0}};
  if (reduced.lower(0) > -lp::kInfinity) {
    t.sense = Sense::kLe;
    t.rhs = reduced.lower(0) - 1.0;
  } else {
    t.sense = Sense::kGe;
    t.rhs = reduced.upper(0) + 1.0;
  }
  return t;
}

}  // namespace xring::milp
