#pragma once

#include <vector>

#include "milp/model.hpp"

namespace xring::milp {

/// A presolved model plus the exact mapping back to the original variable
/// space. Every reduction applied here is *feasibility-preserving by
/// implication*: a bound is only tightened (and a binary only fixed) when
/// every point satisfying the explicit constraints already obeys it, and a
/// row is only dropped when the variable bounds alone imply it. This keeps
/// the reductions valid even when the caller later adds rows the presolve
/// never saw (lazy constraints, cutting planes): added rows can only shrink
/// the feasible set, never re-admit an excluded point.
struct Presolved {
  /// The reduced model (eliminated variables removed, redundant rows
  /// dropped, coefficients tightened).
  Model reduced;
  /// Original variable index of each reduced column.
  std::vector<int> orig_of_reduced;
  /// Reduced column of each original variable, or -1 if eliminated.
  std::vector<int> reduced_of_orig;
  /// Value of each original variable; meaningful where reduced_of_orig is
  /// -1 (binaries are exact 0.0/1.0 there).
  std::vector<double> fixed_value;
  /// Bound propagation proved the explicit constraint system empty.
  bool infeasible = false;

  int fixed_variables = 0;   ///< variables eliminated by fixing
  int removed_rows = 0;      ///< redundant + singleton rows dropped
  int tightened_coefs = 0;   ///< coefficient-tightening edits on <= rows

  bool identity() const {
    return fixed_variables == 0 && removed_rows == 0 && tightened_coefs == 0;
  }

  /// Maps a reduced-space point back to the original space by re-inserting
  /// the fixed values. Exact: eliminated entries are the stored doubles, the
  /// surviving entries are copied through untouched, so downstream consumers
  /// see the original variable space byte-identically.
  std::vector<double> postsolve(const std::vector<double>& reduced_x) const;

  /// Projects an original-space point onto the reduced space. Returns empty
  /// if the point disagrees with a fixed value beyond `tol` (the warm start
  /// is then simply dropped — it was infeasible anyway).
  std::vector<double> restrict_point(const std::vector<double>& orig_x,
                                     double tol = 1e-6) const;

  /// Translates an original-space row (a lazy constraint or cutting plane)
  /// into the reduced space: fixed variables fold into the right-hand side.
  /// If every term folds away and the residual row is violated, the returned
  /// row is a bound-contradicting unit row on column 0, making the reduced
  /// model infeasible — which is exactly the original semantics (the fixings
  /// are implied by the explicit rows, so a cut no fixing can satisfy proves
  /// the full model empty).
  Constraint translate(const Constraint& row) const;
};

/// Runs bound propagation, singleton-row substitution, redundant-row
/// removal, binary fixing, and coefficient tightening on the model, and
/// returns the reduced model plus the exact postsolve mapping.
Presolved presolve(const Model& model);

}  // namespace xring::milp
