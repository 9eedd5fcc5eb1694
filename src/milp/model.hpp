#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lp/simplex.hpp"

namespace xring::milp {

using lp::Sense;

/// Variable domain. The XRing model is a pure 0/1 program, but continuous
/// variables are supported so the solver stands alone as a substrate.
enum class VarType { kContinuous, kBinary };

/// A linear term list: (variable index, coefficient) pairs.
using Terms = std::vector<std::pair<int, double>>;

/// A linear constraint `terms (<=|>=|=) rhs`.
struct Constraint {
  Terms terms;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// A mixed-integer linear program:
///
///   minimize (or maximize) c'x
///   subject to linear constraints, variable bounds, and integrality on the
///   binary variables.
class Model {
 public:
  /// Adds a variable; binary variables are clamped to [0, 1].
  int add_variable(VarType type, double lo, double hi, double objective);

  /// Shorthand for a binary variable with the given objective coefficient.
  int add_binary(double objective) {
    return add_variable(VarType::kBinary, 0.0, 1.0, objective);
  }

  /// Adds a constraint. Terms are canonicalized once at insert: sorted by
  /// variable index with duplicate variables accumulated into a single
  /// coefficient (zero-sum duplicates are dropped), so every stored row
  /// holds each variable at most once, in index order.
  int add_constraint(Constraint c);
  int add_constraint(Terms terms, Sense sense, double rhs) {
    return add_constraint(Constraint{std::move(terms), sense, rhs});
  }

  void set_maximize(bool maximize) { maximize_ = maximize; }
  bool maximize() const { return maximize_; }

  int num_variables() const { return static_cast<int>(types_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  VarType type(int var) const { return types_[var]; }
  double lower(int var) const { return lower_[var]; }
  double upper(int var) const { return upper_[var]; }
  double objective(int var) const { return objective_[var]; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

 private:
  std::vector<VarType> types_;
  std::vector<double> lower_, upper_, objective_;
  std::vector<Constraint> constraints_;
  bool maximize_ = false;
};

}  // namespace xring::milp
