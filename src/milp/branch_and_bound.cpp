#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "obs/events.hpp"
#include "obs/obs.hpp"

namespace xring::milp {

std::string to_string(MipStatus s) {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kUnbounded: return "unbounded";
    case MipStatus::kNoSolution: return "no-solution";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// A binary within this distance of 0 or 1 counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// Relative optimality gap at which a queued node is pruned.
constexpr double kGap = 1e-9;
/// Cut separation budget: rounds per node, and the node depth past which
/// separation stops (deep nodes rarely produce globally useful cuts).
constexpr int kMaxCutRounds = 8;
constexpr int kCutDepthLimit = 8;

/// A search node is the list of branching decisions that produced it plus the
/// LP bound of its parent (used as the best-first priority).
struct Node {
  std::vector<std::pair<int, double>> fixings;  // (var, value in {0,1})
  double bound;  // parent's LP objective, in minimization sense
  int depth = 0;
  long seq = 0;  // creation order; total-order tie-breaker
  int cut_rounds = 0;  // separation rounds already spent on this node
  /// The parent's optimal basis: the child's relaxation differs by one bound
  /// change, so the LP warm-starts from it with a few dual pivots. Shared
  /// (immutable) between siblings.
  std::shared_ptr<const lp::WarmBasis> warm;
};

/// Best-first order: lowest bound, then deepest (dive), then creation order.
/// The `seq` tie-break makes the order *total*, so the pop sequence — and
/// with it the whole search — is fully determined by the model.
struct NodeBetter {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    if (a.depth != b.depth) return a.depth > b.depth;
    return a.seq < b.seq;
  }
};

/// A node relaxation plus the optimal basis it exported (empty unless the
/// solve ended kOptimal); children warm-start from that basis.
struct NodeSolve {
  lp::Solution sol;
  std::shared_ptr<const lp::WarmBasis> basis;
};

/// LP problem mirroring the MILP; rows grow as lazy constraints arrive.
lp::Problem build_lp(const Model& model) {
  lp::Problem p;
  p.set_maximize(false);  // objective sign normalized below
  const double sign = model.maximize() ? -1.0 : 1.0;
  for (int v = 0; v < model.num_variables(); ++v) {
    p.add_variable(model.lower(v), model.upper(v), sign * model.objective(v));
  }
  for (const Constraint& c : model.constraints()) {
    p.add_constraint(c.terms, c.sense, c.rhs);
  }
  return p;
}

void append_rows(lp::Problem& p, const std::vector<Constraint>& rows) {
  for (const Constraint& c : rows) p.add_constraint(c.terms, c.sense, c.rhs);
}

bool is_integral(const Model& model, const std::vector<double>& x) {
  for (int v = 0; v < model.num_variables(); ++v) {
    if (model.type(v) != VarType::kBinary) continue;
    if (std::abs(x[v] - std::round(x[v])) > kIntegralityTol) return false;
  }
  return true;
}

/// Checks a point against every *explicit* model constraint (used to vet
/// warm starts, whose origin is a heuristic outside the solver).
bool satisfies(const Model& model, const std::vector<double>& x) {
  constexpr double tol = 1e-6;
  for (const Constraint& c : model.constraints()) {
    double lhs = 0.0;
    for (const auto& [var, coef] : c.terms) lhs += coef * x[var];
    switch (c.sense) {
      case Sense::kLe: if (lhs > c.rhs + tol) return false; break;
      case Sense::kGe: if (lhs < c.rhs - tol) return false; break;
      case Sense::kEq: if (std::abs(lhs - c.rhs) > tol) return false; break;
    }
  }
  for (int v = 0; v < model.num_variables(); ++v) {
    if (x[v] < model.lower(v) - tol || x[v] > model.upper(v) + tol) return false;
  }
  return true;
}

double objective_of(const Model& model, const std::vector<double>& x) {
  double obj = 0.0;
  for (int v = 0; v < model.num_variables(); ++v) {
    obj += model.objective(v) * x[v];
  }
  return obj;
}

}  // namespace

MipResult solve(const Model& model, const BnbOptions& options) {
  obs::Span span("milp.solve");
  const auto start = Clock::now();
  const double sign = model.maximize() ? -1.0 : 1.0;
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // New incumbents are timestamped into the registry as they are found (in
  // the caller's objective sense), giving the convergence timeline that the
  // trace's "C" events and the solver-telemetry tests read back.
  auto note_incumbent = [&](double obj_minimized) {
    if (obs::enabled()) {
      obs::registry().append_series("milp.incumbent", sign * obj_minimized);
      obs::registry().counter("milp.incumbents").add();
    }
  };
  auto record_totals = [](const MipResult& r) {
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::registry();
    reg.counter("milp.solves").add();
    reg.counter("milp.nodes").add(r.nodes);
    reg.counter("milp.lazy_cuts").add(r.lazy_constraints_added);
  };

  MipResult result;
  lp::Problem relaxation = build_lp(model);

  // Progress telemetry into the JSONL event stream (obs/events.hpp):
  // timestamped incumbent/bound/gap/open-node records from the search loop.
  // Values are reported in the caller's objective sense; the gap is
  // sign-invariant.
  auto emit_event = [&](const char* kind, std::size_t open_count,
                        double incumbent_min, double bound_min) {
    if (!obs::events::enabled()) return;
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    const bool has_inc = incumbent_min < lp::kInfinity;
    const bool has_bound = bound_min > -lp::kInfinity;
    double gap = kNaN;
    if (has_inc && has_bound) {
      gap = (incumbent_min - bound_min) /
            std::max(1.0, std::abs(incumbent_min));
    }
    obs::events::emit(
        kind,
        {{"nodes", static_cast<double>(result.nodes)},
         {"open", static_cast<double>(open_count)},
         {"incumbent", has_inc ? sign * incumbent_min : kNaN},
         {"bound", has_bound ? sign * bound_min : kNaN},
         {"gap", gap},
         {"lazy_cuts", static_cast<double>(result.lazy_constraints_added)}});
  };
  // Per-node events are throttled to every kEventStride-th node; incumbent,
  // lazy-cut, and terminal events always fire.
  constexpr long long kEventStride = 32;

  double incumbent_obj = lp::kInfinity;  // minimization sense
  std::vector<double> incumbent;

  // Vet the warm start: it must satisfy every explicit constraint, be
  // integral, and survive the lazy handler.
  if (options.warm_start &&
      static_cast<int>(options.warm_start->size()) == model.num_variables() &&
      satisfies(model, *options.warm_start) &&
      is_integral(model, *options.warm_start)) {
    std::vector<Constraint> cuts;
    if (options.lazy_handler) cuts = options.lazy_handler(*options.warm_start);
    if (cuts.empty()) {
      incumbent = *options.warm_start;
      incumbent_obj = sign * objective_of(model, incumbent);
      result.status = MipStatus::kFeasible;
      note_incumbent(incumbent_obj);
      emit_event("milp.incumbent", 0, incumbent_obj, -lp::kInfinity);
    } else {
      append_rows(relaxation, cuts);
      result.lazy_constraints_added += static_cast<int>(cuts.size());
    }
  }

  std::set<Node, NodeBetter> open;
  long next_seq = 0;
  auto push = [&](Node n) {
    n.seq = next_seq++;
    open.insert(std::move(n));
  };
  push(Node{{}, -lp::kInfinity, 0, 0, 0, nullptr});

  std::vector<double> saved_lo(model.num_variables());
  std::vector<double> saved_hi(model.num_variables());
  for (int v = 0; v < model.num_variables(); ++v) {
    saved_lo[v] = model.lower(v);
    saved_hi[v] = model.upper(v);
  }

  // The node relaxation: the node's fixings applied to the shared LP, solved
  // from the parent's warm basis, then the bounds restored.
  auto solve_node = [&](const Node& node) -> NodeSolve {
    for (const auto& [var, val] : node.fixings) {
      relaxation.set_bounds(var, val, val);
    }
    lp::SolveOptions opt;
    opt.warm_start = node.warm.get();
    auto basis = std::make_shared<lp::WarmBasis>();
    opt.export_basis = basis.get();
    NodeSolve ns{lp::solve(relaxation, opt), std::move(basis)};
    for (const auto& [var, val] : node.fixings) {
      relaxation.set_bounds(var, saved_lo[var], saved_hi[var]);
    }
    return ns;
  };

  bool hit_limit = false;
  bool lp_trouble = false;

  while (!open.empty()) {
    if (elapsed() > options.time_limit_seconds ||
        result.nodes >= options.node_limit) {
      hit_limit = true;
      break;
    }
    Node node = *open.begin();
    open.erase(open.begin());
    if (incumbent_obj < lp::kInfinity &&
        node.bound >= incumbent_obj - std::abs(incumbent_obj) * kGap - 1e-9) {
      continue;  // pruned by an incumbent found after the node was queued
    }
    ++result.nodes;
    if (result.nodes % kEventStride == 1) {
      // node.bound is the best-first key, i.e. the global lower bound here.
      emit_event("milp.node", open.size() + 1, incumbent_obj, node.bound);
    }

    NodeSolve solved = solve_node(node);
    lp::Solution& rel = solved.sol;
    if (obs::enabled()) {
      if (rel.stats.warm) {
        obs::registry().counter("milp.warm_pivots").add(rel.stats.dual_pivots);
      } else {
        obs::registry().counter("milp.cold_solves").add();
      }
    }
    const bool basis_usable = solved.basis && solved.basis->valid();

    if (rel.status == lp::Status::kInfeasible) continue;
    if (rel.status == lp::Status::kUnbounded) {
      if (node.fixings.empty() && incumbent.empty()) {
        result.status = MipStatus::kUnbounded;
        result.seconds = elapsed();
        record_totals(result);
        obs::diagnose(obs::Severity::kError, "milp.unbounded",
                      "MILP relaxation is unbounded at the root");
        return result;
      }
      continue;
    }
    if (rel.status == lp::Status::kIterationLimit) {
      lp_trouble = true;
      continue;
    }

    const double bound = rel.objective;  // minimization sense (normalized)
    if (bound >= incumbent_obj - 1e-9) continue;

    if (is_integral(model, rel.x)) {
      // Round exactly-integral values to kill drift before the lazy check.
      for (int v = 0; v < model.num_variables(); ++v) {
        if (model.type(v) == VarType::kBinary) rel.x[v] = std::round(rel.x[v]);
      }
      std::vector<Constraint> cuts;
      if (options.lazy_handler) cuts = options.lazy_handler(rel.x);
      if (!cuts.empty()) {
        append_rows(relaxation, cuts);
        result.lazy_constraints_added += static_cast<int>(cuts.size());
        emit_event("milp.lazy_cuts", open.size() + 1, incumbent_obj, bound);
        // Re-queue the same node: its LP now sees the new rows. It restarts
        // from the basis this solve just exported — the LP extends it over
        // the appended rows and repairs it with dual pivots.
        if (basis_usable) node.warm = solved.basis;
        push(node);
        continue;
      }
      incumbent = rel.x;
      // Recompute the incumbent objective from the rounded point rather
      // than trusting the LP bound: the sum over integral values is exact
      // and identical no matter which kernel (or warm path) produced x.
      incumbent_obj = sign * objective_of(model, incumbent);
      note_incumbent(incumbent_obj);
      emit_event("milp.incumbent", open.size(), incumbent_obj, bound);
      continue;
    }

    // Fractional point: give the cut separator a bounded number of chances
    // to tighten the relaxation before committing to a branch. Cuts ride the
    // exact machinery lazy rows use: append globally, then requeue the node
    // on its warm basis.
    if (options.cut_separator && node.cut_rounds < kMaxCutRounds &&
        node.depth <= kCutDepthLimit) {
      std::vector<Constraint> cuts = options.cut_separator(rel.x);
      cuts.erase(std::remove_if(cuts.begin(), cuts.end(),
                                [](const Constraint& c) {
                                  return c.terms.empty();
                                }),
                 cuts.end());
      if (!cuts.empty()) {
        append_rows(relaxation, cuts);
        result.cutting_planes_added += static_cast<int>(cuts.size());
        if (obs::enabled()) {
          obs::registry().counter("milp.cuts_added").add(
              static_cast<long>(cuts.size()));
          obs::registry().counter("milp.cut_rounds").add();
        }
        emit_event("milp.cuts", open.size() + 1, incumbent_obj, bound);
        ++node.cut_rounds;
        if (basis_usable) node.warm = solved.basis;
        push(node);
        continue;
      }
    }

    // Branch on the most fractional binary variable.
    int branch_var = -1;
    double best_frac = kIntegralityTol;
    for (int v = 0; v < model.num_variables(); ++v) {
      if (model.type(v) != VarType::kBinary) continue;
      const double f = std::abs(rel.x[v] - std::round(rel.x[v]));
      if (f > best_frac) {
        best_frac = f;
        branch_var = v;
      }
    }
    if (branch_var < 0) continue;  // defensive: integral handled above

    for (const double val : {1.0, 0.0}) {
      Node child = node;
      child.fixings.emplace_back(branch_var, val);
      child.bound = bound;
      child.depth = node.depth + 1;
      child.cut_rounds = 0;  // fresh separation budget per node
      if (basis_usable) child.warm = solved.basis;
      push(std::move(child));
    }
  }

  result.seconds = elapsed();
  record_totals(result);
  if (!incumbent.empty()) {
    result.x = incumbent;
    result.objective = sign * incumbent_obj;
    result.status =
        (hit_limit || lp_trouble) ? MipStatus::kFeasible : MipStatus::kOptimal;
  } else if (hit_limit || lp_trouble) {
    result.status = MipStatus::kNoSolution;
  } else {
    result.status = MipStatus::kInfeasible;
  }
  // Surface search trouble as structured diagnostics: an infeasible model is
  // a hard error for the caller; a limit stop means the returned solution
  // (if any) carries no optimality certificate.
  if (result.status == MipStatus::kInfeasible) {
    obs::diagnose(obs::Severity::kError, "milp.infeasible",
                  "MILP model is infeasible",
                  {{"nodes", std::to_string(result.nodes)}});
  } else if (hit_limit) {
    const bool node_stop = result.nodes >= options.node_limit;
    obs::diagnose(obs::Severity::kWarning,
                  node_stop ? "milp.node_limit" : "milp.time_limit",
                  std::string("branch & bound stopped at the ") +
                      (node_stop ? "node" : "time") + " limit with status " +
                      to_string(result.status),
                  {{"status", to_string(result.status)},
                   {"nodes", std::to_string(result.nodes)},
                   {"seconds", std::to_string(result.seconds)}});
  } else if (lp_trouble) {
    obs::diagnose(obs::Severity::kWarning, "milp.lp_iteration_limit",
                  "an LP relaxation hit its iteration limit; its subtree was "
                  "pruned without a bound certificate",
                  {{"status", to_string(result.status)}});
  }
  // An exhausted open set proves the incumbent optimal, so the final bound
  // meets it; a limit stop reports the best remaining open bound instead
  // (best-first order makes the first open node the global bound).
  const double bound_min = open.empty() ? incumbent_obj : open.begin()->bound;
  result.best_bound = sign * bound_min;
  emit_event("milp.done", open.size(), incumbent_obj, bound_min);
  return result;
}

}  // namespace xring::milp
