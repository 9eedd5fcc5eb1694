#include "ring/tsp_model.hpp"

#include <algorithm>

namespace xring::ring {

TspModel::TspModel(const netlist::Floorplan& floorplan,
                   const ConflictOracle& oracle, ConflictMode mode)
    : oracle_(&oracle), edges_(floorplan.size()), mode_(mode) {
  const int n = floorplan.size();

  // One binary per directed edge; the objective coefficient is the edge's
  // Manhattan length in micrometres (Eq. 4).
  for (int e = 0; e < edges_.count(); ++e) {
    const auto [from, to] = edges_.edge(e);
    model_.add_binary(static_cast<double>(floorplan.distance(from, to)));
  }

  // Eq. 1: every vertex has exactly one selected outgoing and one selected
  // incoming edge.
  for (NodeId v = 0; v < n; ++v) {
    milp::Terms out_terms, in_terms;
    out_terms.reserve(n - 1);
    in_terms.reserve(n - 1);
    for (NodeId u = 0; u < n; ++u) {
      if (u == v) continue;
      out_terms.emplace_back(edges_.index(v, u), 1.0);
      in_terms.emplace_back(edges_.index(u, v), 1.0);
    }
    model_.add_constraint(std::move(out_terms), milp::Sense::kEq, 1.0);
    model_.add_constraint(std::move(in_terms), milp::Sense::kEq, 1.0);
  }

  // Eq. 2: no 2-cycles. In kSeparated mode these n(n-1)/2 rows — the bulk
  // of the root LP at large N — are left out and recovered on demand: as
  // cutting planes where the relaxation violates them (cut_separator) and
  // as lazy rows where an integer candidate does (lazy_handler).
  if (mode_ != ConflictMode::kSeparated) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        model_.add_constraint(
            {{edges_.index(i, j), 1.0}, {edges_.index(j, i), 1.0}},
            milp::Sense::kLe, 1.0);
      }
    }
  }
}

void TspModel::add_symmetry_breaking(const std::vector<NodeId>& reference) {
  const int n = edges_.nodes();
  if (n < 3 || static_cast<int>(reference.size()) != n) return;
  const auto pos0 = std::find(reference.begin(), reference.end(), 0);
  if (pos0 == reference.end()) return;
  const int i = static_cast<int>(pos0 - reference.begin());
  const NodeId succ = reference[(i + 1) % n];
  const NodeId pred = reference[(i + n - 1) % n];

  // At any integer point the row value is succ(0) - pred(0): node 0 has
  // exactly one outgoing and one incoming edge (Eq. 1), so exactly one
  // +u and one -u term are active. Reversing a selection swaps succ and
  // pred, negating the value — forcing its sign keeps one orientation of
  // every mirror pair, the one `reference` uses.
  milp::Terms terms;
  terms.reserve(2 * (n - 1));
  for (NodeId u = 1; u < n; ++u) {
    terms.emplace_back(edges_.index(0, u), static_cast<double>(u));
    terms.emplace_back(edges_.index(u, 0), -static_cast<double>(u));
  }
  if (succ < pred) {
    model_.add_constraint(std::move(terms), milp::Sense::kLe, -1.0);
  } else {
    model_.add_constraint(std::move(terms), milp::Sense::kGe, 1.0);
  }
}

milp::LazyConstraintHandler TspModel::lazy_handler() const {
  const ConflictOracle* oracle = oracle_;
  const EdgeSpace edges = edges_;
  const bool two_cycles = (mode_ == ConflictMode::kSeparated);
  return [oracle, edges, two_cycles](const std::vector<double>& x) {
    // Collect the selected directed edges and emit an Eq. 3 row for every
    // conflicting pair among them.
    std::vector<int> picked;
    for (int e = 0; e < edges.count(); ++e) {
      if (x[e] > 0.5) picked.push_back(e);
    }
    std::vector<milp::Constraint> cuts;
    if (two_cycles) {
      // Eq. 2 is not in the root model: reject any selected 2-cycle.
      for (int e : picked) {
        const int r = edges.reverse(e);
        if (r > e && x[r] > 0.5) {
          milp::Constraint c;
          c.terms = {{e, 1.0}, {r, 1.0}};
          c.sense = milp::Sense::kLe;
          c.rhs = 1.0;
          cuts.push_back(std::move(c));
        }
      }
    }
    for (std::size_t i = 0; i < picked.size(); ++i) {
      for (std::size_t j = i + 1; j < picked.size(); ++j) {
        if (!oracle->conflict(edges, picked[i], picked[j])) continue;
        const auto [a1, a2] = edges.edge(picked[i]);
        const auto [b1, b2] = edges.edge(picked[j]);
        milp::Constraint c;
        c.terms = {{edges.index(a1, a2), 1.0},
                   {edges.index(a2, a1), 1.0},
                   {edges.index(b1, b2), 1.0},
                   {edges.index(b2, b1), 1.0}};
        c.sense = milp::Sense::kLe;
        c.rhs = 1.0;
        cuts.push_back(std::move(c));
      }
    }
    return cuts;
  };
}

milp::CutSeparator TspModel::cut_separator() const {
  const ConflictOracle* oracle = oracle_;
  const EdgeSpace edges = edges_;
  const bool two_cycles = (mode_ == ConflictMode::kSeparated);
  return [oracle, edges, two_cycles](const std::vector<double>& x) {
    constexpr double kMinViolation = 1e-4;
    constexpr int kMaxCuts = 64;
    const int n = edges.nodes();
    std::vector<milp::Constraint> cuts;

    // Violated Eq. 2 rows (kSeparated only; in kLazy they are all present).
    if (two_cycles) {
      for (NodeId i = 0; i < n && static_cast<int>(cuts.size()) < kMaxCuts;
           ++i) {
        for (NodeId j = i + 1; j < n; ++j) {
          const int e = edges.index(i, j);
          const int r = edges.index(j, i);
          if (x[e] + x[r] <= 1.0 + kMinViolation) continue;
          milp::Constraint c;
          c.terms = {{e, 1.0}, {r, 1.0}};
          c.sense = milp::Sense::kLe;
          c.rhs = 1.0;
          cuts.push_back(std::move(c));
          if (static_cast<int>(cuts.size()) >= kMaxCuts) break;
        }
      }
    }

    // Violated Eq. 3 rows on the fractional support. The row for a
    // conflicting pair {a, b} reads X_a + X_b <= 1 with X the undirected
    // edge mass x_uv + x_vu; a violation needs max(X_a, X_b) > 1/2, so only
    // "heavy" undirected edges (of which the degree rows allow at most ~2n)
    // need pairing against the rest of the support — O(n * support) oracle
    // probes instead of all pairs.
    struct UEdge {
      NodeId u, v;
      double mass;
    };
    std::vector<UEdge> support;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        const double m = x[edges.index(u, v)] + x[edges.index(v, u)];
        if (m > kMinViolation) support.push_back({u, v, m});
      }
    }
    for (std::size_t a = 0;
         a < support.size() && static_cast<int>(cuts.size()) < kMaxCuts; ++a) {
      if (support[a].mass <= 0.5) continue;
      for (std::size_t b = 0; b < support.size(); ++b) {
        if (b == a || (support[b].mass > 0.5 && b < a)) continue;  // dedupe
        if (support[a].mass + support[b].mass <= 1.0 + kMinViolation) continue;
        const UEdge& A = support[a];
        const UEdge& B = support[b];
        if (!oracle->conflict(A.u, A.v, B.u, B.v)) continue;
        milp::Constraint c;
        c.terms = {{edges.index(A.u, A.v), 1.0},
                   {edges.index(A.v, A.u), 1.0},
                   {edges.index(B.u, B.v), 1.0},
                   {edges.index(B.v, B.u), 1.0}};
        c.sense = milp::Sense::kLe;
        c.rhs = 1.0;
        cuts.push_back(std::move(c));
        if (static_cast<int>(cuts.size()) >= kMaxCuts) break;
      }
    }
    return cuts;
  };
}

std::vector<double> TspModel::warm_start_from(
    const std::vector<NodeId>& order) const {
  std::vector<double> x(edges_.count(), 0.0);
  const int n = static_cast<int>(order.size());
  for (int i = 0; i < n; ++i) {
    x[edges_.index(order[i], order[(i + 1) % n])] = 1.0;
  }
  return x;
}

std::vector<std::pair<NodeId, NodeId>> TspModel::selected_edges(
    const std::vector<double>& x) const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (int e = 0; e < edges_.count(); ++e) {
    if (x[e] > 0.5) out.push_back(edges_.edge(e));
  }
  return out;
}

}  // namespace xring::ring
