#include "ring/heuristic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"

namespace xring::ring {

geom::Coord tour_length(const std::vector<NodeId>& order,
                        const netlist::Floorplan& floorplan) {
  const int n = static_cast<int>(order.size());
  geom::Coord total = 0;
  for (int i = 0; i < n; ++i) {
    total += floorplan.distance(order[i], order[(i + 1) % n]);
  }
  return total;
}

namespace {

/// The tour's edges, as the set the oracle counts against.
ConflictOracle::EdgeSet tour_edges(const std::vector<NodeId>& order,
                                   const ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  ConflictOracle::EdgeSet edges(oracle);
  for (int k = 0; k < n; ++k) edges.insert(order[k], order[(k + 1) % n]);
  return edges;
}

/// Conflicting pairs among the tour's edges: each pair is counted once from
/// either side, so half the sum of every edge's count against the tour.
int conflicting_pairs(const std::vector<NodeId>& order,
                      const ConflictOracle::EdgeSet& edges,
                      const ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  int twice = 0;
  for (int k = 0; k < n; ++k) {
    twice += oracle.conflicts_with(edges, order[k], order[(k + 1) % n]);
  }
  return twice / 2;
}

}  // namespace

int tour_conflicts(const std::vector<NodeId>& order,
                   const ConflictOracle& oracle) {
  return conflicting_pairs(order, tour_edges(order, oracle), oracle);
}

geom::Coord tour_lower_bound(const netlist::Floorplan& floorplan) {
  const int n = floorplan.size();
  if (n < 3) return 0;
  geom::Coord doubled = 0;
  for (NodeId v = 0; v < n; ++v) {
    geom::Coord min1 = std::numeric_limits<geom::Coord>::max();
    geom::Coord min2 = std::numeric_limits<geom::Coord>::max();
    for (NodeId u = 0; u < n; ++u) {
      if (u == v) continue;
      const geom::Coord d = floorplan.distance(v, u);
      if (d < min1) {
        min2 = min1;
        min1 = d;
      } else if (d < min2) {
        min2 = d;
      }
    }
    doubled += min1 + min2;
  }
  return (doubled + 1) / 2;
}

namespace {

/// The LNS destroy schedule's seed, the consecutive tour positions each
/// repair destroys, and the repair attempts per node of the instance.
constexpr unsigned kLnsSeed = 1;
constexpr int kLnsWindow = 12;
constexpr int kLnsAttemptsPerNode = 4;
/// Node budget per repair MILP. Repairs are node-limited, never
/// time-limited, so every repair outcome is machine- and jobs-independent.
constexpr long kRepairNodeLimit = 400;

geom::Coord penalized_cost(const std::vector<NodeId>& order,
                           const netlist::Floorplan& floorplan,
                           const ConflictOracle& oracle) {
  return tour_length(order, floorplan) +
         kConflictPenalty * tour_conflicts(order, oracle);
}

/// Nearest-neighbour construction from one start node (lowest-id tie-break).
std::vector<NodeId> nearest_neighbour_from(const netlist::Floorplan& floorplan,
                                           NodeId start) {
  const int n = floorplan.size();
  std::vector<NodeId> order;
  std::vector<bool> used(n, false);
  order.reserve(n);
  order.push_back(start);
  used[start] = true;
  while (static_cast<int>(order.size()) < n) {
    const NodeId last = order.back();
    NodeId best = -1;
    geom::Coord best_d = std::numeric_limits<geom::Coord>::max();
    for (NodeId v = 0; v < n; ++v) {
      if (used[v]) continue;
      const geom::Coord d = floorplan.distance(last, v);
      if (d < best_d) {
        best_d = d;
        best = v;
      }
    }
    order.push_back(best);
    used[best] = true;
  }
  return order;
}

}  // namespace

void two_opt(std::vector<NodeId>& order, const netlist::Floorplan& floorplan,
             const ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  if (n < 3) return;
  // Running penalized state, maintained exactly (integer µm and counts):
  // accepting a move applies the same deltas the candidate was scored with,
  // so there is no drift and the accept/reject sequence is identical to a
  // full re-evaluation of every candidate.
  geom::Coord length = tour_length(order, floorplan);
  ConflictOracle::EdgeSet edges = tour_edges(order, oracle);
  long long conflicts = conflicting_pairs(order, edges, oracle);

  for (int round = 0; round < kTwoOptRounds; ++round) {
    bool improved = false;
    for (int i = 0; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;  // full reversal is a no-op
        // Reversing order[i..j] swaps boundary edges (a,b),(c,d) for
        // (a,c),(b,d); interior edges only flip direction, which the
        // conflict predicate ignores.
        const int pi = (i + n - 1) % n;
        const int nj = (j + 1) % n;
        const NodeId a = order[pi], b = order[i];
        const NodeId c = order[j], d = order[nj];
        const geom::Coord dl =
            floorplan.distance(a, c) + floorplan.distance(b, d) -
            floorplan.distance(a, b) - floorplan.distance(c, d);
        // On a conflict-free tour a move can only add conflicts, so a
        // non-improving length delta can never win — skip the conflict
        // counts entirely (the dominant case once the tour is legal).
        if (conflicts == 0 && dl >= 0) continue;
        // Conflicts of edge {x, y} with the tour edges the move keeps: the
        // whole tour less the two edges it removes.
        const auto kept = [&](NodeId x, NodeId y) {
          return oracle.conflicts_with(edges, x, y) -
                 oracle.conflict(x, y, a, b) - oracle.conflict(x, y, c, d);
        };
        const long long dc = kept(a, c) + kept(b, d) - kept(a, b) -
                             kept(c, d) + oracle.conflict(a, c, b, d) -
                             oracle.conflict(a, b, c, d);
        if (dl + kConflictPenalty * dc < 0) {
          std::reverse(order.begin() + i, order.begin() + j + 1);
          edges.erase(a, b);
          edges.erase(c, d);
          edges.insert(a, c);
          edges.insert(b, d);
          length += dl;
          conflicts += dc;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
}

void or_opt(std::vector<NodeId>& order, const netlist::Floorplan& floorplan,
            const ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  if (n < 5) return;
  geom::Coord length = tour_length(order, floorplan);
  ConflictOracle::EdgeSet edges = tour_edges(order, oracle);
  long long conflicts = conflicting_pairs(order, edges, oracle);

  // Relocating order[i..i+len-1] across the tour edge at position j swaps
  // removed edges R = {(a,b),(c,d),(e,f)} for added edges
  // A = {(a,d),(e,head),(tail,f)} with head/tail the segment ends in
  // insertion order. Conflict delta: each edge of R and A counted against
  // the kept tour edges (the tour less R), plus the pairs inside R and A
  // (conflicts are undirected, so the segment's interior edges — unchanged
  // up to direction — drop out).
  const auto conflict_delta = [&](NodeId a, NodeId b, NodeId c, NodeId d,
                                  NodeId e, NodeId f, NodeId head,
                                  NodeId tail) {
    const auto kept = [&](NodeId x, NodeId y) {
      return oracle.conflicts_with(edges, x, y) -
             oracle.conflict(x, y, a, b) - oracle.conflict(x, y, c, d) -
             oracle.conflict(x, y, e, f);
    };
    long long dc = kept(a, d) + kept(e, head) + kept(tail, f) - kept(a, b) -
                   kept(c, d) - kept(e, f);
    dc += oracle.conflict(a, d, e, head) + oracle.conflict(a, d, tail, f) +
          oracle.conflict(e, head, tail, f);
    dc -= oracle.conflict(a, b, c, d) + oracle.conflict(a, b, e, f) +
          oracle.conflict(c, d, e, f);
    return dc;
  };

  // Every accepted move strictly decreases the penalized cost, so scanning
  // on after a splice (instead of restarting) cannot cycle; a round without
  // any accepted move is a fixpoint.
  for (int round = 0; round < kOrOptRounds; ++round) {
    bool improved = false;
    for (int len = 1; len <= 3 && len <= n - 4; ++len) {
      for (int i = 0; i + len <= n; ++i) {
        // Segment order[i .. i+len-1], entered from a and left toward d.
        const NodeId a = order[(i + n - 1) % n];
        const NodeId b = order[i];
        const NodeId c = order[i + len - 1];
        const NodeId d = order[(i + len) % n];
        const geom::Coord base = floorplan.distance(a, d) -
                                 floorplan.distance(a, b) -
                                 floorplan.distance(c, d);
        bool moved = false;
        for (int j = 0; j < n && !moved; ++j) {
          // Re-insert across tour edge (e, f) at position j; the edge must
          // survive the removal, i.e. j outside [i-1, i+len-1] (cyclically).
          const int rel = (j - (i - 1) + n) % n;
          if (rel <= len) continue;
          const NodeId e = order[j], f = order[(j + 1) % n];
          for (const bool reversed : {false, true}) {
            if (len == 1 && reversed) continue;  // identical move
            const NodeId head = reversed ? c : b;  // node joined to e
            const NodeId tail = reversed ? b : c;  // node joined to f
            const geom::Coord dl = base + floorplan.distance(e, head) +
                                   floorplan.distance(tail, f) -
                                   floorplan.distance(e, f);
            if (conflicts == 0 && dl >= 0) continue;  // cannot win (cf. two_opt)
            const long long dc =
                conflict_delta(a, b, c, d, e, f, head, tail);
            if (dl + kConflictPenalty * dc >= 0) continue;

            // Apply: cut the segment out, then splice it back in after e.
            std::vector<NodeId> seg(order.begin() + i,
                                    order.begin() + i + len);
            if (reversed) std::reverse(seg.begin(), seg.end());
            order.erase(order.begin() + i, order.begin() + i + len);
            const int at = j >= i + len ? j - len : j;  // e's index post-cut
            order.insert(order.begin() + at + 1, seg.begin(), seg.end());
            // Erase first: an edge of R can come back in A.
            edges.erase(a, b);
            edges.erase(c, d);
            edges.erase(e, f);
            edges.insert(a, d);
            edges.insert(e, head);
            edges.insert(tail, f);
            length += dl;
            conflicts += dc;
            improved = true;
            moved = true;
            break;
          }
        }
      }
    }
    if (!improved) break;
  }
}

std::vector<NodeId> heuristic_tour(const netlist::Floorplan& floorplan,
                                   const ConflictOracle& oracle) {
  const int n = floorplan.size();
  if (n == 0) return {};

  // Nearest-neighbour from every start node, each polished by 2-opt, on the
  // pool; the starts are independent. The incremental 2-opt keeps the O(N)
  // restarts affordable well past the paper's sizes, and they markedly
  // improve the warm start.
  std::vector<std::vector<NodeId>> orders(n);
  std::vector<geom::Coord> costs(n);
  par::parallel_for(par::global_pool(), 0, n, [&](long start) {
    std::vector<NodeId> order =
        nearest_neighbour_from(floorplan, static_cast<NodeId>(start));
    two_opt(order, floorplan, oracle);
    costs[start] = penalized_cost(order, floorplan, oracle);
    orders[start] = std::move(order);
  });
  // Reduce in start order: the lowest cost wins, a tie goes to the lowest
  // start, so the tour is the same at every pool size.
  int best = 0;
  for (int start = 1; start < n; ++start) {
    if (costs[start] < costs[best]) best = start;
  }
  return std::move(orders[best]);
}

namespace {

/// One LNS repair: re-optimize the m interior nodes of the tour window
/// starting at position `s` with an exact MILP, keeping the rest of the
/// tour frozen. Returns true and splices the improvement into `order` (and
/// the running totals) when the repair strictly improves the penalized cost.
bool repair_window(std::vector<NodeId>& order,
                   const netlist::Floorplan& floorplan,
                   const ConflictOracle& oracle, int s, int m,
                   geom::Coord& length, long long& conflicts) {
  const int n = static_cast<int>(order.size());
  const int local = m + 2;  // window interior plus the two pinned endpoints
  // Global node of local slot t: the tour positions s .. s+m+1.
  std::vector<NodeId> g(local);
  for (int t = 0; t < local; ++t) g[t] = order[(s + t) % n];

  // The frozen tour edges: every hop outside positions s..s+m.
  ConflictOracle::EdgeSet frozen(oracle);
  for (int k = 0; k < n; ++k) {
    const int rel = (k - s + n) % n;
    if (rel <= m) continue;  // hops s..s+m are being re-decided
    frozen.insert(order[k], order[(k + 1) % n]);
  }

  // Current (destroyed) segment cost: its length plus every conflict that
  // involves at least one window hop — all of which a repair can remove.
  geom::Coord old_len = 0;
  long long old_conf = 0;
  for (int t = 0; t <= m; ++t) {
    old_len += floorplan.distance(g[t], g[t + 1]);
    old_conf += oracle.conflicts_with(frozen, g[t], g[t + 1]);
    for (int t2 = t + 1; t2 <= m; ++t2) {
      old_conf += oracle.conflict(g[t], g[t + 1], g[t2], g[t2 + 1]);
    }
  }

  // Sub-MILP: a Hamiltonian path through the window from the entry slot 0
  // to the exit slot local-1. Only edges that can lie on such a path get a
  // variable (in EdgeSpace order): none leaves the exit, enters the entry
  // or joins the two directly, and none conflicts with the frozen
  // remainder. Conflicts inside the window are exhaustive Eq.3 rows.
  const int exit = local - 1;
  const EdgeSpace edges(local);
  milp::Model model;
  std::vector<int> var(edges.count(), -1);  // edge -> variable, -1 if none
  for (int e = 0; e < edges.count(); ++e) {
    const auto [u, v] = edges.edge(e);
    if (u == exit || v == 0 || (u == 0 && v == exit)) continue;
    if (oracle.conflicts_with(frozen, g[u], g[v]) == 0) {
      var[e] = model.add_binary(
          static_cast<double>(floorplan.distance(g[u], g[v])));
    }
  }
  // Degree rows: one edge out of every slot but the exit, one edge into
  // every slot but the entry. A slot with no edge left has no repair.
  for (NodeId v = 0; v < local; ++v) {
    for (const bool out : {true, false}) {
      if (v == (out ? exit : 0)) continue;
      milp::Terms terms;
      for (NodeId u = 0; u < local; ++u) {
        if (u == v) continue;
        const int x = var[out ? edges.index(v, u) : edges.index(u, v)];
        if (x >= 0) terms.emplace_back(x, 1.0);
      }
      if (terms.empty()) return false;
      model.add_constraint(std::move(terms), milp::Sense::kEq, 1.0);
    }
  }
  // At most one of the listed edges; a row over fewer than two variables
  // restricts nothing and is left out.
  const auto add_at_most_one = [&](std::initializer_list<int> candidates) {
    milp::Terms terms;
    for (const int e : candidates) {
      if (var[e] >= 0) terms.emplace_back(var[e], 1.0);
    }
    if (terms.size() >= 2) {
      model.add_constraint(std::move(terms), milp::Sense::kLe, 1.0);
    }
  };
  for (NodeId i = 0; i < local; ++i) {
    for (NodeId j = i + 1; j < local; ++j) {
      add_at_most_one({edges.index(i, j), edges.index(j, i)});
    }
  }
  for (int p = 0; p < local; ++p) {
    for (int q = p + 1; q < local; ++q) {
      for (int r = p; r < local; ++r) {
        for (int w = r + 1; w < local; ++w) {
          if (std::make_pair(r, w) <= std::make_pair(p, q)) continue;
          // The entry-exit pair has no edge: the row would repeat the
          // other pair's 2-cycle row.
          if ((p == 0 && q == exit) || (r == 0 && w == exit)) continue;
          if (!oracle.conflict(g[p], g[q], g[r], g[w])) continue;
          add_at_most_one({edges.index(p, q), edges.index(q, p),
                           edges.index(r, w), edges.index(w, r)});
        }
      }
    }
  }

  milp::BnbOptions bnb;
  // Deterministic by construction: the node limit is the only stop (the
  // huge time limit never fires), and the search itself is bit-identical at
  // any thread count.
  bnb.time_limit_seconds = 1e9;
  bnb.node_limit = kRepairNodeLimit;
  // Feed the incumbent segment back in as the primal bound, unless one of
  // its edges conflicts with the frozen remainder.
  std::vector<double> warm(model.num_variables(), 0.0);
  bool warm_ok = true;
  for (int t = 0; t < exit && warm_ok; ++t) {
    const int x = var[edges.index(t, t + 1)];
    warm_ok = x >= 0;
    if (warm_ok) warm[x] = 1.0;
  }
  if (warm_ok) bnb.warm_start = std::move(warm);
  // Follows each slot's chosen out-edge; the exit leads back to the entry
  // over the virtual exit->entry edge, so a full path is one cycle.
  const auto successors = [&edges, &var, exit](const std::vector<double>& x) {
    std::vector<int> next(edges.nodes(), -1);
    for (int e = 0; e < edges.count(); ++e) {
      if (var[e] >= 0 && x[var[e]] > 0.5) {
        next[edges.edge(e).first] = edges.edge(e).second;
      }
    }
    next[exit] = 0;
    return next;
  };
  bnb.lazy_handler = [&edges, &var, &successors](const std::vector<double>& x) {
    // Sub-tour elimination: every cycle short of all slots gets a row.
    const int ln = edges.nodes();
    const std::vector<int> next = successors(x);
    std::vector<milp::Constraint> cuts;
    std::vector<bool> seen(ln, false);
    for (int start = 0; start < ln; ++start) {
      if (seen[start]) continue;
      std::vector<int> cycle;
      int v = start;
      while (v >= 0 && !seen[v]) {
        seen[v] = true;
        cycle.push_back(v);
        v = next[v];
      }
      if (static_cast<int>(cycle.size()) == ln || cycle.size() < 2) continue;
      milp::Constraint c;
      c.sense = milp::Sense::kLe;
      // The entry's cycle closes over the virtual edge, which has no
      // variable: it may keep |S| - 2 real edges.
      c.rhs = static_cast<double>(cycle.size()) - (start == 0 ? 2.0 : 1.0);
      for (int u : cycle) {
        for (int w : cycle) {
          if (u != w && var[edges.index(u, w)] >= 0) {
            c.terms.emplace_back(var[edges.index(u, w)], 1.0);
          }
        }
      }
      cuts.push_back(std::move(c));
    }
    return cuts;
  };

  const milp::MipResult mip = milp::solve(model, bnb);
  if (mip.status != milp::MipStatus::kOptimal &&
      mip.status != milp::MipStatus::kFeasible) {
    return false;  // no conflict-free repair found within the node budget
  }
  const geom::Coord new_len = static_cast<geom::Coord>(std::llround(
      mip.objective));
  // The repair is conflict-free by construction; accept only a strict
  // penalized-cost win over the destroyed segment.
  if (new_len >= old_len + kConflictPenalty * old_conf) return false;

  // Walk the path from the entry endpoint; it ends at the exit endpoint.
  const std::vector<int> next = successors(mip.x);
  int v = 0;
  for (int t = 1; t <= m; ++t) {
    v = next[v];
    order[(s + t) % n] = g[v];
  }
  length += new_len - old_len;
  conflicts -= old_conf;
  return true;
}

}  // namespace

LnsResult lns_tour(const netlist::Floorplan& floorplan,
                   const ConflictOracle& oracle, double budget_seconds) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const int n = floorplan.size();

  LnsResult out;
  // Cheap initial incumbent: one nearest-neighbour construction polished to
  // a joint 2-opt/Or-opt fixpoint (the all-starts heuristic_tour is
  // quadratic in restarts and defeats the point of a budgeted mode; Or-opt
  // supplies the relocation moves 2-opt lacks — see or_opt).
  out.order = nearest_neighbour_from(floorplan, 0);
  const auto polish = [&](std::vector<NodeId>& order) {
    geom::Coord before;
    do {
      before = penalized_cost(order, floorplan, oracle);
      two_opt(order, floorplan, oracle);
      or_opt(order, floorplan, oracle);
    } while (penalized_cost(order, floorplan, oracle) < before);
  };
  polish(out.order);
  out.length_um = tour_length(out.order, floorplan);
  long long conflicts = tour_conflicts(out.order, oracle);

  const int m = std::min(kLnsWindow, n - 3);
  if (m >= 3 && n >= 6) {
    // Deterministic destroy schedule: a fixed-seed LCG, walked the same way
    // at every jobs count. The budget is only a safety stop; when the
    // schedule completes (the designed regime), the result is a pure
    // function of the floorplan.
    unsigned state = kLnsSeed * 2654435761u + 0x9E3779B9u;
    auto rnd = [&state] {
      state = state * 1664525u + 1013904223u;
      return state >> 8;
    };
    const long attempts = static_cast<long>(kLnsAttemptsPerNode) * n;
    geom::Coord length = out.length_um;
    for (long a = 0; a < attempts; ++a) {
      if (elapsed() > budget_seconds) {
        out.budget_exhausted = true;
        break;
      }
      const int s = static_cast<int>(rnd() % static_cast<unsigned>(n));
      ++out.repairs_attempted;
      if (repair_window(out.order, floorplan, oracle, s, m, length,
                        conflicts)) {
        ++out.repairs_accepted;
        if (obs::enabled()) obs::registry().counter("milp.lns_repairs").add();
        if (obs::events::enabled()) {
          obs::events::emit(
              "milp.lns_repair",
              {{"attempt", static_cast<double>(a)},
               {"length_um", static_cast<double>(length)},
               {"conflicts", static_cast<double>(conflicts)}});
        }
      }
    }
    out.length_um = length;
  }
  // A final polish pass: repairs can open 2-opt/Or-opt improvements across
  // window boundaries.
  polish(out.order);
  out.length_um = tour_length(out.order, floorplan);
  conflicts = tour_conflicts(out.order, oracle);
  out.conflicts = static_cast<int>(conflicts);
  out.seconds = elapsed();
  return out;
}

}  // namespace xring::ring
