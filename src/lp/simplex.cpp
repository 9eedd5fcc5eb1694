#include "lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "lp/basis.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"

namespace xring::lp {

std::string to_string(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

int Problem::add_variable(double lo, double hi, double objective) {
  if (lo > hi) throw std::invalid_argument("variable bounds inverted");
  objective_.push_back(objective);
  lower_.push_back(lo);
  upper_.push_back(hi);
  columns_.emplace_back();
  return num_variables() - 1;
}

int Problem::add_constraint(Sense sense, double rhs) {
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return num_constraints() - 1;
}

void Problem::add_term(int row, int var, double coefficient) {
  assert(row >= 0 && row < num_constraints());
  assert(var >= 0 && var < num_variables());
  auto& col = columns_[var];
  for (auto& [r, c] : col) {
    if (r == row) {
      c += coefficient;
      return;
    }
  }
  col.emplace_back(row, coefficient);
}

int Problem::add_constraint(const std::vector<std::pair<int, double>>& terms,
                            Sense sense, double rhs) {
  const int row = add_constraint(sense, rhs);
  for (const auto& [var, coef] : terms) add_term(row, var, coef);
  return row;
}

void Problem::set_bounds(int var, double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("variable bounds inverted");
  lower_[var] = lo;
  upper_[var] = hi;
}

namespace {

/// Pivot-loop passes per solve (primal + dual) before kIterationLimit.
constexpr int kMaxIterations = 200000;
/// Feasibility and optimality tolerance of the ratio tests and pricing.
constexpr double kTol = 1e-8;

/// Where a nonbasic variable currently rests.
enum class At { kLower, kUpper, kBasic };

struct State {
  int m = 0;        // rows
  int n = 0;        // total columns (struct + slack + artificial)
  int n_struct = 0; // structural columns
  int first_artificial = 0;

  // Per-column data.
  ColumnStore cols;
  std::vector<double> lo, hi;
  std::vector<double> cost;        // active objective
  std::vector<double> real_cost;   // phase-2 objective
  std::vector<At> where;
  std::vector<double> value;       // current value of every variable

  std::vector<double> b;           // equality right-hand side

  // Basis.
  std::vector<int> basis;          // basis[i] = column basic in slot i
  SparseLuBasis rep;               // factorized representation of B
  bool need_phase1 = false;        // an artificial ended up basic in the crash

  std::vector<double> cb;          // cb[i] = cost[basis[i]], kept in step
};

/// w = B^-1 * A_col, plus the index list of w's nonzeros.
void ftran(State& s, int col, std::vector<double>& w, std::vector<int>& nz) {
  s.rep.ftran(s.cols[col], w, nz);
}

/// Makes `cost` the active objective and gathers c_B under it. Between
/// calls each basis change writes its own c_B entry.
void set_cost(State& s, std::vector<double> cost) {
  s.cost = std::move(cost);
  s.cb.resize(s.m);
  for (int i = 0; i < s.m; ++i) s.cb[i] = s.cost[s.basis[i]];
}

/// Column `enter` becomes basic in slot `leave`.
void set_basic(State& s, int leave, int enter) {
  s.where[enter] = At::kBasic;
  s.basis[leave] = enter;
  s.cb[leave] = s.cost[enter];
}

/// y^T = c_B^T B^-1 under the active cost vector.
void btran_cost(State& s, std::vector<double>& y) { s.rep.btran(s.cb, y); }

double reduced_cost(const State& s, const std::vector<double>& y, int col) {
  double d = s.cost[col];
  for (const auto& [r, a] : s.cols[col]) d -= y[r] * a;
  return d;
}

/// Recomputes basic variable values from scratch:
/// x_B = B^-1 * (b - A_N x_N).
void recompute_basics(State& s) {
  std::vector<double> rhs = s.b;
  for (int j = 0; j < s.n; ++j) {
    if (s.where[j] == At::kBasic) continue;
    const double v = s.value[j];
    if (v == 0.0) continue;
    for (const auto& [r, a] : s.cols[j]) rhs[r] -= a * v;
  }
  std::vector<double> xb;
  s.rep.ftran_dense(rhs, xb);
  for (int i = 0; i < s.m; ++i) s.value[s.basis[i]] = xb[i];
}

/// Refactorizes the current basis and refreshes the basic values (drift from
/// the incremental updates is wiped at the same time). Returns false when
/// the basis is numerically singular.
bool refactorize(State& s) {
  if (!s.rep.factorize(s.cols, s.basis)) return false;
  recompute_basics(s);
  // Eta-growth telemetry: each mid-solve refactorization reports the
  // kernel's cumulative factorization count and eta-file fill, so the event
  // stream shows how fast the product-form representation grows between
  // rebuilds.
  if (obs::events::enabled()) {
    obs::events::emit("lp.refactorize",
                      {{"rows", static_cast<double>(s.m)},
                       {"factorizations",
                        static_cast<double>(s.rep.stats.factorizations)},
                       {"eta_nnz", static_cast<double>(s.rep.stats.eta_nnz)}});
  }
  return true;
}

/// Candidate list size for partial pricing: a full pricing pass keeps the
/// best-scored eligible columns, and subsequent iterations re-price only
/// those until the list runs dry. Optimality is only ever declared by a full
/// pass, so the candidate list changes pivot order, never the answer.
constexpr int kCandidateListSize = 32;

/// One bounded-variable primal simplex phase on the current `cost` vector.
/// Returns kOptimal when no improving column exists.
Status iterate(State& s, int& iterations) {
  const int m = s.m;
  std::vector<double> y(m), w(m);
  std::vector<int> wnz, cand;
  std::vector<std::pair<double, int>> scored;
  wnz.reserve(m);
  cand.reserve(kCandidateListSize);
  int stall = 0;  // iterations since last objective improvement (Bland trigger)

  // Only a nonbasic column that is not fixed can enter; pricing skips the
  // others before computing a reduced cost.
  auto movable = [&s](int j) {
    return s.where[j] != At::kBasic && s.lo[j] != s.hi[j];
  };
  // Eligibility of a movable column under the current duals: sets the
  // movement direction (+1 from lower, -1 from upper) when improving.
  auto eligible = [&s](int j, double d, int& direction) {
    if (s.where[j] == At::kLower && d < -kTol) {
      direction = +1;
      return true;
    }
    if (s.where[j] == At::kUpper && d > kTol) {
      direction = -1;
      return true;
    }
    return false;
  };

  while (iterations < kMaxIterations) {
    ++iterations;
    btran_cost(s, y);

    // Pricing: pick the entering column. Dantzig rule over the candidate
    // list normally (refilled by a full n-column pass when it runs dry);
    // Bland's rule (lowest eligible index, always a full scan) once
    // degeneracy stalls progress, which guarantees termination.
    const bool bland = stall > 2 * (m + 8);
    int enter = -1;
    int direction = 0;
    if (bland) {
      for (int j = 0; j < s.n; ++j) {
        int dir = 0;
        if (movable(j) && eligible(j, reduced_cost(s, y, j), dir)) {
          enter = j;
          direction = dir;
          break;
        }
      }
    } else {
      double best = kTol;
      auto pick_from = [&](const std::vector<int>& js) {
        for (const int j : js) {
          if (!movable(j)) continue;
          const double d = reduced_cost(s, y, j);
          int dir = 0;
          if (!eligible(j, d, dir)) continue;
          const double score = std::abs(d);
          if (score > best) {
            best = score;
            enter = j;
            direction = dir;
          }
        }
      };
      pick_from(cand);
      if (enter < 0) {
        // The list went stale: one full pricing pass, keeping the top
        // columns (by |reduced cost|, ties to the lower index) as the next
        // candidate list.
        scored.clear();
        for (int j = 0; j < s.n; ++j) {
          if (!movable(j)) continue;
          const double d = reduced_cost(s, y, j);
          int dir = 0;
          if (eligible(j, d, dir)) scored.emplace_back(std::abs(d), j);
        }
        cand.clear();
        if (!scored.empty()) {
          const auto keep = std::min<std::size_t>(kCandidateListSize,
                                                  scored.size());
          std::partial_sort(scored.begin(),
                            scored.begin() + static_cast<long>(keep),
                            scored.end(), [](const auto& a, const auto& b) {
                              if (a.first != b.first) return a.first > b.first;
                              return a.second < b.second;
                            });
          for (std::size_t k = 0; k < keep; ++k) cand.push_back(scored[k].second);
          pick_from(cand);
        }
      }
    }
    if (enter < 0) return Status::kOptimal;

    ftran(s, enter, w, wnz);

    // Ratio test. The entering variable moves by t in `direction`; each basic
    // variable i changes by -direction * w[i] * t. Rows with w[i] == 0 can
    // never trip the tolerance checks, so only w's nonzeros are scanned.
    double t_max = s.hi[enter] - s.lo[enter];  // bound-flip limit
    int leave = -1;         // slot index of the leaving basic variable
    int leave_to = 0;       // -1: leaves to lower bound, +1: leaves to upper
    for (const int i : wnz) {
      const double wi = direction * w[i];
      const int bi = s.basis[i];
      if (wi > kTol) {
        const double room = s.value[bi] - s.lo[bi];
        const double t = room / wi;
        if (t < t_max - kTol || (t < t_max + kTol && leave >= 0 && bi < s.basis[leave])) {
          t_max = std::max(t, 0.0);
          leave = i;
          leave_to = -1;
        }
      } else if (wi < -kTol) {
        if (s.hi[bi] == kInfinity) continue;
        const double room = s.hi[bi] - s.value[bi];
        const double t = room / (-wi);
        if (t < t_max - kTol || (t < t_max + kTol && leave >= 0 && bi < s.basis[leave])) {
          t_max = std::max(t, 0.0);
          leave = i;
          leave_to = +1;
        }
      }
    }

    if (t_max == kInfinity) return Status::kUnbounded;
    stall = t_max > kTol ? 0 : stall + 1;

    // Apply the step to the affected basic variables and the entering one.
    if (t_max > 0.0) {
      for (const int i : wnz) {
        s.value[s.basis[i]] -= direction * w[i] * t_max;
      }
      s.value[enter] += direction * t_max;
    }

    if (leave < 0) {
      // Pure bound flip: entering variable travels to its opposite bound.
      s.where[enter] = direction > 0 ? At::kUpper : At::kLower;
      s.value[enter] = direction > 0 ? s.hi[enter] : s.lo[enter];
      continue;
    }

    // Basis change: `enter` becomes basic in slot `leave`.
    const int out = s.basis[leave];
    s.where[out] = leave_to < 0 ? At::kLower : At::kUpper;
    s.value[out] = leave_to < 0 ? s.lo[out] : s.hi[out];
    set_basic(s, leave, enter);

    switch (s.rep.update(leave, w, wnz)) {
      case SparseLuBasis::Update::kOk:
        break;
      case SparseLuBasis::Update::kRefactorize:
        if (!refactorize(s)) return Status::kIterationLimit;
        break;
      case SparseLuBasis::Update::kSingular:
        // The ratio test guarantees |w[leave]| > tol, so this only fires on
        // severe numerical trouble; a fresh factorization either recovers
        // or confirms the failure.
        if (!refactorize(s)) return Status::kIterationLimit;
        break;
    }
  }
  return Status::kIterationLimit;
}

/// Bounded-variable dual simplex: drives an (infeasible-primal,
/// feasible-dual) basis back to primal feasibility. This is the warm-start
/// engine: after the MILP branch-and-bound fixes one binary's bounds, the
/// parent's optimal basis stays dual feasible and a handful of these pivots
/// replaces a full two-phase resolve. Leaving variable: the basic with the
/// largest bound violation (ties to the lowest slot); entering variable: the
/// bounded dual ratio test (ties to the lowest column), which preserves dual
/// feasibility.
Status dual_iterate(State& s, int& iterations, int max_dual_pivots,
                    int& dual_pivots) {
  const int m = s.m;
  std::vector<double> y(m), w(m), rho(m), er(m);
  std::vector<int> wnz;
  wnz.reserve(m);
  int local = 0;

  while (true) {
    // Leaving slot: the most infeasible basic variable.
    int r = -1;
    int dir = 0;  // +1: below lower bound, -1: above upper bound
    double worst = kTol;
    for (int i = 0; i < m; ++i) {
      const int bi = s.basis[i];
      const double v = s.value[bi];
      const double below = s.lo[bi] - v;
      const double above = v - s.hi[bi];
      if (below > worst) {
        worst = below;
        r = i;
        dir = +1;
      }
      if (above > worst) {
        worst = above;
        r = i;
        dir = -1;
      }
    }
    if (r < 0) return Status::kOptimal;  // primal feasible again

    if (iterations >= kMaxIterations || local >= max_dual_pivots) {
      return Status::kIterationLimit;
    }
    ++iterations;
    ++dual_pivots;
    ++local;

    btran_cost(s, y);
    std::fill(er.begin(), er.end(), 0.0);
    er[r] = 1.0;
    s.rep.btran(er, rho);  // rho^T = e_r^T B^-1

    // Bounded dual ratio test over the pivot row alpha_j = rho . a_j.
    int enter = -1;
    double best_ratio = 0.0;
    for (int j = 0; j < s.n; ++j) {
      if (s.where[j] == At::kBasic || s.lo[j] == s.hi[j]) continue;
      double alpha = 0.0;
      for (const auto& [rr, a] : s.cols[j]) alpha += rho[rr] * a;
      const double abar = dir * alpha;
      double ratio;
      if (s.where[j] == At::kLower && abar < -kTol) {
        ratio = std::max(reduced_cost(s, y, j), 0.0) / (-abar);
      } else if (s.where[j] == At::kUpper && abar > kTol) {
        ratio = std::max(-reduced_cost(s, y, j), 0.0) / abar;
      } else {
        continue;
      }
      if (enter < 0 || ratio < best_ratio ||
          (ratio == best_ratio && j < enter)) {
        enter = j;
        best_ratio = ratio;
      }
    }
    if (enter < 0) return Status::kInfeasible;  // dual unbounded

    ftran(s, enter, w, wnz);
    const double piv = w[r];
    if (std::abs(piv) < kTol) {
      // The row computed via rho disagrees with the ftran column: the
      // representation has drifted. Refactorize and retry the violation.
      if (!refactorize(s)) return Status::kIterationLimit;
      continue;
    }

    // Step: the leaving variable travels exactly to its violated bound.
    const int p = s.basis[r];
    const double target = dir > 0 ? s.lo[p] : s.hi[p];
    const double t = (target - s.value[p]) / (-piv);  // entering step
    if (t != 0.0) {
      for (const int i : wnz) {
        s.value[s.basis[i]] -= w[i] * t;
      }
      s.value[enter] += t;
    }
    s.where[p] = dir > 0 ? At::kLower : At::kUpper;
    s.value[p] = target;
    set_basic(s, r, enter);

    switch (s.rep.update(r, w, wnz)) {
      case SparseLuBasis::Update::kOk:
        break;
      case SparseLuBasis::Update::kRefactorize:
      case SparseLuBasis::Update::kSingular:
        if (!refactorize(s)) return Status::kIterationLimit;
        break;
    }
  }
}

double objective_value(const State& s, const std::vector<double>& cost) {
  double v = 0.0;
  for (int j = 0; j < s.n; ++j) v += cost[j] * s.value[j];
  return v;
}

/// Builds the internal column space (structurals, slacks, one artificial per
/// row) and the crash basis: every inequality row whose slack starts
/// feasible gets its slack basic; only the remaining rows (equalities and
/// inequality rows violated by the nonbasic start) receive a basic
/// artificial. Fewer basic artificials means phase 1 starts closer to
/// feasibility — on the ring-construction models only the 2n assignment
/// equalities need artificials, not the O(n^2) two-cycle rows.
void build_state(const Problem& p, State& s) {
  s.m = p.num_constraints();
  s.n_struct = p.num_variables();
  s.b = p.rhs();

  // Structural columns, then one slack per inequality row and one
  // artificial per row, all in one flat store.
  std::size_t entries = 0;
  for (const auto& col : p.columns()) entries += col.size();
  int slacks = 0;
  for (const Sense sense : p.senses()) slacks += sense == Sense::kEq ? 0 : 1;
  s.cols.reserve(s.n_struct + slacks + s.m,
                 entries + static_cast<std::size_t>(slacks + s.m));
  for (const auto& col : p.columns()) s.cols.add(col);
  for (int j = 0; j < s.n_struct; ++j) {
    s.lo.push_back(p.lower_bound(j));
    s.hi.push_back(p.upper_bound(j));
    const double c = p.objective()[j];
    s.real_cost.push_back(p.maximize() ? -c : c);
  }

  // Slack columns turn every inequality into an equality.
  std::vector<int> slack_col(s.m, -1);
  for (int i = 0; i < s.m; ++i) {
    const Sense sense = p.senses()[i];
    if (sense == Sense::kEq) continue;
    slack_col[i] = s.cols.add_singleton(i, sense == Sense::kLe ? 1.0 : -1.0);
    s.lo.push_back(0.0);
    s.hi.push_back(kInfinity);
    s.real_cost.push_back(0.0);
  }

  s.first_artificial = s.cols.size();
  s.n = s.first_artificial + s.m;

  s.where.assign(s.n, At::kLower);
  s.value.assign(s.n, 0.0);
  s.lo.resize(s.n, 0.0);
  s.hi.resize(s.n, kInfinity);
  s.real_cost.resize(s.n, 0.0);

  // Nonbasic structural variables start at the finite bound closest to
  // zero (variables with only infinite upper bounds start at their lower).
  for (int j = 0; j < s.first_artificial; ++j) {
    if (s.lo[j] == -kInfinity && s.hi[j] == kInfinity) {
      // Free variables are not needed by any caller in this library.
      throw std::invalid_argument("free variables are unsupported");
    }
    if (s.lo[j] != -kInfinity) {
      s.where[j] = At::kLower;
      s.value[j] = s.lo[j];
    } else {
      s.where[j] = At::kUpper;
      s.value[j] = s.hi[j];
    }
  }

  // Residual of each row given the nonbasic structural values decides the
  // crash: slack basic where that is feasible, signed artificial elsewhere.
  std::vector<double> residual = s.b;
  for (int j = 0; j < s.first_artificial; ++j) {
    if (s.value[j] == 0.0) continue;
    for (const auto& [r, a] : s.cols[j]) residual[r] -= a * s.value[j];
  }
  s.basis.resize(s.m);
  s.need_phase1 = false;
  for (int i = 0; i < s.m; ++i) {
    const int art = s.first_artificial + i;
    const int sl = slack_col[i];
    const double slack_sign = p.senses()[i] == Sense::kLe ? 1.0 : -1.0;
    const double slack_value = residual[i] * slack_sign;  // slack coef is ±1
    if (sl >= 0 && slack_value >= 0.0) {
      // Feasible slack: it carries the row, the artificial is fixed away.
      s.basis[i] = sl;
      s.where[sl] = At::kBasic;
      s.value[sl] = slack_value;
      s.cols.add_singleton(i, 1.0);
      s.hi[art] = 0.0;  // never enters
    } else {
      s.cols.add_singleton(i, residual[i] >= 0.0 ? 1.0 : -1.0);
      s.basis[i] = art;
      s.where[art] = At::kBasic;
      s.value[art] = std::abs(residual[i]);
      s.need_phase1 = s.need_phase1 || s.value[art] != 0.0 ||
                      p.senses()[i] == Sense::kEq;
    }
  }

  s.rep = SparseLuBasis(s.m);
}

/// Fixes every artificial at zero (phase-2 semantics).
void fix_artificials(State& s) {
  for (int i = 0; i < s.m; ++i) {
    const int col = s.first_artificial + i;
    s.lo[col] = 0.0;
    s.hi[col] = 0.0;
    if (s.where[col] != At::kBasic) s.value[col] = 0.0;
  }
}

void collect_stats(const State& s, Solution& out) {
  const FactorStats& fs = s.rep.stats;
  out.stats.refactorizations +=
      static_cast<int>(std::max<long long>(fs.factorizations - 1, 0));
  out.stats.eta_nnz += fs.eta_nnz;
  out.stats.ftran_calls += fs.ftran_calls;
  out.stats.ftran_nnz += fs.ftran_nnz;
}

/// Extracts the optimal solution, duals, reduced costs, and (optionally) the
/// basis snapshot from an optimal state.
void finalize_solution(State& s, const Problem& p, const SolveOptions& options,
                       Solution& out) {
  out.status = Status::kOptimal;
  out.x.assign(s.n_struct, 0.0);
  for (int j = 0; j < s.n_struct; ++j) out.x[j] = s.value[j];
  double obj = 0.0;
  for (int j = 0; j < s.n_struct; ++j) obj += s.real_cost[j] * s.value[j];
  out.objective = p.maximize() ? -obj : obj;

  // Duals and reduced costs from the optimal basis, flipped back into the
  // caller's objective sense (internally everything is a minimization).
  std::vector<double> y(s.m);
  btran_cost(s, y);
  const double sense = p.maximize() ? -1.0 : 1.0;
  out.duals.resize(s.m);
  for (int i = 0; i < s.m; ++i) out.duals[i] = sense * y[i];
  out.reduced_costs.resize(s.n_struct);
  for (int j = 0; j < s.n_struct; ++j) {
    out.reduced_costs[j] = sense * reduced_cost(s, y, j);
  }

  if (options.export_basis != nullptr) {
    WarmBasis& wb = *options.export_basis;
    wb.rows = s.m;
    wb.structurals = s.n_struct;
    wb.columns = s.n;
    wb.basis = s.basis;
    wb.at_upper.assign(s.n, 0);
    for (int j = 0; j < s.n; ++j) {
      if (s.where[j] == At::kUpper) wb.at_upper[j] = 1;
    }
  }
}

Solution solve_cold(const Problem& p, const SolveOptions& options,
                    SolveStats carry) {
  State s;
  build_state(p, s);
  Solution out;
  out.stats = carry;

  if (!s.rep.factorize(s.cols, s.basis)) {
    out.status = Status::kIterationLimit;  // crash basis must factorize
    collect_stats(s, out);
    return out;
  }

  if (s.need_phase1) {
    // Phase 1: minimize the sum of artificials.
    std::vector<double> phase1(s.n, 0.0);
    for (int i = 0; i < s.m; ++i) phase1[s.first_artificial + i] = 1.0;
    set_cost(s, std::move(phase1));
    Status st = iterate(s, out.iterations);
    if (st == Status::kIterationLimit) {
      out.status = st;
      collect_stats(s, out);
      return out;
    }
    const double infeas = objective_value(s, s.cost);
    if (infeas > 1e-6) {
      out.status = Status::kInfeasible;
      collect_stats(s, out);
      return out;
    }
  }

  // Phase 2: fix artificials at zero and optimize the real objective.
  fix_artificials(s);
  set_cost(s, s.real_cost);
  recompute_basics(s);
  Status st = iterate(s, out.iterations);
  collect_stats(s, out);
  if (st != Status::kOptimal) {
    out.status = st == Status::kUnbounded ? Status::kUnbounded : st;
    return out;
  }
  finalize_solution(s, p, options, out);
  return out;
}

/// Warm-started solve: restore the caller's basis, refactorize, and run the
/// dual simplex until primal feasibility, then the primal pricing loop as an
/// optimality check. Returns false when the warm start cannot be used (shape
/// mismatch, singular basis, or iteration trouble) — the caller falls back
/// to the cold path, which computes the identical answer.
///
/// The problem may have grown rows since the basis was exported (lazy cuts
/// are append-only): each new row enters the basis with its own slack
/// (artificial for equalities). That keeps the basis block lower-triangular
/// — the new rows' duals are zero, so every old reduced cost is unchanged
/// and the extended basis is still dual feasible; only the new basic slacks
/// can violate their bounds, which is exactly what the dual simplex repairs.
bool solve_warm(const Problem& p, const SolveOptions& options,
                const WarmBasis& warm, Solution& out) {
  State s;
  build_state(p, s);
  if (warm.structurals != s.n_struct || warm.rows > s.m) return false;

  // The snapshot's internal layout: structurals, then one slack per non-Eq
  // row (in row order), then one artificial per row. Rows are append-only,
  // so structural and slack indices carry over unchanged and only the
  // artificial block shifts.
  const int old_rows = warm.rows;
  int old_slacks = 0;
  for (int i = 0; i < old_rows; ++i) {
    if (p.senses()[i] != Sense::kEq) ++old_slacks;
  }
  if (warm.columns != s.n_struct + old_slacks + old_rows ||
      static_cast<int>(warm.basis.size()) != old_rows ||
      static_cast<int>(warm.at_upper.size()) != warm.columns) {
    return false;
  }
  const int old_first_artificial = s.n_struct + old_slacks;
  auto remap = [&](int j) {
    return j < old_first_artificial ? j
                                    : s.first_artificial +
                                          (j - old_first_artificial);
  };

  // Restore the nonbasic resting bounds, then the basis on top.
  fix_artificials(s);
  for (int j = 0; j < s.n; ++j) {
    s.where[j] = s.lo[j] == -kInfinity ? At::kUpper : At::kLower;
    s.value[j] = s.where[j] == At::kUpper ? s.hi[j] : s.lo[j];
  }
  for (int jo = 0; jo < warm.columns; ++jo) {
    if (warm.at_upper[jo] == 0) continue;
    const int j = remap(jo);
    if (s.hi[j] == kInfinity) continue;
    s.where[j] = At::kUpper;
    s.value[j] = s.hi[j];
  }
  for (int i = 0; i < old_rows; ++i) {
    const int col = remap(warm.basis[i]);
    if (col < 0 || col >= s.n) return false;
    s.basis[i] = col;
    s.where[col] = At::kBasic;
  }
  int slack_seen = old_slacks;
  for (int i = old_rows; i < s.m; ++i) {
    // New row: its slack (by construction the next one in the slack block)
    // or, for an equality, its artificial becomes basic.
    const int col = p.senses()[i] == Sense::kEq ? s.first_artificial + i
                                                : s.n_struct + slack_seen;
    if (p.senses()[i] != Sense::kEq) ++slack_seen;
    s.basis[i] = col;
    s.where[col] = At::kBasic;
  }
  set_cost(s, s.real_cost);

  if (!s.rep.factorize(s.cols, s.basis)) return false;
  recompute_basics(s);

  out.stats.warm = true;
  const int dual_cap = 200 + 2 * s.m;
  Status st = dual_iterate(s, out.iterations, dual_cap, out.stats.dual_pivots);
  if (st == Status::kInfeasible) {
    out.status = Status::kInfeasible;
    collect_stats(s, out);
    return true;
  }
  if (st != Status::kOptimal) return false;  // fall back to the cold path

  st = iterate(s, out.iterations);
  collect_stats(s, out);
  if (st == Status::kUnbounded) {
    out.status = Status::kUnbounded;
    return true;
  }
  if (st != Status::kOptimal) return false;
  finalize_solution(s, p, options, out);
  return true;
}

Solution solve_impl(const Problem& p, const SolveOptions& options) {
  if (options.warm_start != nullptr && options.warm_start->valid()) {
    Solution out;
    if (solve_warm(p, options, *options.warm_start, out)) return out;
    // The failed attempt's kernel work still happened; carry its counters
    // into the cold solve so the metrics stay truthful.
    SolveStats carry = out.stats;
    carry.warm = false;
    carry.dual_pivots = 0;
    return solve_cold(p, options, carry);
  }
  return solve_cold(p, options, {});
}

/// Records the `lp.*` obs metrics and the `lp.solve` event of one solve.
void observe_solve(const Solution& out) {
  obs::Registry& reg = obs::registry();
  reg.counter("lp.solves").add();
  reg.counter("lp.pivots").add(out.iterations);
  reg.histogram("lp.iterations").observe(out.iterations);
  reg.counter("lp.refactorizations").add(out.stats.refactorizations);
  reg.counter("lp.eta_nnz").add(out.stats.eta_nnz);
  if (out.stats.ftran_calls > 0 && out.stats.rows > 0) {
    reg.histogram("lp.ftran_density")
        .observe(static_cast<double>(out.stats.ftran_nnz) /
                 (static_cast<double>(out.stats.ftran_calls) * out.stats.rows));
  }
  // Per-solve summary into the event stream.
  if (obs::events::enabled()) {
    obs::events::emit("lp.solve",
                      {{"rows", static_cast<double>(out.stats.rows)},
                       {"pivots", static_cast<double>(out.iterations)},
                       {"dual_pivots", static_cast<double>(out.stats.dual_pivots)},
                       {"refactorizations",
                        static_cast<double>(out.stats.refactorizations)},
                       {"eta_nnz", static_cast<double>(out.stats.eta_nnz)},
                       {"warm", out.stats.warm ? 1.0 : 0.0}});
  }
}

}  // namespace

Solution solve(const Problem& p, const SolveOptions& options) {
  obs::Span span("lp.solve");
  Solution out = solve_impl(p, options);
  out.stats.rows = p.num_constraints();
  if (obs::enabled()) observe_solve(out);
  return out;
}

}  // namespace xring::lp
