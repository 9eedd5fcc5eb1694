#pragma once

#include <utility>
#include <vector>

namespace xring::lp {

/// A sparse matrix column: (row, value) pairs, unordered.
using SparseCol = std::vector<std::pair<int, double>>;

/// Counters the basis accumulates over one LP solve. The simplex surfaces
/// them in Solution::stats and `lp::solve` exports them as obs metrics
/// (`lp.refactorizations`, `lp.eta_nnz`, `lp.ftran_density`).
struct FactorStats {
  long long factorizations = 0;  ///< factorize() calls (1 = initial only)
  long long eta_nnz = 0;         ///< nonzeros appended to the eta file
  long long ftran_calls = 0;
  long long ftran_nnz = 0;       ///< sum of ftran result nonzeros
  long long lu_nnz = 0;          ///< nnz(L) + nnz(U) of the last factorization
};

/// The simplex basis matrix B (column i = A[basis[i]]) as a Markowitz-ordered
/// sparse LU factorization plus a product-form eta file, refactorized
/// periodically. Memory and per-pivot work scale with fill-in, not m^2 —
/// this is what lets the ring-construction MILP reach 64-128 node instances.
///
/// Index spaces: "row" means an original constraint row, "slot" means a
/// basis position (slot i holds column basis[i]). ftran maps a column from
/// row space into slot space; btran maps slot-space costs into row-space
/// duals.
class SparseLuBasis {
 public:
  enum class Update { kOk, kRefactorize, kSingular };

  explicit SparseLuBasis(int m = 0) : m_(m) {}

  /// Factorizes B from the basic columns. Returns false when (numerically)
  /// singular. Resets the eta file.
  bool factorize(const std::vector<SparseCol>& cols,
                 const std::vector<int>& basis);

  /// w = B^-1 a for a sparse column `a`; fills the dense slot-space vector
  /// `w` (resized to m) and the list of its nonzero slots.
  void ftran(const SparseCol& a, std::vector<double>& w, std::vector<int>& nz);

  /// x = B^-1 b for a dense row-space vector `b` (used to recompute the
  /// basic values from scratch). `x` is slot-space.
  void ftran_dense(const std::vector<double>& b, std::vector<double>& x);

  /// y = B^-T cb for a dense slot-space vector `cb` (cb[i] = objective of
  /// the variable basic in slot i); `y` are the row-space simplex
  /// multipliers.
  void btran(const std::vector<double>& cb, std::vector<double>& y);

  /// Registers the basis change "column `enter` becomes basic in slot
  /// `leave`", where `w`/`wnz` is ftran of the entering column under the
  /// *current* factorization. kRefactorize asks the caller to refactorize
  /// (growth/accuracy trigger tripped); kSingular reports a numerically
  /// unusable pivot.
  Update update(int leave, const std::vector<double>& w,
                const std::vector<int>& wnz);

  FactorStats stats;

 private:
  void lsolve(std::vector<double>& v) const;
  void usolve(std::vector<double>& v, std::vector<double>& x) const;
  void apply_etas(std::vector<double>& w) const;

  struct Eta {
    int p = 0;
    double piv = 1.0;
    std::vector<std::pair<int, double>> off;  // (slot, w value)
  };

  int m_;
  std::vector<int> pivot_row_;   // k -> original row
  std::vector<int> pivot_slot_;  // k -> basis slot
  std::vector<std::vector<std::pair<int, double>>> lcol_;  // (row, multiplier)
  std::vector<std::vector<std::pair<int, double>>> ucol_;  // (row, value), t<k
  std::vector<double> udiag_;
  std::vector<Eta> etas_;
  long long eta_file_nnz_ = 0;
  std::vector<double> vrow_, vslot_;
};

}  // namespace xring::lp
