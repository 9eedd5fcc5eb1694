#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace xring::lp {

/// A sparse matrix column: (row, value) pairs, unordered.
using SparseCol = std::vector<std::pair<int, double>>;

/// A read-only view of one column's (row, value) pairs.
using ColumnView = std::span<const std::pair<int, double>>;

/// Columns stored back to back (compressed sparse column): one allocation
/// for the whole matrix, each column's entries in the order they were added.
class ColumnStore {
 public:
  void reserve(std::size_t columns, std::size_t entries) {
    start_.reserve(columns + 1);
    entries_.reserve(entries);
  }
  /// Appends a column; returns its index.
  int add(ColumnView col) {
    entries_.insert(entries_.end(), col.begin(), col.end());
    start_.push_back(entries_.size());
    return size() - 1;
  }
  /// Appends the column with the single entry (row, value).
  int add_singleton(int row, double value) {
    const std::pair<int, double> entry{row, value};
    return add({&entry, 1});
  }
  int size() const { return static_cast<int>(start_.size()) - 1; }
  ColumnView operator[](int j) const {
    return {entries_.data() + start_[j], entries_.data() + start_[j + 1]};
  }

 private:
  std::vector<std::size_t> start_{0};  // column j = entries_[start_[j], start_[j+1])
  std::vector<std::pair<int, double>> entries_;
};

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
/// periodically. Memory scales with fill-in, not m^2 — this is what lets the
/// ring-construction MILP reach 64-128 node instances.
///
/// Per-pivot work scales with the non-slack part of the basis, not with m.
/// Each factorization lists the elimination steps that have an L column and
/// those that have a U column; the rest are slack singletons (on the n = 96
/// ring LP about 107 and 170 of 4 753 steps have one). ftran runs the L and
/// U steps plus the rows its column touches; btran runs them plus one
/// division per nonzero slot of its input. A step without an L or U column
/// only divides its own entry by its pivot, so these loops apply the same
/// operations to every nonzero, in the same order, as full-length ones.
/// What stays O(m) per pivot is clearing the dense result and one scan of
/// btran's input. The factorization's scratch (the active columns, the row
/// index, the Markowitz buckets and counts) is kept between factorizations
/// and cleared, not reallocated.
///
/// Index spaces: "row" means an original constraint row, "slot" means a
/// basis position (slot i holds column basis[i]). ftran maps a column from
/// row space into slot space; btran maps slot-space costs into row-space
/// duals.
class SparseLuBasis {
 public:
  enum class Update { kOk, kRefactorize, kSingular };

  explicit SparseLuBasis(int m = 0)
      : m_(m), vrow_(m, 0.0), rmark_(m, 0), smark_((m + 63) / 64, 0) {}

  /// Factorizes B from the basic columns. Returns false when (numerically)
  /// singular. Resets the eta file.
  bool factorize(const ColumnStore& cols, const std::vector<int>& basis);

  /// w = B^-1 a for a sparse column `a`; fills the dense slot-space vector
  /// `w` (resized to m) and the ascending list of its nonzero slots.
  void ftran(ColumnView a, std::vector<double>& w, std::vector<int>& nz);

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
  void touch_row(int r) {
    if (rmark_[r] != 0) return;
    rmark_[r] = 1;
    rtouch_.push_back(r);
  }
  void mark_slot(int s) { smark_[s >> 6] |= std::uint64_t{1} << (s & 63); }
  void lu_solve(std::vector<double>& x);
  void apply_etas(std::vector<double>& w);

  struct Eta {
    int p = 0;
    double piv = 1.0;
    std::vector<std::pair<int, double>> off;  // (slot, w value)
  };

  int m_;
  std::vector<int> pivot_row_;   // k -> original row
  std::vector<int> pivot_slot_;  // k -> basis slot
  std::vector<int> step_of_row_;   // original row -> k
  std::vector<int> step_of_slot_;  // basis slot -> k
  std::vector<SparseCol> lcol_;  // (row, multiplier)
  std::vector<SparseCol> ucol_;  // (row, value), rows pivoted before k
  std::vector<double> udiag_;
  std::vector<int> lsteps_;  // ascending k with a non-empty lcol_[k]
  std::vector<int> usteps_;  // ascending k with a non-empty ucol_[k]
  std::vector<Eta> etas_;
  long long eta_file_nnz_ = 0;

  // Solve scratch. vrow_ and both marks are all zero between calls.
  std::vector<double> vrow_, vslot_;
  std::vector<char> rmark_;
  std::vector<int> rtouch_;          // the rows rmark_ marks
  std::vector<std::uint64_t> smark_;  // a bit per slot a solve wrote

  // Factorization scratch, cleared (not reallocated) by each factorize.
  std::vector<SparseCol> colv_;        // active submatrix, column-wise
  std::vector<std::vector<int>> rows_of_;  // row -> slots (may go stale)
  std::vector<int> rcount_, ccount_;
  std::vector<char> row_active_, col_active_;
  std::vector<std::vector<int>> bucket_;  // columns by active count
  std::vector<int> bucket_of_;
  std::vector<double> wvals_;
  std::vector<char> state_;
  std::vector<int> touched_, eliminated_stamp_;
  SparseCol rebuilt_;
};

}  // namespace xring::lp
