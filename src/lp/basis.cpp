#include "lp/basis.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace xring::lp {

namespace {

/// Relative threshold for pivot admissibility: |a_ij| >= kTau * max|col j|.
constexpr double kTau = 0.1;
/// Below this absolute magnitude a pivot candidate is treated as zero.
constexpr double kPivotAbsTol = 1e-12;
/// Markowitz search examines at most this many candidate columns per step.
constexpr int kMaxCandidateCols = 4;
/// Eta-file length that triggers a refactorization request.
constexpr int kRefactorInterval = 64;
/// Eta-file nnz growth factor (relative to the LU + identity) that triggers
/// a refactorization request before the interval is reached.
constexpr double kEtaGrowthFactor = 3.0;

}  // namespace

bool SparseLuBasis::factorize(const ColumnStore& cols,
                              const std::vector<int>& basis) {
  ++stats.factorizations;
  const int m = m_;
  etas_.clear();
  eta_file_nnz_ = 0;
  pivot_row_.assign(m, -1);
  pivot_slot_.assign(m, -1);
  lcol_.resize(m);
  ucol_.resize(m);
  for (int k = 0; k < m; ++k) {
    lcol_[k].clear();
    ucol_[k].clear();
  }
  udiag_.assign(m, 0.0);
  lsteps_.clear();
  usteps_.clear();
  if (m == 0) return true;

  // The scratch below is kept between factorizations and cleared here.
  // Active submatrix, column-wise: entries in already-pivoted (inactive)
  // rows linger in colv_ as the finished U part of that column.
  colv_.resize(m);
  rows_of_.resize(m);
  for (int j = 0; j < m; ++j) {
    const ColumnView col = cols[basis[j]];
    colv_[j].assign(col.begin(), col.end());
    rows_of_[j].clear();
  }
  rcount_.assign(m, 0);
  ccount_.assign(m, 0);
  row_active_.assign(m, 1);
  col_active_.assign(m, 1);
  for (int j = 0; j < m; ++j) {
    ccount_[j] = static_cast<int>(colv_[j].size());
    for (const auto& [r, v] : colv_[j]) {
      (void)v;
      rows_of_[r].push_back(j);
      ++rcount_[r];
    }
  }

  // Columns bucketed by active count; bucket_of_[j] names the only bucket
  // entry considered live (older entries are dropped lazily).
  bucket_.resize(m + 1);
  for (auto& bk : bucket_) bk.clear();
  bucket_of_.assign(m, -1);
  auto enbucket = [&](int j) {
    const int c = std::min(ccount_[j], m);
    if (bucket_of_[j] == c) return;
    bucket_of_[j] = c;
    bucket_[c].push_back(j);
  };
  for (int j = 0; j < m; ++j) enbucket(j);

  // Dense scratch for the sparse axpy: value + origin state per row
  // (state_: 0 absent, 1 pre-existing, 2 fill-in).
  wvals_.assign(m, 0.0);
  state_.assign(m, 0);
  // rows_of_ may list a column twice (a cancelled entry plus a later
  // fill-in); this stamp makes each column eliminate at most once per
  // pivot step.
  eliminated_stamp_.assign(m, -1);

  for (int k = 0; k < m; ++k) {
    // --- Markowitz pivot search --------------------------------------
    int best_slot = -1, best_row = -1;
    long long best_mc = -1;
    int candidates = 0;
    for (int c = 1; c <= m; ++c) {
      if (best_mc >= 0 &&
          best_mc <= static_cast<long long>(c - 1) * (c - 1)) {
        break;  // nothing in this or later buckets can beat the incumbent
      }
      auto& bk = bucket_[c];
      for (std::size_t bi = 0; bi < bk.size();) {
        const int j = bk[bi];
        if (!col_active_[j] || bucket_of_[j] != c || ccount_[j] != c) {
          // Stale: drop, re-bucketing if it still lives elsewhere.
          bk[bi] = bk.back();
          bk.pop_back();
          if (col_active_[j] && bucket_of_[j] == c) enbucket(j);
          continue;
        }
        // Column max over active rows, then the admissible entry with the
        // fewest row nonzeros (ties: lowest row index).
        double colmax = 0.0;
        for (const auto& [r, v] : colv_[j]) {
          if (row_active_[r]) colmax = std::max(colmax, std::abs(v));
        }
        if (colmax >= kPivotAbsTol) {
          const double admit = std::max(kPivotAbsTol, kTau * colmax);
          int cand_row = -1;
          for (const auto& [r, v] : colv_[j]) {
            if (!row_active_[r] || std::abs(v) < admit) continue;
            if (cand_row < 0 || rcount_[r] < rcount_[cand_row] ||
                (rcount_[r] == rcount_[cand_row] && r < cand_row)) {
              cand_row = r;
            }
          }
          if (cand_row >= 0) {
            const long long mc =
                static_cast<long long>(rcount_[cand_row] - 1) * (c - 1);
            if (best_mc < 0 || mc < best_mc ||
                (mc == best_mc && j < best_slot)) {
              best_mc = mc;
              best_slot = j;
              best_row = cand_row;
            }
            ++candidates;
          }
        }
        ++bi;
        if (candidates >= kMaxCandidateCols) break;
      }
      if (candidates >= kMaxCandidateCols) break;
    }
    if (best_slot < 0) return false;  // numerically singular basis

    const int jk = best_slot, ik = best_row;
    pivot_row_[k] = ik;
    pivot_slot_[k] = jk;
    col_active_[jk] = 0;
    row_active_[ik] = 0;

    // --- Finalize L and U for the pivot column -----------------------
    double piv = 0.0;
    for (const auto& [r, v] : colv_[jk]) {
      if (r == ik) piv = v;
    }
    udiag_[k] = piv;
    for (const auto& [r, v] : colv_[jk]) {
      if (r == ik) continue;
      if (row_active_[r]) {
        lcol_[k].emplace_back(r, v / piv);
        --rcount_[r];
      } else {
        ucol_[k].emplace_back(r, v);
      }
    }

    // --- Eliminate the pivot row from every other active column ------
    for (const int j : rows_of_[ik]) {
      if (!col_active_[j]) continue;
      if (eliminated_stamp_[j] == k) continue;
      eliminated_stamp_[j] = k;
      double a = 0.0;
      bool present = false;
      for (const auto& [r, v] : colv_[j]) {
        if (r == ik) {
          a = v;
          present = true;
          break;
        }
      }
      if (!present) continue;  // stale index entry (cancelled earlier)
      touched_.clear();
      rebuilt_.clear();
      rebuilt_.reserve(colv_[j].size() + lcol_[k].size());
      for (const auto& [r, v] : colv_[j]) {
        if (row_active_[r]) {
          wvals_[r] = v;
          state_[r] = 1;
          touched_.push_back(r);
        } else {
          rebuilt_.emplace_back(r, v);  // U part (includes the ik entry)
        }
      }
      if (a != 0.0) {
        for (const auto& [r, mult] : lcol_[k]) {
          if (state_[r] != 0) {
            wvals_[r] -= mult * a;
          } else {
            wvals_[r] = -mult * a;
            state_[r] = 2;
            touched_.push_back(r);
          }
        }
      }
      int cc = 0;
      for (const int r : touched_) {
        if (wvals_[r] != 0.0) {
          rebuilt_.emplace_back(r, wvals_[r]);
          ++cc;
          if (state_[r] == 2) {
            ++rcount_[r];
            rows_of_[r].push_back(j);
          }
        } else if (state_[r] == 1) {
          --rcount_[r];  // exact cancellation
        }
        wvals_[r] = 0.0;
        state_[r] = 0;
      }
      colv_[j].swap(rebuilt_);  // rebuilt_ keeps the old buffer for reuse
      ccount_[j] = cc;
      enbucket(j);
    }
    rows_of_[ik].clear();
  }

  long long lu = m;  // diagonal
  step_of_row_.resize(m);
  step_of_slot_.resize(m);
  for (int k = 0; k < m; ++k) {
    lu += static_cast<long long>(lcol_[k].size() + ucol_[k].size());
    if (!lcol_[k].empty()) lsteps_.push_back(k);
    if (!ucol_[k].empty()) usteps_.push_back(k);
    step_of_row_[pivot_row_[k]] = k;
    step_of_slot_[pivot_slot_[k]] = k;
  }
  stats.lu_nnz = lu;
  return true;
}

void SparseLuBasis::ftran(ColumnView a, std::vector<double>& w,
                          std::vector<int>& nz) {
  w.assign(m_, 0.0);
  for (const auto& [r, v] : a) {
    touch_row(r);
    vrow_[r] += v;
  }
  lu_solve(w);
  apply_etas(w);
  // Every nonzero of w lies in a slot the solve marked; reading the marks
  // word by word lists them in ascending order.
  nz.clear();
  for (std::size_t b = 0; b < smark_.size(); ++b) {
    for (std::uint64_t bits = smark_[b]; bits != 0; bits &= bits - 1) {
      const int i = static_cast<int>(b * 64) + std::countr_zero(bits);
      if (w[i] != 0.0) nz.push_back(i);
    }
    smark_[b] = 0;
  }
  ++stats.ftran_calls;
  stats.ftran_nnz += static_cast<long long>(nz.size());
}

void SparseLuBasis::ftran_dense(const std::vector<double>& b,
                                std::vector<double>& x) {
  x.assign(m_, 0.0);
  for (int r = 0; r < m_; ++r) {
    if (b[r] == 0.0) continue;
    touch_row(r);
    vrow_[r] = b[r];
  }
  lu_solve(x);
  apply_etas(x);
  std::fill(smark_.begin(), smark_.end(), 0);
}

void SparseLuBasis::btran(const std::vector<double>& cb,
                          std::vector<double>& y) {
  const int m = m_;
  vslot_ = cb;
  // Eta transposes, newest first.
  for (std::size_t e = etas_.size(); e-- > 0;) {
    const Eta& eta = etas_[e];
    double t = vslot_[eta.p];
    for (const auto& [s, v] : eta.off) t -= v * vslot_[s];
    vslot_[eta.p] = t / eta.piv;
  }
  // U^T forward solve into row space. A step without a U column reads only
  // its own slot, so those steps go first; the U steps then run in
  // ascending order and read rows pivoted before them.
  y.assign(m, 0.0);
  for (int i = 0; i < m; ++i) {
    const double t = vslot_[i];
    if (t == 0.0) continue;
    const int k = step_of_slot_[i];
    if (ucol_[k].empty()) y[pivot_row_[k]] = t / udiag_[k];
  }
  for (const int k : usteps_) {
    double t = vslot_[pivot_slot_[k]];
    for (const auto& [r, u] : ucol_[k]) t -= u * y[r];
    y[pivot_row_[k]] = t / udiag_[k];
  }
  // L^T backward.
  for (auto it = lsteps_.rbegin(); it != lsteps_.rend(); ++it) {
    const int k = *it;
    double acc = 0.0;
    for (const auto& [r, mult] : lcol_[k]) acc += mult * y[r];
    if (acc != 0.0) y[pivot_row_[k]] -= acc;
  }
}

SparseLuBasis::Update SparseLuBasis::update(int leave,
                                            const std::vector<double>& w,
                                            const std::vector<int>& wnz) {
  if (std::abs(w[leave]) < kPivotAbsTol) return Update::kSingular;
  Eta eta;
  eta.p = leave;
  eta.piv = w[leave];
  eta.off.reserve(wnz.size());
  for (const int i : wnz) {
    if (i != leave) eta.off.emplace_back(i, w[i]);
  }
  const long long added = static_cast<long long>(eta.off.size()) + 1;
  eta_file_nnz_ += added;
  stats.eta_nnz += added;
  etas_.push_back(std::move(eta));
  if (static_cast<int>(etas_.size()) >= kRefactorInterval) {
    return Update::kRefactorize;
  }
  if (static_cast<double>(eta_file_nnz_) >
      kEtaGrowthFactor * static_cast<double>(stats.lu_nnz + m_)) {
    return Update::kRefactorize;
  }
  return Update::kOk;
}

/// Solves L U x = vrow_ for the right-hand side scattered into vrow_ (its
/// rows listed in rtouch_). `x` is slot-space and zero on entry; the slots
/// of every touched row are marked in smark_, and vrow_ is cleared again.
/// The L solve runs ascending over the steps with an L column and the U
/// solve descending over the steps with a U column, as full-length solves
/// would. Any other step of the U solve only divides its own row, whose
/// value is final once the U steps are done (a U step writes only rows
/// pivoted before it), so those divisions come last, for touched rows only.
void SparseLuBasis::lu_solve(std::vector<double>& x) {
  for (const int k : lsteps_) {
    const double t = vrow_[pivot_row_[k]];
    if (t == 0.0) continue;
    for (const auto& [r, mult] : lcol_[k]) {
      touch_row(r);
      vrow_[r] -= mult * t;
    }
  }
  for (auto it = usteps_.rbegin(); it != usteps_.rend(); ++it) {
    const int k = *it;
    double t = vrow_[pivot_row_[k]];
    if (t != 0.0) {
      t /= udiag_[k];
      for (const auto& [r, u] : ucol_[k]) {
        touch_row(r);
        vrow_[r] -= u * t;
      }
    }
    x[pivot_slot_[k]] = t;
  }
  for (const int r : rtouch_) {
    const int k = step_of_row_[r];
    const int slot = pivot_slot_[k];
    if (ucol_[k].empty()) {
      double t = vrow_[r];
      if (t != 0.0) t /= udiag_[k];
      x[slot] = t;
    }
    vrow_[r] = 0.0;
    rmark_[r] = 0;
    mark_slot(slot);
  }
  rtouch_.clear();
}

/// Applies the eta file to slot-space `w`, marking each slot it writes.
void SparseLuBasis::apply_etas(std::vector<double>& w) {
  for (const Eta& e : etas_) {
    double t = w[e.p];
    if (t == 0.0) continue;
    t /= e.piv;
    w[e.p] = t;
    for (const auto& [s, v] : e.off) {
      mark_slot(s);
      w[s] -= v * t;
    }
  }
}

}  // namespace xring::lp
