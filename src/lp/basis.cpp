#include "lp/basis.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

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

bool SparseLuBasis::factorize(const std::vector<SparseCol>& cols,
                              const std::vector<int>& basis) {
  ++stats.factorizations;
  const int m = m_;
  etas_.clear();
  eta_file_nnz_ = 0;
  pivot_row_.assign(m, -1);
  pivot_slot_.assign(m, -1);
  lcol_.assign(m, {});
  ucol_.assign(m, {});
  udiag_.assign(m, 0.0);
  if (m == 0) return true;

  // Active submatrix, column-wise. Entries in already-pivoted (inactive)
  // rows linger in colv as the finished U part of that column.
  std::vector<SparseCol> colv(m);
  for (int j = 0; j < m; ++j) colv[j] = cols[basis[j]];
  std::vector<std::vector<int>> rows_of(m);  // row -> slots (may go stale)
  std::vector<int> rcount(m, 0), ccount(m, 0);
  std::vector<char> row_active(m, 1), col_active(m, 1);
  for (int j = 0; j < m; ++j) {
    ccount[j] = static_cast<int>(colv[j].size());
    for (const auto& [r, v] : colv[j]) {
      (void)v;
      rows_of[r].push_back(j);
      ++rcount[r];
    }
  }

  // Columns bucketed by active count; bucket_of[j] names the only bucket
  // entry considered live (older entries are dropped lazily).
  std::vector<std::vector<int>> bucket(m + 1);
  std::vector<int> bucket_of(m, -1);
  auto enbucket = [&](int j) {
    const int c = std::min(ccount[j], m);
    if (bucket_of[j] == c) return;
    bucket_of[j] = c;
    bucket[c].push_back(j);
  };
  for (int j = 0; j < m; ++j) enbucket(j);

  // Dense scratch for the sparse axpy: value + origin state per row.
  std::vector<double> wvals(m, 0.0);
  std::vector<char> state(m, 0);  // 0 absent, 1 pre-existing, 2 fill-in
  std::vector<int> touched;
  touched.reserve(64);
  // rows_of may list a column twice (a cancelled entry plus a later
  // fill-in); this stamp makes each column eliminate at most once per
  // pivot step.
  std::vector<int> eliminated_stamp(m, -1);

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
      auto& bk = bucket[c];
      for (std::size_t bi = 0; bi < bk.size();) {
        const int j = bk[bi];
        if (!col_active[j] || bucket_of[j] != c || ccount[j] != c) {
          // Stale: drop, re-bucketing if it still lives elsewhere.
          bk[bi] = bk.back();
          bk.pop_back();
          if (col_active[j] && bucket_of[j] == c) enbucket(j);
          continue;
        }
        // Column max over active rows, then the admissible entry with the
        // fewest row nonzeros (ties: lowest row index).
        double colmax = 0.0;
        for (const auto& [r, v] : colv[j]) {
          if (row_active[r]) colmax = std::max(colmax, std::abs(v));
        }
        if (colmax >= kPivotAbsTol) {
          const double admit = std::max(kPivotAbsTol, kTau * colmax);
          int cand_row = -1;
          for (const auto& [r, v] : colv[j]) {
            if (!row_active[r] || std::abs(v) < admit) continue;
            if (cand_row < 0 || rcount[r] < rcount[cand_row] ||
                (rcount[r] == rcount[cand_row] && r < cand_row)) {
              cand_row = r;
            }
          }
          if (cand_row >= 0) {
            const long long mc =
                static_cast<long long>(rcount[cand_row] - 1) * (c - 1);
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
    col_active[jk] = 0;
    row_active[ik] = 0;

    // --- Finalize L and U for the pivot column -----------------------
    double piv = 0.0;
    for (const auto& [r, v] : colv[jk]) {
      if (r == ik) piv = v;
    }
    udiag_[k] = piv;
    for (const auto& [r, v] : colv[jk]) {
      if (r == ik) continue;
      if (row_active[r]) {
        lcol_[k].emplace_back(r, v / piv);
        --rcount[r];
      } else {
        ucol_[k].emplace_back(r, v);
      }
    }

    // --- Eliminate the pivot row from every other active column ------
    for (const int j : rows_of[ik]) {
      if (!col_active[j]) continue;
      if (eliminated_stamp[j] == k) continue;
      eliminated_stamp[j] = k;
      double a = 0.0;
      bool present = false;
      for (const auto& [r, v] : colv[j]) {
        if (r == ik) {
          a = v;
          present = true;
          break;
        }
      }
      if (!present) continue;  // stale index entry (cancelled earlier)
      touched.clear();
      SparseCol rebuilt;
      rebuilt.reserve(colv[j].size() + lcol_[k].size());
      for (const auto& [r, v] : colv[j]) {
        if (row_active[r]) {
          wvals[r] = v;
          state[r] = 1;
          touched.push_back(r);
        } else {
          rebuilt.emplace_back(r, v);  // U part (includes the ik entry)
        }
      }
      if (a != 0.0) {
        for (const auto& [r, mult] : lcol_[k]) {
          if (state[r] != 0) {
            wvals[r] -= mult * a;
          } else {
            wvals[r] = -mult * a;
            state[r] = 2;
            touched.push_back(r);
          }
        }
      }
      int cc = 0;
      for (const int r : touched) {
        if (wvals[r] != 0.0) {
          rebuilt.emplace_back(r, wvals[r]);
          ++cc;
          if (state[r] == 2) {
            ++rcount[r];
            rows_of[r].push_back(j);
          }
        } else if (state[r] == 1) {
          --rcount[r];  // exact cancellation
        }
        wvals[r] = 0.0;
        state[r] = 0;
      }
      colv[j] = std::move(rebuilt);
      ccount[j] = cc;
      enbucket(j);
    }
    rows_of[ik].clear();
    rows_of[ik].shrink_to_fit();
  }

  long long lu = m;  // diagonal
  for (int k = 0; k < m; ++k) {
    lu += static_cast<long long>(lcol_[k].size() + ucol_[k].size());
  }
  stats.lu_nnz = lu;
  return true;
}

void SparseLuBasis::ftran(const SparseCol& a, std::vector<double>& w,
                          std::vector<int>& nz) {
  const int m = m_;
  vrow_.assign(m, 0.0);
  for (const auto& [r, v] : a) vrow_[r] += v;
  lsolve(vrow_);
  w.assign(m, 0.0);
  usolve(vrow_, w);
  apply_etas(w);
  nz.clear();
  for (int i = 0; i < m; ++i) {
    if (w[i] != 0.0) nz.push_back(i);
  }
  ++stats.ftran_calls;
  stats.ftran_nnz += static_cast<long long>(nz.size());
}

void SparseLuBasis::ftran_dense(const std::vector<double>& b,
                                std::vector<double>& x) {
  const int m = m_;
  vrow_ = b;
  lsolve(vrow_);
  x.assign(m, 0.0);
  usolve(vrow_, x);
  apply_etas(x);
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
  // U^T forward solve into row space.
  y.assign(m, 0.0);
  for (int k = 0; k < m; ++k) {
    double t = vslot_[pivot_slot_[k]];
    for (const auto& [r, u] : ucol_[k]) t -= u * y[r];
    y[pivot_row_[k]] = t / udiag_[k];
  }
  // L^T backward.
  for (int k = m - 1; k >= 0; --k) {
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

/// In-place forward solve L v = v over original row indices.
void SparseLuBasis::lsolve(std::vector<double>& v) const {
  const int m = m_;
  for (int k = 0; k < m; ++k) {
    const double t = v[pivot_row_[k]];
    if (t == 0.0) continue;
    for (const auto& [r, mult] : lcol_[k]) v[r] -= mult * t;
  }
}

/// Back substitution U x = v; x is slot-space, v row-space (consumed).
void SparseLuBasis::usolve(std::vector<double>& v,
                           std::vector<double>& x) const {
  for (int k = m_ - 1; k >= 0; --k) {
    double t = v[pivot_row_[k]];
    if (t != 0.0) {
      t /= udiag_[k];
      for (const auto& [r, u] : ucol_[k]) v[r] -= u * t;
    }
    x[pivot_slot_[k]] = t;
  }
}

void SparseLuBasis::apply_etas(std::vector<double>& w) const {
  for (const Eta& e : etas_) {
    double t = w[e.p];
    if (t == 0.0) continue;
    t /= e.piv;
    w[e.p] = t;
    for (const auto& [s, v] : e.off) w[s] -= v * t;
  }
}

}  // namespace xring::lp
