// Test oracle for the LU basis engine: the sparse LU + eta-file engine
// as it stood before its solves went hypersparse — vector-of-vector L,
// U and eta storage, and FTRAN / BTRAN / update loops that sweep all m
// rows. The production engine (src/ilp/basis_lu.cpp) must reproduce
// these results bit for bit (tests/test_lp_differential.cpp,
// LuBitIdentity.*): skipping zero work changes no nonzero result, and
// every remaining operation happens in the same order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "ilp/basis_lu.hpp"

namespace testref {

using wishbone::ilp::BasisEngineOptions;
using wishbone::ilp::SparseColumn;

class ReferenceLu {
 public:
  ReferenceLu(int m, const BasisEngineOptions& opts) : m_(m), opts_(opts) {
    p_.resize(m_);
    q_.resize(m_);
    diag_.resize(m_);
    lcols_.resize(m_);
    urows_.resize(m_);
    spa_val_.assign(m_, 0.0);
    spa_stamp_.assign(m_, 0);
    spa_from_old_.assign(m_, 0);
    set_identity();
  }

  void set_identity() {
    for (int k = 0; k < m_; ++k) {
      p_[k] = k;
      q_[k] = k;
      diag_[k] = 1.0;
      lcols_[k].clear();
      urows_[k].clear();
    }
    etas_.clear();
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic);

  [[nodiscard]] std::size_t eta_len() const { return etas_.size(); }

  void ftran(const SparseColumn& a, std::vector<double>& out) const {
    out.assign(m_, 0.0);
    for (const auto& [row, coeff] : a) out[row] += coeff;
    ftran_dense(out);
  }

  void ftran_dense(std::vector<double>& x) const {
    // L pass: replay the elimination's row operations on the rhs.
    for (int k = 0; k < m_; ++k) {
      const double t = x[p_[k]];
      if (t == 0.0) continue;
      for (const auto& [i, mult] : lcols_[k]) x[i] -= mult * t;
    }
    // U pass: back-substitution in pivot order; the solution lives in
    // column (= basis-position) space.
    std::vector<double>& sol = scratch_a_;
    sol.assign(m_, 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      double t = x[p_[k]];
      for (const auto& [j, v] : urows_[k]) t -= v * sol[j];
      sol[q_[k]] = t / diag_[k];
    }
    x = sol;
    // Eta file, chronologically: v <- E^-1 v per absorbed pivot.
    for (const Eta& e : etas_) {
      const double vr = x[e.r];
      if (vr == 0.0) continue;
      const double t = vr / e.wr;
      for (const auto& [i, wi] : e.w) x[i] -= wi * t;
      x[e.r] = t;
    }
  }

  void btran(std::vector<double>& y) const {
    // Eta file in reverse: c^T <- c^T E^-1 touches only component r.
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = y[it->r] * it->wr;
      for (const auto& [i, wi] : it->w) s += y[i] * wi;
      y[it->r] -= (s - y[it->r]) / it->wr;
    }
    // U^T forward pass: residual update in column space, solution z in
    // row space.
    std::vector<double>& rz = scratch_a_;
    std::vector<double>& z = scratch_b_;
    rz = y;
    z.assign(m_, 0.0);
    for (int k = 0; k < m_; ++k) {
      const double zk = rz[q_[k]] / diag_[k];
      z[p_[k]] = zk;
      if (zk == 0.0) continue;
      for (const auto& [j, v] : urows_[k]) rz[j] -= v * zk;
    }
    // L^T pass: transposed row operations in reverse order.
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = z[p_[k]];
      for (const auto& [i, mult] : lcols_[k]) acc -= mult * z[i];
      z[p_[k]] = acc;
    }
    y = z;
  }

  void btran_unit(int r, std::vector<double>& out) const {
    out.assign(m_, 0.0);
    out[r] = 1.0;
    btran(out);
  }

  [[nodiscard]] bool update(int leave_row,
                            const std::vector<double>& w) {
    if (etas_.size() >= opts_.max_eta) return false;  // file full
    double wmax = 0.0;
    for (double v : w) wmax = std::max(wmax, std::fabs(v));
    const double wr = w[leave_row];
    // Drift guard: a pivot tiny relative to the direction it came from
    // would amplify error through every later eta application.
    if (std::fabs(wr) <= opts_.pivot_eps ||
        std::fabs(wr) < opts_.eta_stab * wmax) {
      return false;
    }
    Eta e;
    e.r = leave_row;
    e.wr = wr;
    for (int i = 0; i < m_; ++i) {
      if (i != leave_row && std::fabs(w[i]) > opts_.eta_drop) {
        e.w.emplace_back(i, w[i]);
      }
    }
    etas_.push_back(std::move(e));
    return true;
  }

 private:
  struct Eta {
    int r = 0;                                ///< leaving basis row
    double wr = 1.0;                          ///< w[r] (the pivot)
    std::vector<std::pair<int, double>> w;    ///< w off-pivot nonzeros
  };

  const int m_;
  const BasisEngineOptions opts_;

  // Factorization, pivot order k = 0..m-1 (original indices; the pivot
  // orders p_/q_ replace explicit permutation matrices).
  std::vector<int> p_;       ///< p_[k] = pivot row of step k
  std::vector<int> q_;       ///< q_[k] = pivot column of step k
  std::vector<double> diag_; ///< pivot values
  std::vector<std::vector<std::pair<int, double>>> lcols_;  ///< (row, mult)
  std::vector<std::vector<std::pair<int, double>>> urows_;  ///< (col, val)

  std::vector<Eta> etas_;

  // Factorization workspace (persists across refactorizations).
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<std::vector<int>> colrows_;  ///< lazy col -> row lists
  std::vector<std::vector<int>> buckets_;  ///< lazy rows-by-count lists
  std::vector<int> colcount_;
  std::vector<std::uint8_t> row_active_, col_active_;
  std::vector<double> spa_val_;
  std::vector<std::uint32_t> spa_stamp_;
  std::vector<std::uint8_t> spa_from_old_;
  std::uint32_t stamp_ = 0;
  std::vector<int> touched_;

  mutable std::vector<double> scratch_a_, scratch_b_;
};

inline bool ReferenceLu::factorize(const std::vector<SparseColumn>& cols,
                                   const std::vector<int>& basic) {
  // Working matrix, row-wise; column j of B is cols[basic[j]].
  rows_.assign(m_, {});
  colrows_.assign(m_, {});
  colcount_.assign(m_, 0);
  row_active_.assign(m_, 1);
  col_active_.assign(m_, 1);
  buckets_.assign(static_cast<std::size_t>(m_) + 1, {});
  for (int j = 0; j < m_; ++j) {
    for (const auto& [r, v] : cols[basic[j]]) {
      if (v == 0.0) continue;
      rows_[r].emplace_back(j, v);
      colrows_[j].push_back(r);
      ++colcount_[j];
    }
  }
  for (int i = 0; i < m_; ++i) {
    buckets_[rows_[i].size()].push_back(i);
  }

  // Rows examined per pivot before settling for the best merit seen.
  // Smallest-count rows are scanned first (Suhl-style), so the scan is
  // O(candidates * nnz) per pivot instead of a full matrix sweep.
  constexpr int kSearchRows = 8;

  for (int k = 0; k < m_; ++k) {
    // --- Markowitz pivot selection with threshold stability, over the
    // count buckets. Bucket entries are lazily validated: every row
    // rebuild pushes the row into its new bucket, so an entry is live
    // only if the row is still active with a matching count.
    std::size_t best_merit = static_cast<std::size_t>(-1);
    double best_abs = 0.0;
    int best_i = -1, best_j = -1;
    int examined = 0;
    for (int c = 1; c <= m_ && best_merit > 0; ++c) {
      std::vector<int>& bucket = buckets_[c];
      for (std::size_t s = 0; s < bucket.size();) {
        const int i = bucket[s];
        if (!row_active_[i] ||
            static_cast<int>(rows_[i].size()) != c) {  // stale entry
          bucket[s] = bucket.back();
          bucket.pop_back();
          continue;
        }
        ++s;
        double rowmax = 0.0;
        for (const auto& [j, v] : rows_[i]) {
          rowmax = std::max(rowmax, std::fabs(v));
        }
        if (rowmax <= opts_.pivot_eps) return false;  // singular row
        const double thresh =
            std::max(opts_.markowitz_tau * rowmax, opts_.pivot_eps);
        for (const auto& [j, v] : rows_[i]) {
          const double a = std::fabs(v);
          if (a < thresh) continue;
          const std::size_t merit =
              static_cast<std::size_t>(c - 1) * (colcount_[j] - 1);
          if (merit < best_merit || (merit == best_merit && a > best_abs)) {
            best_merit = merit;
            best_abs = a;
            best_i = i;
            best_j = j;
          }
        }
        if (++examined >= kSearchRows && best_i >= 0) break;
      }
      if ((examined >= kSearchRows && best_i >= 0) || best_merit == 0) break;
    }
    if (best_i < 0) return false;  // every remaining row is empty/tiny

    // --- Record the pivot; move its row into U.
    const int pi = best_i, pj = best_j;
    double apiv = 0.0;
    urows_[k].clear();
    for (const auto& [j, v] : rows_[pi]) {
      if (j == pj) apiv = v;
      else urows_[k].emplace_back(j, v);
      --colcount_[j];
    }
    p_[k] = pi;
    q_[k] = pj;
    diag_[k] = apiv;
    row_active_[pi] = 0;
    col_active_[pj] = 0;
    rows_[pi].clear();
    rows_[pi].shrink_to_fit();

    // --- Eliminate column pj from the remaining active rows.
    lcols_[k].clear();
    for (int i : colrows_[pj]) {
      if (!row_active_[i]) continue;
      double aipj = 0.0;
      for (const auto& [j, v] : rows_[i]) {
        if (j == pj) {
          aipj = v;
          break;
        }
      }
      if (aipj == 0.0) continue;  // stale colrows entry
      const double mult = aipj / apiv;
      lcols_[k].emplace_back(i, mult);

      // Sparse row update via scatter: row_i -= mult * (U row k); the
      // pj entries cancel by construction.
      ++stamp_;
      touched_.clear();
      for (const auto& [j, v] : rows_[i]) {
        if (j == pj) continue;
        spa_val_[j] = v;
        spa_stamp_[j] = stamp_;
        spa_from_old_[j] = 1;
        touched_.push_back(j);
      }
      for (const auto& [j, v] : urows_[k]) {
        if (spa_stamp_[j] == stamp_) {
          spa_val_[j] -= mult * v;
        } else {
          spa_val_[j] = -mult * v;
          spa_stamp_[j] = stamp_;
          spa_from_old_[j] = 0;
          touched_.push_back(j);
        }
      }
      auto& row = rows_[i];
      row.clear();
      for (int j : touched_) {
        const double v = spa_val_[j];
        if (std::fabs(v) > 1e-14) {
          row.emplace_back(j, v);
          if (!spa_from_old_[j]) {  // fill-in
            ++colcount_[j];
            colrows_[j].push_back(i);
          }
        } else if (spa_from_old_[j]) {  // cancelled out
          --colcount_[j];
        }
      }
      buckets_[row.size()].push_back(i);
    }
    colrows_[pj].clear();
  }

  etas_.clear();
  return true;
}

}  // namespace testref
