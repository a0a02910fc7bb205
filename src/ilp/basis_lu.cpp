#include "ilp/basis_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>

#include "util/assert.hpp"

namespace wishbone::ilp {

BasisEngineKind resolve_engine(BasisEngineKind kind, int m) {
  if (kind != BasisEngineKind::kAuto) return kind;
  return m < kAutoDenseCutoff ? BasisEngineKind::kDense
                              : BasisEngineKind::kLu;
}

const char* engine_name(BasisEngineKind kind) {
  switch (kind) {
    case BasisEngineKind::kAuto: return "auto";
    case BasisEngineKind::kDense: return "dense";
    case BasisEngineKind::kLu: return "lu";
  }
  return "?";
}

namespace {

/// Readies an FTRAN output: all zero, size m.
void prepare(SparseVector& out, int m) {
  if (out.val.size() == static_cast<std::size_t>(m)) {
    out.clear();
  } else {
    out.reset(m);
  }
}

// ---------------------------------------------------------------- dense

/// Explicit dense inverse maintained by Gauss-Jordan elimination and
/// elementary row updates — the PR 1 solver core, kept verbatim as the
/// reference implementation the LU engine is differentially tested
/// against.
class DenseBasisEngine final : public BasisEngine {
 public:
  DenseBasisEngine(int m, const BasisEngineOptions& opts)
      : m_(m), opts_(opts) {
    set_identity();
  }

  [[nodiscard]] BasisEngineKind kind() const override {
    return BasisEngineKind::kDense;
  }

  void set_identity() override {
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) at(i, i) = 1.0;
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic) override {
    // binv_ = B^-1 by Gauss-Jordan with partial pivoting, where column
    // i of B is the constraint column of basic[i].
    std::vector<double>& B = b_scratch_;
    B.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      for (const auto& [row, coeff] : cols[basic[i]]) {
        B[static_cast<std::size_t>(row) * m_ + i] = coeff;
      }
    }
    set_identity();
    for (int col = 0; col < m_; ++col) {
      int piv = -1;
      double best = opts_.pivot_eps;
      for (int r = col; r < m_; ++r) {
        const double a = std::fabs(B[static_cast<std::size_t>(r) * m_ + col]);
        if (a > best) {
          best = a;
          piv = r;
        }
      }
      if (piv < 0) return false;  // singular basis
      if (piv != col) {
        for (int c = 0; c < m_; ++c) {
          std::swap(B[static_cast<std::size_t>(piv) * m_ + c],
                    B[static_cast<std::size_t>(col) * m_ + c]);
          std::swap(at(piv, c), at(col, c));
        }
      }
      const double d = B[static_cast<std::size_t>(col) * m_ + col];
      for (int c = 0; c < m_; ++c) {
        B[static_cast<std::size_t>(col) * m_ + c] /= d;
        at(col, c) /= d;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double f = B[static_cast<std::size_t>(r) * m_ + col];
        if (f == 0.0) continue;
        for (int c = 0; c < m_; ++c) {
          B[static_cast<std::size_t>(r) * m_ + c] -=
              f * B[static_cast<std::size_t>(col) * m_ + c];
          at(r, c) -= f * at(col, c);
        }
      }
    }
    ++stats_.refactorizations;
    return true;
  }

  void ftran(const SparseColumn& a, SparseVector& out) const override {
    prepare(out, m_);
    for (const auto& [row, coeff] : a) {
      if (coeff == 0.0) continue;
      for (int i = 0; i < m_; ++i) out.val[i] += at(i, row) * coeff;
    }
    for (int i = 0; i < m_; ++i) {
      if (out.val[i] != 0.0) out.idx.push_back(i);
    }
  }

  void ftran_dense(std::vector<double>& x) const override {
    std::vector<double>& tmp = scratch_;
    tmp.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      double v = 0.0;
      for (int k = 0; k < m_; ++k) v += at(i, k) * x[k];
      tmp[i] = v;
    }
    x = tmp;
  }

  void btran(std::vector<double>& y) const override {
    // y_out^T = y_in^T * Binv; the input (basic costs) is usually
    // sparse, so accumulate row-wise and skip zero rows.
    std::vector<double>& tmp = scratch_;
    tmp.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = y[i];
      if (cb == 0.0) continue;
      for (int k = 0; k < m_; ++k) tmp[k] += cb * at(i, k);
    }
    y = tmp;
  }

  void btran_unit(int r, std::vector<double>& out) const override {
    // e_r^T * Binv is literally row r of the explicit inverse.
    out.resize(m_);
    for (int k = 0; k < m_; ++k) out[k] = at(r, k);
  }

  [[nodiscard]] bool update(int leave_row, const SparseVector& w) override {
    // Elementary row update: eliminate the entering column from all
    // other rows of the inverse.
    const double piv = w.val[leave_row];
    WB_ASSERT_MSG(std::fabs(piv) > opts_.pivot_eps, "degenerate pivot");
    for (int c = 0; c < m_; ++c) at(leave_row, c) /= piv;
    for (int k : w.idx) {
      if (k == leave_row || std::fabs(w.val[k]) < 1e-14) continue;
      const double f = w.val[k];
      for (int c = 0; c < m_; ++c) at(k, c) -= f * at(leave_row, c);
    }
    return true;
  }

 private:
  double& at(int r, int c) {
    return binv_[static_cast<std::size_t>(r) * m_ + c];
  }
  [[nodiscard]] double at(int r, int c) const {
    return binv_[static_cast<std::size_t>(r) * m_ + c];
  }

  const int m_;
  const BasisEngineOptions opts_;
  std::vector<double> binv_;
  std::vector<double> b_scratch_;
  mutable std::vector<double> scratch_;
};

/// Variable-length lists in one flat buffer — the Markowitz workspace's
/// rows, column lists and count buckets. List l holds size(l) items from
/// start_[l], with room for room_[l]. A push onto a full list moves it
/// to the end of the buffer with twice the room; when the end is
/// reached the lists are packed to the front (each keeping its items'
/// order), and the buffer grows only if packing leaves it more than
/// half full. A warm arena therefore stops allocating once it has held its
/// largest total, not once every list has reached its own maximum.
/// A push may move any list: spans are valid only until the next push.
template <class T>
class ListArena {
 public:
  /// n empty lists; the buffer is kept.
  void reset(std::size_t n) {
    start_.assign(n, 0);
    size_.assign(n, 0);
    room_.assign(n, 0);
    top_ = 0;
  }
  [[nodiscard]] std::size_t size(std::size_t l) const { return size_[l]; }
  [[nodiscard]] std::span<T> list(std::size_t l) {
    return {buf_.data() + start_[l], size_[l]};
  }
  T& at(std::size_t l, std::size_t k) { return buf_[start_[l] + k]; }
  void push_back(std::size_t l, const T& v) {
    if (size_[l] == room_[l]) move_to_end(l);
    buf_[start_[l] + size_[l]++] = v;
  }
  void pop_back(std::size_t l) { --size_[l]; }
  /// Keeps the first n items of list l.
  void truncate(std::size_t l, std::size_t n) { size_[l] = n; }
  void clear(std::size_t l) { size_[l] = 0; }

 private:
  void move_to_end(std::size_t l) {
    const std::size_t want = std::max<std::size_t>(4, 2 * room_[l]);
    if (top_ + want > buf_.size()) {
      pack();
      if (2 * (top_ + want) > buf_.size()) {
        buf_.resize(2 * (top_ + want));
        spare_.resize(buf_.size());
      }
    }
    std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(start_[l]),
                size_[l], buf_.begin() + static_cast<std::ptrdiff_t>(top_));
    start_[l] = top_;
    room_[l] = want;
    top_ += want;
  }
  void pack() {
    std::size_t top = 0;
    for (std::size_t l = 0; l < start_.size(); ++l) {
      std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(start_[l]),
                  size_[l], spare_.begin() + static_cast<std::ptrdiff_t>(top));
      start_[l] = top;
      room_[l] = size_[l];
      top += size_[l];
    }
    buf_.swap(spare_);
    top_ = top;
  }

  std::vector<T> buf_, spare_;
  std::vector<std::size_t> start_, size_, room_;
  std::size_t top_ = 0;  ///< first unused slot of buf_
};

// ------------------------------------------------------------------- LU

/// Sparse LU with Markowitz pivoting plus a product-form eta file.
///
/// factorize() runs Gaussian elimination on the sparse basis matrix,
/// choosing each pivot by the Markowitz merit (r_i - 1)(c_j - 1) among
/// entries passing the threshold test |a_ij| >= tau * max|row i|. The
/// result is stored as the row/column pivot orders p/q, the multiplier
/// columns L_k, and the upper-triangular rows U_k (original indices, so
/// no explicit permutation matrices are needed). L, U and the eta file
/// are flat CSR arrays (start / index / value).
///
/// Each simplex pivot appends one eta vector: with w = B^-1 a_enter,
/// the new basis is B' = B E where E is the identity with column r
/// (the leaving row) replaced by w, so B'^-1 = E^-1 B^-1 and
///
///   FTRAN  apply E^-1 after the LU solve:   t = v_r / w_r,
///          v_i -= w_i t (i != r), v_r = t
///   BTRAN  apply E^-T before the LU solve:  c_r -= (c.w - c_r) / w_r
///
/// applied chronologically (FTRAN) / reverse-chronologically (BTRAN).
/// update() declines (returns false) when the eta file is full or
/// |w_r| is too small relative to max|w| — the numerical-drift guard —
/// and the caller refactorizes from the new basis instead.
///
/// Bit-identity invariant: every solve performs exactly the floating-
/// point operations of the plain dense sweeps (kept as the test oracle
/// in tests/lu_reference.hpp), in the same order, except operations
/// whose operand is an exact zero — a zero multiplier step or a zero
/// term of a sum, which cannot change any nonzero result. So results
/// equal the dense sweeps' up to the sign of zeros, and the simplex walk
/// (every pivot, every branch-and-bound node) is unchanged.
class LuBasisEngine final : public BasisEngine {
 public:
  /// Entries of the active submatrix at or below this magnitude are
  /// dropped during elimination.
  static constexpr double kDropTol = 1e-14;

  LuBasisEngine(int m, const BasisEngineOptions& opts) : m_(m), opts_(opts) {
    p_.resize(m_);
    q_.resize(m_);
    pinv_.resize(m_);
    diag_.resize(m_);
    lstart_.assign(static_cast<std::size_t>(m_) + 1, 0);
    ustart_.assign(static_cast<std::size_t>(m_) + 1, 0);
    estart_.assign(1, 0);
    // Workspace bounded by m or by the eta-file length is sized once.
    lsteps_.reserve(m_);
    usteps_.reserve(m_);
    bt_special_.reserve(m_);
    bt_unit_.reserve(m_);
    rlist_.reserve(m_);
    heap_.reserve(m_);
    er_.reserve(opts_.max_eta);
    ewr_.reserve(opts_.max_eta);
    estart_.reserve(opts_.max_eta + 1);
    u_stamp_.assign(m_, 0);
    upos_.assign(m_, 0);
    u_met_.assign(m_, 0);
    work_.assign(m_, 0.0);
    rmark_.assign(m_, 0);
    cbits_.assign((static_cast<std::size_t>(m_) + 63) / 64, 0);
    scratch_.assign(m_, 0.0);
    terms_.assign(m_, 0.0);
    set_identity();
  }

  [[nodiscard]] BasisEngineKind kind() const override {
    return BasisEngineKind::kLu;
  }

  void set_identity() override {
    for (int k = 0; k < m_; ++k) {
      p_[k] = k;
      q_[k] = k;
      pinv_[k] = k;
      diag_[k] = 1.0;
    }
    std::fill(lstart_.begin(), lstart_.end(), 0);
    std::fill(ustart_.begin(), ustart_.end(), 0);
    lidx_.clear();
    lval_.clear();
    uidx_.clear();
    uval_.clear();
    index_steps();
    clear_etas();
    stats_.factor_nnz = static_cast<std::size_t>(m_);
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic) override;

  void ftran(const SparseColumn& a, SparseVector& out) const override;

  void ftran_dense(std::vector<double>& x) const override {
    // L pass: replay the elimination's row operations on the rhs (steps
    // without multipliers are the identity).
    for (int k : lsteps_) {
      const double t = x[p_[k]];
      if (t == 0.0) continue;
      for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
        x[lidx_[e]] -= lval_[e] * t;
      }
    }
    // U pass: back-substitution in pivot order; the solution lives in
    // column (= basis-position) space.
    std::vector<double>& sol = scratch_;
    for (int k = m_ - 1; k >= 0; --k) {
      double t = x[p_[k]];
      for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
        t -= uval_[e] * sol[uidx_[e]];
      }
      sol[q_[k]] = t / diag_[k];
    }
    x.swap(sol);
    // Eta file, chronologically: v <- E^-1 v per absorbed pivot.
    const int n_eta = static_cast<int>(er_.size());
    for (int e = 0; e < n_eta; ++e) {
      const double vr = x[er_[e]];
      if (vr == 0.0) continue;
      const double t = vr / ewr_[e];
      for (int s = estart_[e]; s < estart_[e + 1]; ++s) {
        x[eidx_[s]] -= eval_[s] * t;
      }
      x[er_[e]] = t;
    }
  }

  void btran(std::vector<double>& y) const override;

  void btran_unit(int r, std::vector<double>& out) const override {
    out.assign(m_, 0.0);
    out[r] = 1.0;
    btran(out);
  }

  [[nodiscard]] bool update(int leave_row, const SparseVector& w) override {
    if (er_.size() >= opts_.max_eta) return false;  // file full
    double wmax = 0.0;
    for (int i : w.idx) wmax = std::max(wmax, std::fabs(w.val[i]));
    const double wr = w.val[leave_row];
    // Drift guard: a pivot tiny relative to the direction it came from
    // would amplify error through every later eta application.
    if (std::fabs(wr) <= opts_.pivot_eps ||
        std::fabs(wr) < opts_.eta_stab * wmax) {
      return false;
    }
    // w.idx is increasing, so the eta keeps its entries in row order —
    // the order BTRAN sums them in.
    for (int i : w.idx) {
      if (i != leave_row && std::fabs(w.val[i]) > opts_.eta_drop) {
        eidx_.push_back(i);
        eval_.push_back(w.val[i]);
      }
    }
    er_.push_back(leave_row);
    ewr_.push_back(wr);
    estart_.push_back(static_cast<int>(eidx_.size()));
    ++stats_.eta_updates;
    stats_.eta_len = er_.size();
    stats_.eta_len_peak = std::max(stats_.eta_len_peak, stats_.eta_len);
    return true;
  }

 private:
  /// Rebuilds the step lists the solves iterate over.
  void index_steps() {
    lsteps_.clear();
    usteps_.clear();
    bt_special_.clear();
    bt_unit_.clear();
    for (int k = 0; k < m_; ++k) {
      if (lstart_[k] != lstart_[k + 1]) lsteps_.push_back(k);
      if (ustart_[k] != ustart_[k + 1] || std::fabs(diag_[k]) != 1.0) {
        bt_special_.push_back(k);
      } else {
        bt_unit_.push_back({q_[k], p_[k], diag_[k]});
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      if (ustart_[k] != ustart_[k + 1]) usteps_.push_back(k);
    }
  }

  void clear_etas() {
    er_.clear();
    ewr_.clear();
    estart_.resize(1);
    eidx_.clear();
    eval_.clear();
    stats_.eta_len = 0;
  }

  /// Marks position j of an FTRAN result as (possibly) nonzero.
  void mark_col(int j) const {
    cbits_[static_cast<std::size_t>(j) >> 6] |= std::uint64_t{1} << (j & 63);
  }

  const int m_;
  const BasisEngineOptions opts_;

  // Factorization, pivot order k = 0..m-1 (original indices; the pivot
  // orders p_/q_ replace explicit permutation matrices).
  std::vector<int> p_;        ///< p_[k] = pivot row of step k
  std::vector<int> q_;        ///< q_[k] = pivot column of step k
  std::vector<int> pinv_;     ///< pinv_[p_[k]] = k
  std::vector<double> diag_;  ///< pivot values
  /// L column k: (row lidx_[e], multiplier lval_[e]) for e in
  /// [lstart_[k], lstart_[k+1]); every row pivots after step k.
  std::vector<int> lstart_, lidx_;
  std::vector<double> lval_;
  /// U row k: (column uidx_[e], value uval_[e]) for e in
  /// [ustart_[k], ustart_[k+1]); every column pivots after step k.
  std::vector<int> ustart_, uidx_;
  std::vector<double> uval_;
  std::vector<int> lsteps_;  ///< steps with a nonempty L column, increasing
  std::vector<int> usteps_;  ///< steps with a nonempty U row, decreasing
  /// BTRAN's U^T pass: the steps that scatter (a nonempty U row) or
  /// divide (a pivot other than +-1), increasing; every other step is a
  /// permuted copy scaled by its +-1 pivot.
  struct UnitStep {
    int q, p;
    double d;
  };
  std::vector<int> bt_special_;
  std::vector<UnitStep> bt_unit_;

  /// Eta file, chronological: eta e replaces basis row er_[e] with pivot
  /// ewr_[e]; its off-pivot entries (row eidx_[s], value eval_[s]) for s
  /// in [estart_[e], estart_[e+1]) are in increasing row order.
  std::vector<int> er_, estart_, eidx_;
  std::vector<double> ewr_, eval_;

  // Factorization workspace (persists across refactorizations, so a
  // warm engine refactorizes without touching the heap).
  ListArena<std::pair<int, double>> rows_;  ///< active submatrix, by row
  ListArena<int> colrows_;  ///< lazy col -> row lists
  ListArena<int> buckets_;  ///< lazy rows-by-count lists
  std::vector<int> colcount_;
  std::vector<std::uint8_t> row_active_;
  std::vector<std::uint8_t> row_clean_;  ///< every |entry| > kDropTol
  /// Entries in increasing column order: rows are built that way and
  /// keep it until they take fill-in.
  std::vector<std::uint8_t> row_sorted_;
  std::vector<std::uint32_t> u_stamp_;  ///< == stamp_: column in U row k
  std::vector<int> upos_;               ///< its entry index in uidx_
  std::vector<std::uint8_t> u_met_;     ///< U column met in this row
  std::uint32_t stamp_ = 0;

  // Solve workspace. work_ (row space) and the marks are all zero
  // between calls; scratch_ is a plain size-m buffer.
  mutable std::vector<double> work_;
  mutable std::vector<std::uint8_t> rmark_;
  /// Bitset of the FTRAN result's pattern; read out in increasing order.
  mutable std::vector<std::uint64_t> cbits_;
  mutable std::vector<int> rlist_, heap_;
  mutable std::vector<double> scratch_;
  mutable std::vector<double> terms_;  ///< BTRAN eta-sum terms, size m
};

void LuBasisEngine::ftran(const SparseColumn& a, SparseVector& out) const {
  prepare(out, m_);
  // Scatter the column into row space, listing its rows; a row's L step
  // joins the min-heap of pending steps if it has multipliers.
  const auto push_row = [&](int i) {
    rmark_[i] = 1;
    rlist_.push_back(i);
    const int k = pinv_[i];
    if (lstart_[k] != lstart_[k + 1]) {
      heap_.push_back(k);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  };
  for (const auto& [row, coeff] : a) {
    if (!rmark_[row]) push_row(row);
    work_[row] += coeff;
  }
  // L pass over the reachable steps only, in increasing k: step k's
  // multipliers hit rows that pivot later, so the heap pops steps in
  // exactly the dense sweep's order.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const int k = heap_.back();
    heap_.pop_back();
    const double t = work_[p_[k]];
    if (t == 0.0) continue;
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      const int i = lidx_[e];
      if (!rmark_[i]) push_row(i);
      work_[i] -= lval_[e] * t;
    }
  }
  // U pass, row space -> column space. A step without U entries is a
  // plain scaling of its own row; the few steps with U entries run the
  // back-substitution in decreasing k, after every scaling they read.
  for (int i : rlist_) {
    const int k = pinv_[i];
    if (ustart_[k] != ustart_[k + 1]) continue;
    const double t = work_[i];
    if (t == 0.0) continue;
    out.val[q_[k]] = t / diag_[k];
    mark_col(q_[k]);
  }
  for (int k : usteps_) {
    double t = work_[p_[k]];
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      t -= uval_[e] * out.val[uidx_[e]];
    }
    if (t == 0.0) continue;
    out.val[q_[k]] = t / diag_[k];
    mark_col(q_[k]);
  }
  for (int i : rlist_) {
    work_[i] = 0.0;
    rmark_[i] = 0;
  }
  rlist_.clear();
  // Eta file, chronologically; an eta whose pivot entry is zero is the
  // identity on this vector.
  const int n_eta = static_cast<int>(er_.size());
  for (int e = 0; e < n_eta; ++e) {
    const double vr = out.val[er_[e]];
    if (vr == 0.0) continue;
    const double t = vr / ewr_[e];
    for (int s = estart_[e]; s < estart_[e + 1]; ++s) {
      mark_col(eidx_[s]);
      out.val[eidx_[s]] -= eval_[s] * t;
    }
    out.val[er_[e]] = t;
  }
  // Read the pattern out of the bitset in increasing order, clearing it.
  for (std::size_t w = 0; w < cbits_.size(); ++w) {
    std::uint64_t bits = cbits_[w];
    if (bits == 0) continue;
    cbits_[w] = 0;
    const int base = static_cast<int>(w * 64);
    for (; bits != 0; bits &= bits - 1) {
      out.idx.push_back(base + std::countr_zero(bits));
    }
  }
}

void LuBasisEngine::btran(std::vector<double>& y) const {
  // Eta file in reverse: c^T <- c^T E^-1 touches only component r.
  // The sum c.w is one serial chain of additions; the nonzero terms
  // are gathered first (branch-free) so the chain runs over those
  // alone — adding an exact zero term changes no nonzero sum.
  std::vector<double>& terms = terms_;
  for (int e = static_cast<int>(er_.size()) - 1; e >= 0; --e) {
    const int r = er_[e];
    std::size_t n = 0;
    for (int i = estart_[e]; i < estart_[e + 1]; ++i) {
      const double yi = y[eidx_[i]];
      terms[n] = yi * eval_[i];
      n += yi != 0.0;
    }
    double s = y[r] * ewr_[e];
    for (std::size_t t = 0; t < n; ++t) s += terms[t];
    y[r] -= (s - y[r]) / ewr_[e];
  }
  // U^T forward pass: residual update in column space (in place in
  // y), solution z in row space. Only steps with U entries scatter, and
  // only into later steps' columns, so they (with the non-unit pivots)
  // run first in increasing k; every other step then reads its final
  // residual, and dividing by its +-1 pivot is exact as a product.
  std::vector<double>& z = scratch_;
  for (int k : bt_special_) {
    const double zk = y[q_[k]] / diag_[k];
    z[p_[k]] = zk;
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      y[uidx_[e]] -= uval_[e] * zk;
    }
  }
  for (const UnitStep& u : bt_unit_) z[u.p] = y[u.q] * u.d;
  // L^T pass: transposed row operations in reverse order over the steps
  // with multipliers (the rest are the identity).
  for (auto it = lsteps_.rbegin(); it != lsteps_.rend(); ++it) {
    const int k = *it;
    double acc = z[p_[k]];
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      acc -= lval_[e] * z[lidx_[e]];
    }
    z[p_[k]] = acc;
  }
  y.swap(z);
}

bool LuBasisEngine::factorize(const std::vector<SparseColumn>& cols,
                              const std::vector<int>& basic) {
  // Working matrix, row-wise; column j of B is cols[basic[j]].
  rows_.reset(m_);
  colrows_.reset(m_);
  buckets_.reset(static_cast<std::size_t>(m_) + 1);
  colcount_.assign(m_, 0);
  row_active_.assign(m_, 1);
  row_clean_.assign(m_, 1);
  row_sorted_.assign(m_, 1);
  for (int j = 0; j < m_; ++j) {
    for (const auto& [r, v] : cols[basic[j]]) {
      if (v == 0.0) continue;
      if (std::fabs(v) <= kDropTol) row_clean_[r] = 0;
      rows_.push_back(r, {j, v});
      colrows_.push_back(j, r);
      ++colcount_[j];
    }
  }
  for (int i = 0; i < m_; ++i) {
    buckets_.push_back(rows_.size(i), i);
  }
  lidx_.clear();
  lval_.clear();
  uidx_.clear();
  uval_.clear();
  lstart_[0] = 0;
  ustart_[0] = 0;

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
      for (std::size_t s = 0; s < buckets_.size(c);) {
        const int i = buckets_.at(c, s);
        if (!row_active_[i] ||
            static_cast<int>(rows_.size(i)) != c) {  // stale entry
          buckets_.at(c, s) = buckets_.at(c, buckets_.size(c) - 1);
          buckets_.pop_back(c);
          continue;
        }
        ++s;
        double rowmax = 0.0;
        for (const auto& [j, v] : rows_.list(i)) {
          rowmax = std::max(rowmax, std::fabs(v));
        }
        if (rowmax <= opts_.pivot_eps) return false;  // singular row
        const double thresh =
            std::max(opts_.markowitz_tau * rowmax, opts_.pivot_eps);
        for (const auto& [j, v] : rows_.list(i)) {
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
    for (const auto& [j, v] : rows_.list(pi)) {
      if (j == pj) {
        apiv = v;
      } else {
        uidx_.push_back(j);
        uval_.push_back(v);
      }
      --colcount_[j];
    }
    const int u0 = ustart_[k];
    const int u1 = static_cast<int>(uidx_.size());
    ustart_[k + 1] = u1;
    p_[k] = pi;
    q_[k] = pj;
    pinv_[pi] = k;
    diag_[k] = apiv;
    row_active_[pi] = 0;
    rows_.clear(pi);

    // --- Eliminate column pj from the remaining active rows:
    // row_i -= mult * (U row k), the pj entries cancelling by
    // construction. The row is rewritten in place, keeping the order a
    // scatter/gather rebuild would give — surviving old entries first,
    // in their old order, then fill-in in U-row order — with entries of
    // magnitude <= kDropTol dropped. The U row's columns are stamped
    // once per step so each row pass is a single sweep.
    ++stamp_;
    for (int e = u0; e < u1; ++e) {
      u_stamp_[uidx_[e]] = stamp_;
      upos_[uidx_[e]] = e;
    }
    // Lists are read by index: pushes below may move them.
    for (std::size_t t = 0; t < colrows_.size(pj); ++t) {
      const int i = colrows_.at(pj, t);
      if (!row_active_[i]) continue;
      const std::span<std::pair<int, double>> row = rows_.list(i);
      std::size_t at = 0;
      if (row_sorted_[i]) {
        at = static_cast<std::size_t>(
            std::lower_bound(row.begin(), row.end(), pj,
                             [](const auto& entry, int j) {
                               return entry.first < j;
                             }) -
            row.begin());
        if (at < row.size() && row[at].first != pj) at = row.size();
      } else {
        while (at < row.size() && row[at].first != pj) ++at;
      }
      if (at == row.size()) continue;  // stale colrows entry
      const double mult = row[at].second / apiv;
      lidx_.push_back(i);
      lval_.push_back(mult);

      if (u0 == u1 && row_clean_[i]) {
        // No U entries and nothing to drop: only the pj entry goes.
        std::copy(row.begin() + static_cast<std::ptrdiff_t>(at) + 1, row.end(),
                  row.begin() + static_cast<std::ptrdiff_t>(at));
        rows_.truncate(i, row.size() - 1);
      } else {
        for (int e = u0; e < u1; ++e) u_met_[uidx_[e]] = 0;
        std::size_t out = 0;
        for (std::size_t r = 0; r < row.size(); ++r) {
          const int j = row[r].first;
          if (j == pj) continue;
          double v = row[r].second;
          if (u_stamp_[j] == stamp_) {
            v -= mult * uval_[upos_[j]];
            u_met_[j] = 1;
          }
          if (std::fabs(v) > kDropTol) {
            row[out++] = {j, v};
          } else {  // cancelled out
            --colcount_[j];
          }
        }
        rows_.truncate(i, out);
        for (int e = u0; e < u1; ++e) {
          const int j = uidx_[e];
          if (u_met_[j]) continue;
          const double v = -mult * uval_[e];
          if (std::fabs(v) > kDropTol) {  // fill-in
            row_sorted_[i] = 0;
            rows_.push_back(i, {j, v});
            ++colcount_[j];
            colrows_.push_back(j, i);
          }
        }
        row_clean_[i] = 1;
      }
      buckets_.push_back(rows_.size(i), i);
    }
    lstart_[k + 1] = static_cast<int>(lidx_.size());
    colrows_.clear(pj);
  }

  index_steps();
  stats_.factor_nnz = static_cast<std::size_t>(m_) + lidx_.size() + uidx_.size();
  clear_etas();
  ++stats_.refactorizations;
  return true;
}

}  // namespace

std::unique_ptr<BasisEngine> make_basis_engine(BasisEngineKind kind, int m,
                                               const BasisEngineOptions& opts) {
  switch (resolve_engine(kind, m)) {
    case BasisEngineKind::kLu:
      return std::make_unique<LuBasisEngine>(m, opts);
    default:
      return std::make_unique<DenseBasisEngine>(m, opts);
  }
}

}  // namespace wishbone::ilp
