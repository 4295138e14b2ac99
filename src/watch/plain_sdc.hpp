// Plaintext SDC: the exact allocation algebra of paper §IV-A, operating on
// quantized integers. This is both the WATCH baseline and the ground-truth
// oracle the encrypted protocol is tested against.
#pragma once

#include <cstdint>
#include <map>

#include "watch/matrices.hpp"

namespace pisa::watch {

/// Outcome of evaluating one SU transmission request.
struct Decision {
  bool granted = false;
  std::size_t violations = 0;       // entries of I with I <= 0
  std::int64_t worst_margin = 0;    // min over I (signed); > 0 iff granted
};

class PlainSdc {
 public:
  /// `e_matrix` is E from the initialization step (§IV-A1).
  PlainSdc(const WatchConfig& cfg, QMatrix e_matrix);

  /// Store/replace PU i's W-matrix and rebuild N = Σ W_i + E (eq. (3)/(4)
  /// realized via the comparison-free eq. (9)/(10) form).
  void pu_update(std::uint32_t pu_id, QMatrix w_matrix);

  /// Incremental form: N ← N − W_old + W_new, the plaintext shape of the
  /// encrypted SDC's reset fold. Algebraically identical to pu_update, which
  /// plain_sdc_test pins round by round.
  void pu_update_incremental(std::uint32_t pu_id, QMatrix w_matrix);

  /// Evaluate a request: R = F·X (eq. (6)), I = N − R (eq. (7)), grant iff
  /// every entry of I is positive.
  Decision evaluate(const QMatrix& f_matrix) const;

  const QMatrix& budget() const { return n_; }          // N
  const QMatrix& e_matrix() const { return e_; }        // E
  std::size_t num_pus_tracked() const { return pu_w_.size(); }

 private:
  void rebuild();

  WatchConfig cfg_;
  QMatrix e_;
  QMatrix n_;
  std::map<std::uint32_t, QMatrix> pu_w_;
};

}  // namespace pisa::watch
