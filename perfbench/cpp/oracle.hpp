// The plaintext decision oracle restricted to a disclosed block range.
//
// PISA evaluates I = N − X·F (eq. (6)/(7)) only over the blocks a request
// discloses, so the reference decision is the plaintext WATCH budget N
// (watch::PlainWatch / watch::PlainSdc) checked over the same range.
// Outside the range F must be zero (the SU client refuses to encrypt
// otherwise), so a full-range request reduces to PlainWatch's own verdict.
#pragma once

#include <cstdint>

#include "watch/plain_watch.hpp"

namespace perfbench {

inline bool oracle_granted(const pisa::watch::QMatrix& n, std::int64_t x,
                           const pisa::watch::QMatrix& f, std::uint32_t lo,
                           std::uint32_t hi) {
  for (std::uint32_t c = 0; c < f.channels(); ++c)
    for (std::uint32_t b = lo; b < hi; ++b) {
      const pisa::radio::ChannelId ch{c};
      const pisa::radio::BlockId bl{b};
      if (static_cast<__int128>(n.at(ch, bl)) -
              static_cast<__int128>(x) * f.at(ch, bl) <=
          0)
        return false;
    }
  return true;
}

inline bool oracle_granted(const pisa::watch::PlainWatch& oracle,
                           const pisa::watch::QMatrix& f, std::uint32_t lo,
                           std::uint32_t hi) {
  return oracle_granted(oracle.sdc().budget(), oracle.config().protection_scalar(),
                        f, lo, hi);
}

/// True iff some cell of blocks [lo, hi) has a non-positive budget N: any
/// request disclosing that range is then denied whatever its F, which is
/// what makes the SDC's one-round prefilter denial sound.
inline bool range_exhausted(const pisa::watch::QMatrix& n, std::uint32_t lo,
                            std::uint32_t hi) {
  for (std::uint32_t c = 0; c < n.channels(); ++c)
    for (std::uint32_t b = lo; b < hi; ++b)
      if (n.at(pisa::radio::ChannelId{c}, pisa::radio::BlockId{b}) <= 0) return true;
  return false;
}

inline bool range_exhausted(const pisa::watch::PlainWatch& oracle, std::uint32_t lo,
                            std::uint32_t hi) {
  return range_exhausted(oracle.sdc().budget(), lo, hi);
}

}  // namespace perfbench
