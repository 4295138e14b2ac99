#include "bigint/montgomery_ifma.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define PISA_IFMA_X86 1
#include <immintrin.h>
#else
#define PISA_IFMA_X86 0
#endif

namespace pisa::bn::ifma {

#if PISA_IFMA_X86

#define PISA_IFMA_TARGET __attribute__((target("avx512f,avx512ifma,avx512vl")))

bool available() {
  static const bool ok = __builtin_cpu_supports("avx512ifma") &&
                         __builtin_cpu_supports("avx512vl");
  return ok;
}

namespace {

constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;

// Resolves redundant (> 52-bit) lanes into clean 52-bit limbs in place. The
// value is < 2n < R52, so the final carry out of the top limb is zero.
void normalize52(std::uint64_t* limbs, std::size_t k) {
  std::uint64_t carry = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t s = limbs[j] + carry;
    limbs[j] = s & kMask52;
    carry = s >> 52;
  }
  assert(carry == 0);
}

// Whole-vector lane shift down by one: lane j of the result is lane j+1 of
// (hi:lo). The zero-masked form keeps GCC from reading an undefined source
// register (its plain alignr spells one and warns).
PISA_IFMA_TARGET inline __m512i shift_lane(__m512i hi, __m512i lo) {
  return _mm512_maskz_alignr_epi64(0xFF, hi, lo, 1);
}

// Lane 0 as a scalar (one vmovq). Vector subscripting instead of
// _mm512_castsi512_si128, which GCC 12 spells via an undefined register.
PISA_IFMA_TARGET inline std::uint64_t lane0(__m512i v) {
  return static_cast<std::uint64_t>(v[0]);
}

// Register-resident operand scan for k52 = 8·V limbs. The accumulator lives
// in V zmm registers for the whole pass and b in V more; n is read as a
// memory operand. Per limb a_i: add the low halves of a_i·b, read lane 0
// (vmovq) to pick m, add the low halves of m·n, drop the now-zero bottom
// lane by shifting every register down one lane, then add the high halves
// at their post-shift positions.
//
// The carry out of the dropped lane is kept in a scalar and folded into the
// next lane-0 read instead of being added back into the vector, which keeps
// the m computation the only scalar round trip per limb. Lanes stay
// redundant: with k52 <= 80 iterations and four < 2^52 contributions per
// lane per iteration they stay below 2^61.
template <std::size_t V>
PISA_IFMA_TARGET void amm_regs(const Ctx& ctx, const std::uint64_t* a,
                               const std::uint64_t* b, std::uint64_t* out) {
  constexpr std::size_t k = 8 * V;
  const std::uint64_t* n = ctx.n52.data();
  const std::uint64_t n0 = n[0];
  const std::uint64_t n0inv = ctx.n0inv52;

  __m512i acc[V];
  __m512i bv[V];
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v) {
    acc[v] = _mm512_setzero_si512();
    bv[v] = _mm512_loadu_si512(b + 8 * v);
  }
  const __m512i zero = _mm512_setzero_si512();

  std::uint64_t carry = 0;  // pending carry into lane 0
  for (std::size_t i = 0; i < k; ++i) {
    const __m512i ai = _mm512_set1_epi64(static_cast<long long>(a[i]));
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v)
      acc[v] = _mm512_madd52lo_epu64(acc[v], ai, bv[v]);

    const std::uint64_t x = lane0(acc[0]) + carry;
    const std::uint64_t m = (x * n0inv) & kMask52;
    const __m512i mv = _mm512_set1_epi64(static_cast<long long>(m));
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v)
      acc[v] = _mm512_madd52lo_epu64(acc[v], mv, _mm512_loadu_si512(n + 8 * v));
    // x + lo52(m·n0) ≡ 0 (mod 2^52): the dropped lane is exactly a carry.
    carry = (x + ((m * n0) & kMask52)) >> 52;

#pragma GCC unroll 16
    for (std::size_t v = 0; v + 1 < V; ++v)
      acc[v] = shift_lane(acc[v + 1], acc[v]);
    acc[V - 1] = shift_lane(zero, acc[V - 1]);

#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      acc[v] = _mm512_madd52hi_epu64(acc[v], ai, bv[v]);
      acc[v] = _mm512_madd52hi_epu64(acc[v], mv, _mm512_loadu_si512(n + 8 * v));
    }
  }

  // a and b are fully consumed, so out may alias either.
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v) _mm512_storeu_si512(out + 8 * v, acc[v]);
  out[0] += carry;
  normalize52(out, k);
}

// Memory-resident scan for vector counts without a register instantiation
// (wider than the register file holds, e.g. Damgård–Jurik's n³): the same
// pass with the accumulator in `acc` and the lane-0 carry added back in
// place.
PISA_IFMA_TARGET void amm_mem(const Ctx& ctx, const std::uint64_t* a,
                              const std::uint64_t* b, std::uint64_t* out,
                              std::uint64_t* acc) {
  const std::size_t k = ctx.k52;
  const std::size_t v_count = k / 8;
  const std::uint64_t* n = ctx.n52.data();

  std::memset(acc, 0, (k + 8) * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < k; ++i) {
    const __m512i ai = _mm512_set1_epi64(static_cast<long long>(a[i]));
    for (std::size_t v = 0; v < v_count; ++v) {
      __m512i t = _mm512_loadu_si512(acc + 8 * v);
      t = _mm512_madd52lo_epu64(t, ai, _mm512_loadu_si512(b + 8 * v));
      _mm512_storeu_si512(acc + 8 * v, t);
    }
    const std::uint64_t m = (acc[0] * ctx.n0inv52) & kMask52;
    const __m512i mv = _mm512_set1_epi64(static_cast<long long>(m));
    for (std::size_t v = 0; v < v_count; ++v) {
      __m512i t = _mm512_loadu_si512(acc + 8 * v);
      t = _mm512_madd52lo_epu64(t, mv, _mm512_loadu_si512(n + 8 * v));
      _mm512_storeu_si512(acc + 8 * v, t);
    }
    // acc[0] ≡ 0 (mod 2^52); its high part carries into position 1, which
    // becomes position 0 after the shift.
    const std::uint64_t c0 = acc[0] >> 52;
    for (std::size_t v = 0; v < v_count; ++v) {
      const __m512i lo = _mm512_loadu_si512(acc + 8 * v);
      const __m512i hi = _mm512_loadu_si512(acc + 8 * v + 8);
      __m512i t = shift_lane(hi, lo);
      t = _mm512_madd52hi_epu64(t, ai, _mm512_loadu_si512(b + 8 * v));
      t = _mm512_madd52hi_epu64(t, mv, _mm512_loadu_si512(n + 8 * v));
      _mm512_storeu_si512(acc + 8 * v, t);
    }
    acc[0] += c0;
  }
  std::memcpy(out, acc, k * sizeof(std::uint64_t));
  normalize52(out, k);
}

}  // namespace

void amm(const Ctx& ctx, const std::uint64_t* a, const std::uint64_t* b,
         std::uint64_t* out, std::uint64_t* acc) {
  assert(ctx.k52 % 8 == 0 && ctx.k52 > 0);
  static_assert(kMaxRegisterVectors == 10, "dispatch below lists 1..10");
  switch (ctx.k52 / 8) {
    case 1: return amm_regs<1>(ctx, a, b, out);
    case 2: return amm_regs<2>(ctx, a, b, out);
    case 3: return amm_regs<3>(ctx, a, b, out);
    case 4: return amm_regs<4>(ctx, a, b, out);
    case 5: return amm_regs<5>(ctx, a, b, out);
    case 6: return amm_regs<6>(ctx, a, b, out);
    case 7: return amm_regs<7>(ctx, a, b, out);
    case 8: return amm_regs<8>(ctx, a, b, out);
    case 9: return amm_regs<9>(ctx, a, b, out);
    case 10: return amm_regs<10>(ctx, a, b, out);
    default: return amm_mem(ctx, a, b, out, acc);
  }
}

#else  // !PISA_IFMA_X86

bool available() { return false; }

void amm(const Ctx&, const std::uint64_t*, const std::uint64_t*,
         std::uint64_t*, std::uint64_t*) {
  assert(false && "ifma::amm called on a non-x86-64 host");
}

#endif

}  // namespace pisa::bn::ifma
