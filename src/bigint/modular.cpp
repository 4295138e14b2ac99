#include "bigint/modular.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"

namespace pisa::bn {

namespace {

// ---- Bernstein–Yang safegcd on raw limbs -------------------------------
// "Fast constant-time gcd computation and modular inversion" (2019), in the
// variable-time form: divsteps run in batches of 62 on the low limbs only,
// each batch yielding a 2x2 transition matrix that is then applied to the
// full-width values. Operands live as signed 62-bit limbs (every limb in
// [0, 2^62) except the signed top one) in caller-provided scratch, so the
// kernel itself never allocates and never divides. gcd and inverse results
// are unique, so this replaces Euclid / binary ext-gcd bit for bit.

using u64 = std::uint64_t;
using i64 = std::int64_t;
using i128 = __int128;

constexpr u64 kMask62 = ~u64{0} >> 2;

// Transition matrix of one batch, scaled by 2^62:
// [u v; q r]·[f; g] = 2^62·[f'; g'].
struct Trans {
  i64 u, v, q, r;
};

// 62 divsteps on the low words of (f, g), f odd. Runs of zero bits in g are
// consumed at once and each odd step cancels up to 4-6 low bits of g (the
// batching of libsecp256k1's modinv64_var). eta = -delta.
i64 divsteps_62(i64 eta, u64 f0, u64 g0, Trans& t) {
  u64 u = 1, v = 0, q = 0, r = 1;
  u64 f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the zero count at the batch boundary.
    const int zeros = std::countr_zero(g | (~u64{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are both odd here. delta > 0 swaps to (g, -f).
    const bool swap = eta < 0;
    if (swap) {
      eta = -eta;
      u64 tmp = f;
      f = g;
      g = ~tmp + 1;
      tmp = u;
      u = q;
      q = ~tmp + 1;
      tmp = v;
      v = r;
      r = ~tmp + 1;
    }
    // Add the multiple w of f that clears the low min(limit, 6) bits of g
    // after a swap (eta is large there), min(limit, 4) otherwise.
    const int limit = static_cast<int>(std::min<i64>(eta + 1, i));
    const u64 mask = (~u64{0} >> (64 - limit)) & (swap ? 63 : 15);
    const u64 f_inv16 = f + (((f + 1) & 4) << 1);  // f^{-1} mod 16
    const u64 w = swap ? (f * g * (f * f - 2)) & mask
                       : ((~f_inv16 + 1) * g) & mask;
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = Trans{static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
            static_cast<i64>(r)};
  return eta;
}

// (f, g) <- t·(f, g) / 2^62 over the low `len` limbs (exact division).
void update_fg(std::size_t len, i64* f, i64* g, const Trans& t) {
  i128 cf = static_cast<i128>(t.u) * f[0] + static_cast<i128>(t.v) * g[0];
  i128 cg = static_cast<i128>(t.q) * f[0] + static_cast<i128>(t.r) * g[0];
  cf >>= 62;
  cg >>= 62;
  for (std::size_t i = 1; i < len; ++i) {
    cf += static_cast<i128>(t.u) * f[i] + static_cast<i128>(t.v) * g[i];
    cg += static_cast<i128>(t.q) * f[i] + static_cast<i128>(t.r) * g[i];
    f[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kMask62);
    g[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f[len - 1] = static_cast<i64>(cf);
  g[len - 1] = static_cast<i64>(cg);
}

// (d, e) <- t·(d, e) / 2^62 (mod M) over `len` limbs, keeping d and e in
// (-2M, M): the multiple of M added makes the low 62 bits vanish, and the
// sign corrections keep the result from drifting below -2M.
void update_de(std::size_t len, i64* d, i64* e, const Trans& t, const i64* mod,
               u64 mod_inv62) {
  const i64 sd = d[len - 1] >> 63;
  const i64 se = e[len - 1] >> 63;
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d[0] + static_cast<i128>(t.v) * e[0];
  i128 ce = static_cast<i128>(t.q) * d[0] + static_cast<i128>(t.r) * e[0];
  md -= static_cast<i64>(
      (mod_inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kMask62);
  me -= static_cast<i64>(
      (mod_inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kMask62);
  cd += static_cast<i128>(mod[0]) * md;
  ce += static_cast<i128>(mod[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < len; ++i) {
    cd += static_cast<i128>(t.u) * d[i] + static_cast<i128>(t.v) * e[i] +
          static_cast<i128>(mod[i]) * md;
    ce += static_cast<i128>(t.q) * d[i] + static_cast<i128>(t.r) * e[i] +
          static_cast<i128>(mod[i]) * me;
    d[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kMask62);
    e[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d[len - 1] = static_cast<i64>(cd);
  e[len - 1] = static_cast<i64>(ce);
}

// Runs divstep batches until g = 0, leaving f = ±gcd(f, g); f must be odd.
// With `d` non-null, every batch is mirrored onto (d, e) mod `mod`, which
// keeps f ≡ d·x and g ≡ e·x (mod M) for the x the caller started from.
// Returns the limb count f has shrunk to.
std::size_t safegcd(std::size_t len, i64* f, i64* g, i64* d, i64* e,
                    const i64* mod, u64 mod_inv62) {
  const std::size_t de_len = len;
  i64 eta = -1;  // delta = 1
  for (;;) {
    Trans t{};
    eta = divsteps_62(eta, static_cast<u64>(f[0]), static_cast<u64>(g[0]), t);
    if (d != nullptr) update_de(de_len, d, e, t, mod, mod_inv62);
    update_fg(len, f, g, t);
    if (g[0] == 0) {
      i64 rest = 0;
      for (std::size_t j = 1; j < len; ++j) rest |= g[j];
      if (rest == 0) return len;
    }
    // Drop the top limb once it is pure sign extension in both f and g,
    // folding the sign into the limb below.
    const i64 fn = f[len - 1];
    const i64 gn = g[len - 1];
    if (len > 1 && ((fn ^ (fn >> 63)) | (gn ^ (gn >> 63))) == 0) {
      f[len - 2] = static_cast<i64>(static_cast<u64>(f[len - 2]) |
                                    (static_cast<u64>(fn) << 62));
      g[len - 2] = static_cast<i64>(static_cast<u64>(g[len - 2]) |
                                    (static_cast<u64>(gn) << 62));
      --len;
    }
  }
}

// Signed-62 limbs for a value of up to `bits` bits, with headroom for the
// (-2M, M) range of d and e.
std::size_t s62_len(std::size_t bits) { return bits / 62 + 2; }

// dst[0, len) = signed-62 limbs of (src >> shift), src non-negative.
void to_s62(std::span<const u64> src, std::size_t shift, i64* dst,
            std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t pos = shift + 62 * i;
    const std::size_t word = pos >> 6, off = pos & 63;
    u64 v = word < src.size() ? src[word] >> off : 0;
    if (off > 2 && word + 1 < src.size()) v |= src[word + 1] << (64 - off);
    dst[i] = static_cast<i64>(v & kMask62);
  }
}

// dst[0, k) = the signed-62 value src[0, len) in two's complement, truncated
// or sign-extended to k words.
void from_s62(const i64* src, std::size_t len, u64* dst, std::size_t k) {
  i128 acc = 0;
  unsigned have = 0;  // bits of acc not yet written
  std::size_t j = 0;
  for (std::size_t i = 0; i < len; ++i) {
    acc += static_cast<i128>(src[i]) << have;
    have += 62;
    while (have >= 64 && j < k) {
      dst[j++] = static_cast<u64>(acc);
      acc >>= 64;
      have -= 64;
    }
  }
  while (j < k) {
    dst[j++] = static_cast<u64>(acc);
    acc >>= 64;
  }
}

bool is_neg(const u64* x, std::size_t k) { return (x[k - 1] >> 63) != 0; }

void negate(u64* x, std::size_t k) {
  u64 carry = 1;
  for (std::size_t i = 0; i < k; ++i) {
    const u64 s = ~x[i] + carry;
    carry = carry && s == 0;
    x[i] = s;
  }
}

// x += sign·m over k words, m zero-extended from its own limbs.
void add_signed(u64* x, std::size_t k, std::span<const u64> m, bool subtract) {
  unsigned char carry = subtract ? 1 : 0;
  for (std::size_t i = 0; i < k; ++i) {
    u64 y = i < m.size() ? m[i] : 0;
    if (subtract) y = ~y;
    const u64 s1 = x[i] + y;
    const u64 s2 = s1 + carry;
    carry = static_cast<unsigned char>((s1 < y) | (s2 < s1));
    x[i] = s2;
  }
}

// x >= m, x non-negative over k >= |m| words.
bool geq(const u64* x, std::size_t k, std::span<const u64> m) {
  for (std::size_t i = k; i-- > 0;) {
    const u64 y = i < m.size() ? m[i] : 0;
    if (x[i] != y) return x[i] > y;
  }
  return true;
}

std::size_t trailing_zeros(const BigUint& x) {
  const auto limbs = x.limbs();
  std::size_t i = 0;
  while (limbs[i] == 0) ++i;
  return 64 * i + static_cast<std::size_t>(std::countr_zero(limbs[i]));
}

// Kernel scratch: on the stack for moduli up to 8192 bits, which covers
// every modulus the protocol uses; one heap block beyond that.
class Scratch {
 public:
  explicit Scratch(std::size_t words) {
    if (words > kStackWords) heap_.resize(words);
  }
  i64* data() { return heap_.empty() ? stack_.data() : heap_.data(); }

 private:
  static constexpr std::size_t kStackWords = 5 * (8192 / 62 + 2) + 129;
  std::array<i64, kStackWords> stack_;  // every word is written before use
  std::vector<i64> heap_;
};

// a^{-1} mod m for odd m >= 3 and 0 < a < m; nullopt when gcd(a, m) != 1.
std::optional<BigUint> mod_inverse_odd(const BigUint& a, const BigUint& m) {
  const std::size_t len = s62_len(m.bit_length());
  const std::size_t k = m.limb_count() + 1;  // two's-complement result width
  Scratch scratch{5 * len + k};
  i64* f = scratch.data();
  i64* g = f + len;
  i64* d = g + len;
  i64* e = d + len;
  i64* mod = e + len;
  u64* x = reinterpret_cast<u64*>(mod + len);

  to_s62(m.limbs(), 0, f, len);
  to_s62(a.limbs(), 0, g, len);
  std::copy(f, f + len, mod);
  std::fill(d, d + len, i64{0});
  std::fill(e, e + len, i64{0});
  e[0] = 1;
  const u64 m0 = m.limbs()[0];
  u64 inv = m0;  // m0·m0 ≡ 1 (mod 8): 3 bits, doubled per Newton step
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;

  const std::size_t flen = safegcd(len, f, g, d, e, mod, inv & kMask62);

  // f = ±gcd(a, m); only ±1 leaves an inverse, namely ±d.
  from_s62(f, flen, x, k);
  const bool f_neg = is_neg(x, k);
  if (f_neg) negate(x, k);
  if (x[0] != 1 || std::any_of(x + 1, x + k, [](u64 w) { return w != 0; }))
    return std::nullopt;

  from_s62(d, len, x, k);
  if (f_neg) negate(x, k);  // now in (-M, 2M)
  while (is_neg(x, k)) add_signed(x, k, m.limbs(), false);
  while (geq(x, k, m.limbs())) add_signed(x, k, m.limbs(), true);
  return BigUint::from_limbs({x, x + k});
}

}  // namespace

BigUint gcd(const BigUint& a, const BigUint& b) {
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  // gcd(a, b) = 2^s · gcd(a / 2^za, b / 2^zb) with both quotients odd.
  const std::size_t za = trailing_zeros(a), zb = trailing_zeros(b);
  const std::size_t len =
      s62_len(std::max(a.bit_length() - za, b.bit_length() - zb));
  Scratch scratch{3 * len + 1};  // f, g, then the result words
  i64* f = scratch.data();
  i64* g = f + len;
  to_s62(a.limbs(), za, f, len);
  to_s62(b.limbs(), zb, g, len);
  const std::size_t flen = safegcd(len, f, g, nullptr, nullptr, nullptr, 0);

  const std::size_t k = flen + 1;  // room for f's sign bit
  u64* x = reinterpret_cast<u64*>(g + len);
  from_s62(f, flen, x, k);
  if (is_neg(x, k)) negate(x, k);
  return BigUint::from_limbs({x, x + k}) << std::min(za, zb);
}

BigUint lcm(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return {};
  return (a / gcd(a, b)) * b;
}

std::optional<BigUint> mod_inverse(const BigUint& a, const BigUint& m) {
  if (m < BigUint{2}) throw std::invalid_argument("mod_inverse: modulus < 2");
  if (m.is_odd()) {
    if (a >= m) return mod_inverse(a % m, m);
    if (a.is_zero()) return std::nullopt;
    return mod_inverse_odd(a, m);
  }
  // Even modulus: extended Euclid over signed integers.
  BigInt r0{m}, r1{a % m};
  BigInt t0{0}, t1{1};
  while (!r1.is_zero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt{1}) return std::nullopt;
  return t0.mod_euclid(m);
}

BigUint mod_mul(const BigUint& a, const BigUint& b, const BigUint& m) {
  return (a % m) * (b % m) % m;
}

BigUint mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  if (m < BigUint{2}) throw std::invalid_argument("mod_pow: modulus < 2");
  if (m.is_odd()) return Montgomery{m}.pow(base % m, exp);
  // Even modulus: plain left-to-right square and multiply.
  BigUint result{1};
  BigUint b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = mod_mul(result, result, m);
    if (exp.bit(i)) result = mod_mul(result, b, m);
  }
  return result;
}

}  // namespace pisa::bn
