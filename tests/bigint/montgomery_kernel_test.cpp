// The allocation-free Montgomery kernel layer: dedicated squaring vs
// multiplication, fused multi-exponentiation (pow_mul / pow2 / pow2_mul),
// Montgomery-domain product folds, the operand-validation contract at the
// public boundary, FixedBaseTable window extremes, scalar-vs-IFMA backend
// bit-identity at every IFMA kernel width, the radix-52 kernel against
// exact Montgomery reduction, cache-line alignment of the kernel buffers,
// and the steady-state zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "bigint/modular.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/montgomery_ifma.hpp"
#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"

// --- global allocator hook ---------------------------------------------
// Counts every heap allocation in the test binary. The steady-state tests
// snapshot the counter around kernel calls; everything else ignores it.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

// All replacements stay out of line: once GCC inlines one, it pairs the
// malloc/free inside with the operator new/delete at the call site and
// flags them as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pisa::bn {
namespace {

BigUint ref_mul(const BigUint& a, const BigUint& b, const BigUint& m) {
  return a * b % m;
}

BigUint ref_pow(const BigUint& base, const BigUint& e, const BigUint& m) {
  BigUint acc{1};
  acc = acc % m;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = ref_mul(acc, acc, m);
    if (e.bit(i)) acc = ref_mul(acc, base, m);
  }
  return acc;
}

BigUint random_odd_modulus(RandomSource& rng, std::size_t bits) {
  BigUint m = random_bits(rng, bits);
  m.set_bit(bits - 1);
  m.set_bit(0);
  return m;
}

TEST(MontgomeryKernel, SquaringMatchesMultiplicationAcrossLimbCounts) {
  SplitMix64Random rng{101};
  for (std::size_t limbs = 1; limbs <= 5; ++limbs) {
    // Bit lengths straddling each limb boundary, not just multiples of 64.
    for (std::size_t bits : {limbs * 64 - 7, limbs * 64 - 1, limbs * 64}) {
      BigUint m = random_odd_modulus(rng, bits);
      Montgomery mont{m};
      for (int trial = 0; trial < 25; ++trial) {
        BigUint a = random_below(rng, m);
        EXPECT_EQ(mont.sqr(a), mont.mul(a, a)) << bits << " bits";
        EXPECT_EQ(mont.sqr(a), ref_mul(a, a, m)) << bits << " bits";
      }
      // Boundary operands.
      BigUint top = m - BigUint{1};
      EXPECT_EQ(mont.sqr(top), ref_mul(top, top, m));
      EXPECT_EQ(mont.sqr(BigUint{0}).to_u64(), 0u);
      EXPECT_EQ(mont.sqr(BigUint{1}).to_u64(), 1u);
    }
  }
}

TEST(MontgomeryKernel, RawSqrMatchesRawMul) {
  SplitMix64Random rng{103};
  MontgomeryWorkspace ws;
  for (std::size_t limbs = 1; limbs <= 5; ++limbs) {
    BigUint m = random_odd_modulus(rng, limbs * 64);
    Montgomery mont{m, Montgomery::Backend::kScalar};
    ASSERT_EQ(mont.limbs(), limbs);
    std::vector<std::uint64_t> a(limbs), s(limbs), p(limbs);
    for (int trial = 0; trial < 25; ++trial) {
      BigUint av = random_below(rng, m);
      std::fill(a.begin(), a.end(), 0);
      std::copy(av.limbs().begin(), av.limbs().end(), a.begin());
      mont.sqr_raw(a.data(), s.data(), ws);
      mont.mul_raw(a.data(), a.data(), p.data(), ws);
      EXPECT_EQ(s, p) << limbs << " limbs";
    }
  }
}

TEST(MontgomeryKernel, OutOfRangeOperandsThrowAtPublicBoundary) {
  BigUint m = BigUint::from_dec("1000003");
  Montgomery mont{m};
  const BigUint at = m;
  const BigUint above = m + BigUint{5};
  const BigUint ok{7};
  EXPECT_THROW((void)mont.mul(at, ok), std::out_of_range);
  EXPECT_THROW((void)mont.mul(ok, above), std::out_of_range);
  EXPECT_THROW((void)mont.sqr(at), std::out_of_range);
  EXPECT_THROW((void)mont.pow(above, ok), std::out_of_range);
  EXPECT_THROW((void)mont.pow_mul(ok, ok, at), std::out_of_range);
  EXPECT_THROW((void)mont.pow2(at, ok, ok, ok), std::out_of_range);
  EXPECT_THROW((void)mont.pow2_mul(ok, ok, above, ok, ok), std::out_of_range);
  const BigUint vals[] = {ok, at};
  EXPECT_THROW((void)mont.product(vals), std::out_of_range);
  // Exponents are unrestricted: only bases/factors are range-checked.
  EXPECT_EQ(mont.pow(ok, above), ref_pow(ok, above, m));
}

TEST(MontgomeryKernel, PowMulFusesExitMultiplication) {
  SplitMix64Random rng{107};
  for (std::size_t bits : {64u, 256u, 1024u}) {
    BigUint m = random_odd_modulus(rng, bits);
    Montgomery mont{m};
    for (int trial = 0; trial < 10; ++trial) {
      BigUint b = random_below(rng, m);
      BigUint e = random_bits(rng, bits / 2 + 1);
      BigUint f = random_below(rng, m);
      EXPECT_EQ(mont.pow_mul(b, e, f), ref_mul(ref_pow(b, e, m), f, m)) << bits;
    }
    // exp == 0 returns the factor unchanged.
    BigUint f = random_below(rng, m);
    EXPECT_EQ(mont.pow_mul(BigUint{5} % m, BigUint{0}, f), f);
  }
}

TEST(MontgomeryKernel, Pow2MatchesTwoIndependentExponentiations) {
  SplitMix64Random rng{109};
  for (std::size_t bits : {64u, 192u, 1024u}) {
    BigUint m = random_odd_modulus(rng, bits);
    Montgomery mont{m};
    for (int trial = 0; trial < 10; ++trial) {
      BigUint a = random_below(rng, m);
      BigUint b = random_below(rng, m);
      // Deliberately unbalanced exponent widths: the shared ladder must
      // handle one exponent running out of bits early.
      BigUint x = random_bits(rng, bits);
      BigUint y = random_bits(rng, bits / 3 + 1);
      BigUint expect = ref_mul(ref_pow(a, x, m), ref_pow(b, y, m), m);
      EXPECT_EQ(mont.pow2(a, x, b, y), expect) << bits;
      BigUint f = random_below(rng, m);
      EXPECT_EQ(mont.pow2_mul(a, x, b, y, f), ref_mul(expect, f, m)) << bits;
    }
    // Degenerate exponents.
    BigUint a = random_below(rng, m);
    BigUint b = random_below(rng, m);
    BigUint x = random_bits(rng, 80);
    EXPECT_EQ(mont.pow2(a, x, b, BigUint{0}), ref_pow(a, x, m));
    EXPECT_EQ(mont.pow2(a, BigUint{0}, b, x), ref_pow(b, x, m));
    EXPECT_EQ(mont.pow2(a, BigUint{0}, b, BigUint{0}).to_u64(), 1u);
  }
}

TEST(MontgomeryKernel, ProductFoldsManyFactors) {
  SplitMix64Random rng{113};
  for (std::size_t bits : {64u, 320u}) {
    BigUint m = random_odd_modulus(rng, bits);
    Montgomery mont{m};
    // Counts straddling powers of two exercise every R-power fixup shape.
    for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u}) {
      std::vector<BigUint> vals(count);
      BigUint expect{1};
      expect = expect % m;
      for (auto& v : vals) {
        v = random_below(rng, m);
        expect = ref_mul(expect, v, m);
      }
      EXPECT_EQ(mont.product(vals), expect) << bits << " bits x" << count;
    }
    EXPECT_EQ(mont.product({}).to_u64(), 1u);
  }
}

TEST(FixedBaseTableEdge, ExponentExactlyAtTableWidth) {
  SplitMix64Random rng{127};
  BigUint m = random_odd_modulus(rng, 256);
  Montgomery mont{m};
  BigUint base = random_below(rng, m);
  for (std::size_t max_bits : {5u, 64u, 100u}) {
    FixedBaseTable table{mont, base, max_bits};
    // Top bit set: the exponent occupies every window the table has.
    BigUint e = random_bits(rng, max_bits);
    e.set_bit(max_bits - 1);
    EXPECT_EQ(table.pow(e), mont.pow(base, e)) << max_bits;
    // All-ones exponent: every window takes its maximal digit.
    BigUint ones = (BigUint{1} << max_bits) - BigUint{1};
    EXPECT_EQ(table.pow(ones), mont.pow(base, ones)) << max_bits;
    // One past the width must throw.
    EXPECT_THROW((void)table.pow(BigUint{1} << max_bits), std::out_of_range);
  }
}

TEST(FixedBaseTableEdge, WindowWidthExtremes) {
  SplitMix64Random rng{131};
  BigUint m = random_odd_modulus(rng, 192);
  Montgomery mont{m};
  BigUint base = random_below(rng, m);
  for (std::size_t window_bits : {1u, 2u, 7u, 8u}) {
    FixedBaseTable table{mont, base, 96, window_bits};
    for (int trial = 0; trial < 8; ++trial) {
      BigUint e = random_bits(rng, 96);
      EXPECT_EQ(table.pow(e), mont.pow(base, e)) << "w=" << window_bits;
    }
  }
  EXPECT_THROW((FixedBaseTable{mont, base, 96, 0}), std::invalid_argument);
  EXPECT_THROW((FixedBaseTable{mont, base, 96, 9}), std::invalid_argument);
  EXPECT_THROW((FixedBaseTable{mont, base, 0, 4}), std::invalid_argument);
}

TEST(FixedBaseTableEdge, ZeroExponentAndZeroBase) {
  SplitMix64Random rng{137};
  BigUint m = random_odd_modulus(rng, 128);
  Montgomery mont{m};
  BigUint base = random_below(rng, m);
  FixedBaseTable table{mont, base, 64};
  EXPECT_EQ(table.pow(BigUint{0}).to_u64(), 1u);
  FixedBaseTable zero_table{mont, BigUint{0}, 64};
  EXPECT_EQ(zero_table.pow(BigUint{0}).to_u64(), 1u);
  EXPECT_EQ(zero_table.pow(BigUint{17}).to_u64(), 0u);
}

// Modulus widths that land on each IFMA kernel: 416·V - 10 bits gives
// k52 = 8·V for V = 1 .. kMaxRegisterVectors (all register-resident), the
// protocol's own 1024/2048/4096 bits, and 6144 bits (Damgård–Jurik's n³ at
// 2048-bit keys), which is wider than any register instantiation.
std::vector<std::size_t> ifma_test_widths() {
  std::vector<std::size_t> bits;
  for (std::size_t v = 1; v <= ifma::kMaxRegisterVectors; ++v)
    bits.push_back(416 * v - 10);
  for (std::size_t b : {1024u, 2048u, 4096u, 6144u}) bits.push_back(b);
  return bits;
}

std::unique_ptr<Montgomery> make_ifma(const BigUint& m) {
  try {
    return std::make_unique<Montgomery>(m, Montgomery::Backend::kIfma);
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
}

std::vector<std::uint64_t> raw_limbs(const BigUint& v, std::size_t k) {
  std::vector<std::uint64_t> out(k, 0);
  std::copy(v.limbs().begin(), v.limbs().end(), out.begin());
  return out;
}

TEST(MontgomeryBackend, IfmaAndScalarAreBitIdentical) {
  SplitMix64Random rng{139};
  for (std::size_t bits : ifma_test_widths()) {
    SCOPED_TRACE(bits);
    const BigUint m = random_odd_modulus(rng, bits);
    auto ifma = make_ifma(m);
    if (!ifma) GTEST_SKIP() << "AVX-512 IFMA not available on this host";
    Montgomery scalar{m, Montgomery::Backend::kScalar};
    ASSERT_TRUE(ifma->uses_ifma());
    ASSERT_FALSE(scalar.uses_ifma());
    if (bits % 416 == 406) {
      EXPECT_EQ(ifma->ifma_context()->k52, (bits + 10) / 52);
    }

    // Random operands: a fresh base, second base and factor per trial.
    for (int trial = 0; trial < 10; ++trial) {
      const BigUint a = random_below(rng, m);
      const BigUint b = random_below(rng, m);
      const BigUint x = random_bits(rng, 512);
      const BigUint y = random_bits(rng, 200);
      EXPECT_EQ(ifma->mul(a, b), scalar.mul(a, b));
      EXPECT_EQ(ifma->sqr(a), scalar.sqr(a));
      EXPECT_EQ(ifma->pow(a, x), scalar.pow(a, x));
      EXPECT_EQ(ifma->pow_mul(a, x, b), scalar.pow_mul(a, x, b));
      EXPECT_EQ(ifma->pow2(a, x, b, y), scalar.pow2(a, x, b, y));
      EXPECT_EQ(ifma->pow2_mul(a, x, b, y, a), scalar.pow2_mul(a, x, b, y, a));
    }
    std::vector<BigUint> vals(9);
    for (auto& v : vals) v = random_below(rng, m);
    EXPECT_EQ(ifma->product(vals), scalar.product(vals));

    // Edge operands 0, 1 and n-1, each against the others and a random one.
    const BigUint top = m - BigUint{1};
    const BigUint r = random_below(rng, m);
    const std::vector<BigUint> edges{BigUint{0}, BigUint{1}, top};
    const BigUint x = random_bits(rng, 256);
    const BigUint y = random_bits(rng, 200);
    for (const BigUint& a : edges) {
      for (const BigUint& b : {edges[0], edges[1], edges[2], r}) {
        EXPECT_EQ(ifma->mul(a, b), scalar.mul(a, b));
        EXPECT_EQ(ifma->mul(b, a), scalar.mul(b, a));
        EXPECT_EQ(ifma->pow_mul(a, x, b), scalar.pow_mul(a, x, b));
        EXPECT_EQ(ifma->pow_mul(b, x, a), scalar.pow_mul(b, x, a));
        EXPECT_EQ(ifma->pow2(a, x, b, y), scalar.pow2(a, x, b, y));
        EXPECT_EQ(ifma->pow2(b, x, a, y), scalar.pow2(b, x, a, y));
        EXPECT_EQ(ifma->pow2_mul(a, x, b, y, r),
                  scalar.pow2_mul(a, x, b, y, r));
        EXPECT_EQ(ifma->pow2_mul(r, x, b, y, a),
                  scalar.pow2_mul(r, x, b, y, a));
      }
      EXPECT_EQ(ifma->sqr(a), scalar.sqr(a));
      EXPECT_EQ(ifma->pow(a, x), scalar.pow(a, x));
    }
    const std::vector<BigUint> edge_product{BigUint{1}, top, r, top, vals[0]};
    EXPECT_EQ(ifma->product(edge_product), scalar.product(edge_product));
    EXPECT_EQ(ifma->product(edges), scalar.product(edges));

    // Raw API with the output aliasing each input.
    const std::size_t k = ifma->limbs();
    MontgomeryWorkspace ws;
    const auto ra = raw_limbs(vals[1], k);
    const auto rb = raw_limbs(vals[2], k);
    std::vector<std::uint64_t> want(k), got;
    scalar.mul_raw(ra.data(), rb.data(), want.data(), ws);
    got = ra;
    ifma->mul_raw(got.data(), rb.data(), got.data(), ws);
    EXPECT_EQ(got, want) << "out aliases a";
    got = rb;
    ifma->mul_raw(ra.data(), got.data(), got.data(), ws);
    EXPECT_EQ(got, want) << "out aliases b";
    scalar.sqr_raw(ra.data(), want.data(), ws);
    got = ra;
    ifma->sqr_raw(got.data(), got.data(), ws);
    EXPECT_EQ(got, want) << "in-place square";
    scalar.pow_raw(ra.data(), x.limbs(), want.data(), ws);
    got = ra;
    ifma->pow_raw(got.data(), x.limbs(), got.data(), ws);
    EXPECT_EQ(got, want) << "in-place pow";

    const BigUint base = random_below(rng, m);
    FixedBaseTable ti{*ifma, base, 256};
    FixedBaseTable ts{scalar, base, 256};
    for (int trial = 0; trial < 5; ++trial) {
      const BigUint e = random_bits(rng, 256);
      EXPECT_EQ(ti.pow(e), ts.pow(e));
    }
  }
}

// ifma::amm on almost-Montgomery operands in [0, 2n): the output must be
// exactly (a·b + q·n) / R52 with q = -a·b·n^{-1} mod R52 (the unique
// Montgomery quotient), so the kernel is pinned down bit for bit, not just
// mod n. Covers every register width, the memory-resident fallback, and
// `out` aliasing a, b or both.
TEST(IfmaKernel, AmmMatchesExactMontgomeryReduction) {
  constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
  SplitMix64Random rng{163};
  for (std::size_t bits : ifma_test_widths()) {
    SCOPED_TRACE(bits);
    const BigUint n = random_odd_modulus(rng, bits);
    auto mont = make_ifma(n);
    if (!mont) GTEST_SKIP() << "AVX-512 IFMA not available on this host";
    const ifma::Ctx& ctx = *mont->ifma_context();
    const std::size_t k52 = ctx.k52;
    const BigUint r = BigUint{1} << (52 * k52);
    const BigUint neg_ninv = r - *mod_inverse(n, r);

    auto pack = [&](const BigUint& v) {
      AlignedLimbs out(k52);
      for (std::size_t i = 0; i < k52; ++i)
        out[i] = (v >> (52 * i)).low_u64() & kMask52;
      return out;
    };
    auto unpack = [&](const AlignedLimbs& v) {
      BigUint out;
      for (std::size_t i = k52; i-- > 0;) {
        EXPECT_LE(v[i], kMask52) << "limb " << i << " not normalized";
        out = (out << 52) + BigUint{v[i]};
      }
      return out;
    };
    auto expected = [&](const BigUint& a, const BigUint& b) {
      const BigUint ab = a * b;
      const BigUint q = (ab % r) * neg_ninv % r;
      return (ab + q * n) >> (52 * k52);
    };

    const BigUint two_n = n + n;
    std::vector<BigUint> operands{BigUint{0},        BigUint{1},
                                  n - BigUint{1},    n,
                                  n + BigUint{1},    two_n - BigUint{1}};
    for (int i = 0; i < 4; ++i) operands.push_back(random_below(rng, two_n));
    AlignedLimbs acc(k52 + 8);
    for (const BigUint& a : operands) {
      for (const BigUint& b : operands) {
        const BigUint want = expected(a, b);
        ASSERT_LT(want, two_n);
        const AlignedLimbs a52 = pack(a), b52 = pack(b);
        AlignedLimbs out(k52);
        ifma::amm(ctx, a52.data(), b52.data(), out.data(), acc.data());
        EXPECT_EQ(unpack(out), want);
        AlignedLimbs alias_a = a52;
        ifma::amm(ctx, alias_a.data(), b52.data(), alias_a.data(), acc.data());
        EXPECT_EQ(unpack(alias_a), want) << "out aliases a";
        AlignedLimbs alias_b = b52;
        ifma::amm(ctx, a52.data(), alias_b.data(), alias_b.data(), acc.data());
        EXPECT_EQ(unpack(alias_b), want) << "out aliases b";
      }
      AlignedLimbs sq = pack(a);
      ifma::amm(ctx, sq.data(), sq.data(), sq.data(), acc.data());
      EXPECT_EQ(unpack(sq), expected(a, a)) << "out aliases a and b";
    }
  }
}

TEST(MontgomeryAllocation, KernelBuffersAreCacheLineAligned) {
  auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
  };
  SplitMix64Random rng{167};
  for (auto backend :
       {Montgomery::Backend::kScalar, Montgomery::Backend::kAuto}) {
    for (std::size_t bits : {1024u, 2048u, 4096u}) {
      const BigUint m = random_odd_modulus(rng, bits);
      Montgomery mont{m, backend};
      MontgomeryWorkspace ws;
      const BigUint a = random_below(rng, m);
      const BigUint x = random_bits(rng, 300);
      (void)mont.pow2(a, x, a, x, ws);  // touches every slot
      (void)mont.mul(a, a, ws);
      for (std::size_t s = 0; s < MontgomeryWorkspace::slot_count(); ++s) {
        ASSERT_NE(ws.slot_data(s), nullptr) << "slot " << s;
        EXPECT_TRUE(aligned(ws.slot_data(s)))
            << "slot " << s << " at " << bits << " bits";
      }
      if (const ifma::Ctx* ctx = mont.ifma_context()) {
        EXPECT_TRUE(aligned(ctx->n52.data()));
        EXPECT_TRUE(aligned(ctx->r2_52.data()));
        EXPECT_TRUE(aligned(ctx->one52.data()));
      }
    }
  }
}

TEST(MontgomeryAllocation, RawKernelsAreAllocationFreeInSteadyState) {
  SplitMix64Random rng{149};
  for (auto backend :
       {Montgomery::Backend::kScalar, Montgomery::Backend::kAuto}) {
    BigUint m = random_odd_modulus(rng, 2048);
    Montgomery mont{m, backend};
    MontgomeryWorkspace ws;
    const std::size_t k = mont.limbs();
    std::vector<std::uint64_t> a(k, 0), b(k, 0), out(k, 0);
    BigUint av = random_below(rng, m);
    BigUint bv = random_below(rng, m);
    std::copy(av.limbs().begin(), av.limbs().end(), a.begin());
    std::copy(bv.limbs().begin(), bv.limbs().end(), b.begin());
    BigUint ev = random_bits(rng, 2048);
    std::vector<std::uint64_t> e(ev.limbs().begin(), ev.limbs().end());

    // Warm-up sizes every workspace slot.
    mont.mul_raw(a.data(), b.data(), out.data(), ws);
    mont.sqr_raw(a.data(), out.data(), ws);
    mont.pow_raw(a.data(), e, out.data(), ws);

    const std::uint64_t before = g_alloc_count.load();
    for (int i = 0; i < 3; ++i) {
      mont.mul_raw(a.data(), b.data(), out.data(), ws);
      mont.sqr_raw(a.data(), out.data(), ws);
      mont.pow_raw(a.data(), e, out.data(), ws);
    }
    EXPECT_EQ(g_alloc_count.load(), before)
        << "raw kernels allocated on backend "
        << (mont.uses_ifma() ? "ifma" : "scalar");
  }
}

TEST(MontgomeryAllocation, BigUintPowAllocatesOnlyTheResult) {
  SplitMix64Random rng{151};
  BigUint m = random_odd_modulus(rng, 1024);
  Montgomery mont{m};
  MontgomeryWorkspace ws;
  BigUint base = random_below(rng, m);
  BigUint e = random_bits(rng, 1024);
  (void)mont.pow(base, e, ws);  // warm-up
  const std::uint64_t before = g_alloc_count.load();
  BigUint r = mont.pow(base, e, ws);
  // One allocation for the result's limb vector; nothing from the kernels.
  EXPECT_LE(g_alloc_count.load() - before, 2u);
  EXPECT_EQ(r, ref_pow(base, e, m));
}

}  // namespace
}  // namespace pisa::bn
