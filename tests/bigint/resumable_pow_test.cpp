// bn::ResumablePow: the sliced Montgomery exponentiation must equal
// Montgomery::pow on the scalar and IFMA backends at every slice budget,
// keep each step() within its multiplication budget, and add no
// multiplications over an unsliced run.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"

namespace pisa::bn {
namespace {

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
// A first call builds the odd-powers table (≤ 17 multiplications); a
// window costs at most 6. A call may exceed a smaller budget by that much.
constexpr std::size_t kMinUnit = 17;

BigUint exponent_with_bits(RandomSource& rng, std::size_t bits) {
  BigUint e = random_bits(rng, bits);
  e.set_bit(bits - 1);
  return e;
}

std::vector<std::unique_ptr<Montgomery>> backends(const BigUint& m) {
  std::vector<std::unique_ptr<Montgomery>> out;
  out.push_back(std::make_unique<Montgomery>(m, Montgomery::Backend::kScalar));
  try {
    out.push_back(std::make_unique<Montgomery>(m, Montgomery::Backend::kIfma));
  } catch (const std::invalid_argument&) {
    // No AVX-512 IFMA on this host: the scalar backend is still checked.
  }
  return out;
}

TEST(ResumablePow, MatchesPowOnEveryBackendWithinBudget) {
  SplitMix64Random rng{0x5C1CE};
  BigUint m = random_bits(rng, 2048);
  m.set_bit(2047);
  m.set_bit(0);
  const std::vector<BigUint> bases{BigUint{0}, BigUint{1}, m - BigUint{1},
                                   random_below(rng, m)};
  for (const auto& mont : backends(m)) {
    SCOPED_TRACE(mont->uses_ifma() ? "ifma" : "scalar");
    for (std::size_t bits : {1u, 63u, 64u, 65u, 2048u, 4096u}) {
      const BigUint e = exponent_with_bits(rng, bits);
      for (std::size_t b = 0; b < bases.size(); ++b) {
        const BigUint want = mont->pow(bases[b], e);
        ResumablePow whole{*mont, bases[b], e};
        ASSERT_TRUE(whole.step(kUnbounded));
        EXPECT_EQ(whole.result(), want) << "bits=" << bits << " base#" << b;
        for (std::size_t budget : {1u, 17u, 96u}) {
          SCOPED_TRACE(testing::Message()
                       << "bits=" << bits << " base#" << b << " budget=" << budget);
          ResumablePow task{*mont, bases[b], e};
          std::size_t calls = 0;
          while (!task.done()) {
            const std::size_t before = task.mults();
            task.step(budget);
            ++calls;
            ASSERT_GT(task.mults(), before) << "every call makes progress";
            ASSERT_LE(task.mults() - before, std::max(budget, kMinUnit));
            ASSERT_LT(calls, 20000u);
          }
          EXPECT_EQ(task.result(), want);
          EXPECT_EQ(task.mults(), whole.mults())
              << "slicing adds no multiplications";
        }
      }
    }
  }
}

TEST(ResumablePow, ZeroExponentIsDoneAtConstruction) {
  const BigUint m{1000003};
  Montgomery mont{m};
  ResumablePow task{mont, BigUint{12345}, BigUint{0}};
  EXPECT_TRUE(task.done());
  EXPECT_EQ(task.mults(), 0u);
  EXPECT_EQ(task.result(), BigUint{1});
  EXPECT_EQ(task.result(), mont.pow(BigUint{12345}, BigUint{0}));
}

TEST(ResumablePow, RejectsOutOfRangeBaseAndEarlyResult) {
  const BigUint m{1000003};
  Montgomery mont{m};
  EXPECT_THROW((ResumablePow{mont, m, BigUint{5}}), std::out_of_range);
  ResumablePow task{mont, BigUint{7}, BigUint{1} << 200};
  task.step(1);
  ASSERT_FALSE(task.done());
  EXPECT_THROW((void)task.result(), std::logic_error);
}

}  // namespace
}  // namespace pisa::bn
