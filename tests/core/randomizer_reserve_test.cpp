// Per-SU randomizer reserves (DESIGN.md §3.5): the STP's eq. (15)
// re-encryption factors and the SDC's eq. (17) S̃G factors come from one
// RandomizerPool per SU on a private stream, filled between requests under
// RandomizerReserves' policy. Whatever precomputation ran — none, a
// few idle slices, a full top-up — every output byte must be the same,
// because the k-th factor an SU consumes is always the k-th of its stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "core/server_stack.hpp"
#include "core/su_client.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/randomizer_pool.hpp"
#include "net/bus.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

PisaConfig reserve_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  return cfg;
}

// --- the pool itself -----------------------------------------------------------

class ReserveFifo : public ::testing::TestWithParam<bool> {};

TEST_P(ReserveFifo, ConsumptionOrderIsStreamOrderWhateverWasPrecomputed) {
  const bool fast = GetParam();
  crypto::ChaChaRng key_rng{std::uint64_t{0xF1F0}};
  auto keys = crypto::paillier_generate(512, key_rng, 8);

  // Inline only: every factor computed at take().
  crypto::RandomizerPool inline_only{keys.pk, crypto::ChaChaRng{7}, fast};
  std::vector<bn::BigUint> want;
  for (int i = 0; i < 8; ++i) want.push_back(inline_only.take());

  // Same stream, mixed: idle slices until one factor is queued and the
  // next is mid-computation, a bulk fill, more slices, then consumption
  // through the staged next()/finish().
  crypto::RandomizerPool mixed{keys.pk, crypto::ChaChaRng{7}, fast};
  while (mixed.available() == 0) mixed.step(17);
  for (int i = 0; i < 5; ++i) mixed.step(17);
  const std::size_t after_slices = mixed.available();
  mixed.fill(after_slices + 2, nullptr);
  EXPECT_EQ(mixed.available(), after_slices + 2);
  EXPECT_EQ(mixed.peek(0), want[0]) << "FIFO: oldest factor first";
  for (int i = 0; i < 3; ++i) mixed.step(40);
  const std::size_t queued = mixed.available();
  std::vector<bn::BigUint> got;
  for (int i = 0; i < 8; ++i) got.push_back(mixed.finish(mixed.next()));
  EXPECT_EQ(got, want);
  EXPECT_EQ(mixed.available(), queued > 8 ? queued - 8 : 0);

  // Every factor is a valid n-th residue: E_det(m)·factor decrypts to m.
  for (const auto& f : got) {
    auto c = keys.pk.rerandomize_with(keys.pk.encrypt_deterministic(bn::BigUint{42}), f);
    EXPECT_EQ(keys.sk.decrypt(c), bn::BigUint{42});
  }
}

TEST_P(ReserveFifo, TrimRewindsSoDroppedFactorsComeBackIdentical) {
  const bool fast = GetParam();
  crypto::ChaChaRng key_rng{std::uint64_t{0xF1F2}};
  auto keys = crypto::paillier_generate(512, key_rng, 8);
  crypto::RandomizerPool inline_only{keys.pk, crypto::ChaChaRng{8}, fast};
  std::vector<bn::BigUint> want;
  for (int i = 0; i < 6; ++i) want.push_back(inline_only.take());

  crypto::RandomizerPool pool{keys.pk, crypto::ChaChaRng{8}, fast};
  pool.fill(3, nullptr);
  EXPECT_EQ(pool.take(), want[0]);
  pool.trim(1);  // keep want[1], drop want[2]
  EXPECT_EQ(pool.available(), 1u);
  pool.step(5);  // want[2] again, mid-computation (or done, in fast mode)
  pool.trim(0);  // drop everything, the factor in progress included
  EXPECT_EQ(pool.available(), 0u);
  pool.trim(0);  // idempotent
  for (int i = 1; i < 6; ++i) EXPECT_EQ(pool.take(), want[i]) << "factor " << i;
}

INSTANTIATE_TEST_SUITE_P(FastRandomizers, ReserveFifo, ::testing::Bool());

TEST(ReserveFifoFast, SwitchingToFastModeIgnoresHowFarPrecomputationGot) {
  crypto::ChaChaRng key_rng{std::uint64_t{0xF1F3}};
  auto keys = crypto::paillier_generate(512, key_rng, 8);
  crypto::RandomizerPool cold{keys.pk, crypto::ChaChaRng{9}, false};
  crypto::RandomizerPool warm{keys.pk, crypto::ChaChaRng{9}, false};
  EXPECT_EQ(cold.take(), warm.take());
  warm.fill(3, nullptr);
  warm.step(10);
  cold.use_fast_base();
  warm.use_fast_base();
  EXPECT_TRUE(warm.fast());
  EXPECT_EQ(warm.available(), 0u) << "the switch drops full-width factors";
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cold.take(), warm.take()) << i;
}

// --- the per-SU idle policy ------------------------------------------------------

class ReservePolicy : public ::testing::Test {
 protected:
  static const crypto::PaillierKeyPair& keys() {
    static const crypto::PaillierKeyPair kp = [] {
      crypto::ChaChaRng rng{std::uint64_t{0xF1F1}};
      return crypto::paillier_generate(512, rng, 8);
    }();
    return kp;
  }
  static crypto::RandomizerReserves make(std::uint64_t seed) {
    crypto::ChaChaRng secret{seed};
    return crypto::RandomizerReserves{secret, false};
  }
  static std::vector<bn::BigUint> finished(crypto::RandomizerReserves::Taken t) {
    std::vector<bn::BigUint> out;
    for (auto& d : t.draws) out.push_back(t.pool->finish(std::move(d)));
    return out;
  }
  static int drain(crypto::RandomizerReserves& r) {
    int slices = 0;
    while (r.step(1 << 20)) EXPECT_LT(++slices, 100000);
    return slices;
  }
};

TEST_F(ReservePolicy, SingleRequestSusCostNoIdleWork) {
  auto r = make(1);
  for (std::uint32_t su = 1; su <= 200; ++su) r.take(su, keys().pk, 8);
  EXPECT_FALSE(r.neediest()) << "no SU has come back";
  EXPECT_EQ(drain(r), 0);
  EXPECT_EQ(r.available(), 0u);
}

TEST_F(ReservePolicy, DepthGrowsWithReturnsToTwiceTheLargestRequest) {
  auto r = make(2);
  r.take(1, keys().pk, 3);
  EXPECT_FALSE(r.neediest());
  r.take(1, keys().pk, 2);  // first return: one largest request's worth
  ASSERT_TRUE(r.neediest());
  EXPECT_EQ(*r.neediest(), 0.0);
  drain(r);
  EXPECT_EQ(r.available(1), 3u);
  r.take(1, keys().pk, 1);  // second return: twice that
  drain(r);
  EXPECT_EQ(r.available(1), 6u);
  r.take(1, keys().pk, 1);
  drain(r);
  EXPECT_EQ(r.available(1), 6u) << "no deeper than twice";
  EXPECT_EQ(r.available(), 6u);
}

TEST_F(ReservePolicy, NeediestIsTheLeastFilledAndKeyChangeStartsAFreshStream) {
  crypto::ChaChaRng key_rng{std::uint64_t{0xF1F4}};
  auto other = crypto::paillier_generate(512, key_rng, 8);
  auto r = make(3);
  for (int i = 0; i < 3; ++i) {
    r.take(1, keys().pk, 1);  // depth 2 after the third request
    r.take(2, keys().pk, 2);  // depth 4
  }
  r.step(1 << 20);  // SU 1 and SU 2 both at 0: the lower id goes first
  EXPECT_EQ(r.available(1), 1u);
  r.step(1 << 20);  // SU 1 at 1/2, SU 2 at 0/4
  EXPECT_EQ(r.available(2), 1u);
  r.step(1 << 20);  // SU 1 at 1/2, SU 2 at 1/4
  EXPECT_EQ(r.available(2), 2u);
  drain(r);
  EXPECT_EQ(r.available(), 6u);

  auto again = make(3);
  auto first = finished(again.take(1, keys().pk, 1));
  auto rekeyed = finished(r.take(1, other.pk, 1));
  EXPECT_NE(rekeyed, first) << "a new key draws from a new stream";
  EXPECT_EQ(r.available(1), 0u) << "old factors belong to the old modulus";
  EXPECT_EQ(r.available(), 4u);
}

TEST_F(ReservePolicy, QuietSuLapsesAndItsStreamRewinds) {
  auto idle = make(4);
  auto plain = make(4);
  std::vector<bn::BigUint> got, want;
  auto both = [&](std::uint32_t su, std::size_t count) {
    for (auto& f : finished(idle.take(su, keys().pk, count))) got.push_back(f);
    for (auto& f : finished(plain.take(su, keys().pk, count))) want.push_back(f);
  };
  both(1, 2);
  both(1, 2);
  both(1, 2);
  drain(idle);
  EXPECT_EQ(idle.available(1), 4u);
  for (std::uint32_t su = 100;
       su < 100 + crypto::RandomizerReserves::kIdleHorizon; ++su)
    both(su, 1);
  EXPECT_EQ(idle.available(1), 4u) << "still inside the horizon";
  both(999, 1);
  EXPECT_EQ(idle.available(1), 0u) << "quiet past the horizon: trimmed";
  EXPECT_EQ(idle.available(), 0u);
  EXPECT_FALSE(idle.neediest());
  both(1, 5);  // the trimmed factors come back from the rewound stream
  EXPECT_FALSE(idle.neediest()) << "a lapsed SU must return again to earn depth";
  EXPECT_EQ(got, want);
}

TEST_F(ReservePolicy, ProvisionedFloorSurvivesTheHorizon) {
  auto r = make(5);
  r.provision(1, keys().pk, 3, nullptr);
  EXPECT_EQ(r.available(1), 3u);
  r.take(1, keys().pk, 2);
  ASSERT_TRUE(r.neediest()) << "idle slices keep the floor topped up";
  drain(r);
  EXPECT_EQ(r.available(1), 3u);
  for (std::uint32_t su = 100;
       su <= 100 + crypto::RandomizerReserves::kIdleHorizon; ++su)
    r.take(su, keys().pk, 1);
  EXPECT_EQ(r.available(1), 3u);
  r.take(1, keys().pk, 3);
  r.refill_floors(nullptr);
  EXPECT_EQ(r.available(1), 3u);
}

TEST_F(ReservePolicy, IdleSlicesStopAtTheCap) {
  auto r = make(6);
  const std::uint32_t sus =
      crypto::RandomizerReserves::kMaxIdleFactors / 16 + 4;  // depth 16 each
  for (int round = 0; round < 3; ++round)
    for (std::uint32_t su = 1; su <= sus; ++su) r.take(su, keys().pk, 8);
  drain(r);
  EXPECT_EQ(r.available(), crypto::RandomizerReserves::kMaxIdleFactors);
  r.take(1, keys().pk, 8);
  EXPECT_TRUE(r.neediest()) << "consumption reopens room under the cap";
}

// --- the STP and SDC reserves, through the whole two-phase computation -------

/// Two identically seeded server stacks run the same requests: `plain` never
/// precomputes, `idle` runs up to `steps` idle slices before every request.
class ReserveBytes
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t, bool, int>> {};

TEST_P(ReserveBytes, IdleFilledReservesGiveByteIdenticalOutputs) {
  auto [fast, pack, threshold, steps] = GetParam();
  PisaConfig cfg = reserve_config();
  cfg.fast_randomizers = fast;
  cfg.pack_slots = pack;
  cfg.threshold_stp = threshold;

  crypto::ChaChaRng rng_a{std::uint64_t{0xB17E}};
  crypto::ChaChaRng rng_b{std::uint64_t{0xB17E}};
  ServerStack plain{cfg, rng_a};
  ServerStack idle{cfg, rng_b};

  crypto::ChaChaRng su_rng{std::uint64_t{0x5E}};
  std::vector<SuClient> sus;
  sus.reserve(2);
  for (std::uint32_t id : {1u, 2u}) {
    sus.emplace_back(id, cfg, plain.stp().group_key(), su_rng);
    for (ServerStack* s : {&plain, &idle}) {
      s->stp().register_su_key(id, sus.back().public_key());
      s->sdc().register_su_key(id, sus.back().public_key());
    }
  }

  watch::QMatrix f{cfg.watch.channels, 4, 0};
  f.at(ChannelId{1}, BlockId{2}) = cfg.watch.quantizer.quantize_mw(1e-4);
  std::size_t most_reserved = 0;
  std::uint64_t rid = 1;
  for (int round = 0; round < 3; ++round) {
    for (auto& su : sus) {
      for (int i = 0; i < steps && idle.idle_step(); ++i) {
      }
      most_reserved = std::max(most_reserved, idle.reserved_factors());
      auto req = su.prepare_request(f, rid++);
      auto conv_a = plain.sdc().begin_request(req);
      auto conv_b = idle.sdc().begin_request(req);
      auto x_a = plain.stp().convert(conv_a);
      auto x_b = idle.stp().convert(conv_b);
      ASSERT_EQ(x_a.x, x_b.x) << "STP re-encryption bytes, request " << req.request_id;
      auto resp_a = plain.sdc().finish_request(x_a);
      auto resp_b = idle.sdc().finish_request(x_b);
      EXPECT_EQ(resp_a.g, resp_b.g) << "eq. (17) G̃ bytes, request " << req.request_id;
      EXPECT_EQ(resp_a.license, resp_b.license);
      EXPECT_EQ(su.process_response(resp_a, plain.sdc().license_key()).granted,
                su.process_response(resp_b, idle.sdc().license_key()).granted);
    }
  }
  EXPECT_EQ(plain.reserved_factors(), 0u) << "the plain stack never precomputes";
  if (steps > 30) {
    EXPECT_GT(most_reserved, 0u) << "idle slices filled reserves";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ReserveBytes,
    ::testing::Combine(::testing::Bool(), ::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Bool(), ::testing::Values(3, 100000)));

TEST(SdcReserve, LateKeyTakesFactorsInRequestOrder) {
  PisaConfig cfg = reserve_config();
  crypto::ChaChaRng rng_a{std::uint64_t{0x1A7E}};
  crypto::ChaChaRng rng_b{std::uint64_t{0x1A7E}};
  ServerStack early{cfg, rng_a};
  ServerStack late{cfg, rng_b};
  crypto::ChaChaRng su_rng{std::uint64_t{0x5F}};
  SuClient su{1, cfg, early.stp().group_key(), su_rng};
  for (ServerStack* s : {&early, &late}) s->stp().register_su_key(1, su.public_key());
  early.sdc().register_su_key(1, su.public_key());

  watch::QMatrix f{cfg.watch.channels, 4, 0};
  auto r1 = su.prepare_request(f, 1);
  auto r2 = su.prepare_request(f, 2);
  auto x1_early = early.stp().convert(early.sdc().begin_request(r1));
  auto x2_early = early.stp().convert(early.sdc().begin_request(r2));
  auto x1_late = late.stp().convert(late.sdc().begin_request(r1));
  auto x2_late = late.stp().convert(late.sdc().begin_request(r2));
  // The key reaches the late SDC only now, and the conversions come back in
  // reverse order: factors still follow request order.
  late.sdc().register_su_key(1, su.public_key());
  auto g2_late = late.sdc().finish_request(x2_late).g;
  auto g1_late = late.sdc().finish_request(x1_late).g;
  EXPECT_EQ(early.sdc().finish_request(x1_early).g, g1_late);
  EXPECT_EQ(early.sdc().finish_request(x2_early).g, g2_late);
}

TEST(SdcReserve, RestartedSdcNeverReusesAFactor) {
  PisaConfig cfg = reserve_config();
  crypto::ChaChaRng rng{std::uint64_t{0xC7A5}};
  net::SimulatedNetwork net;
  ServerStack stack{cfg, rng};
  stack.attach(net);
  crypto::ChaChaRng su_rng{std::uint64_t{0x60}};
  SuClient su{1, cfg, stack.stp().group_key(), su_rng};
  stack.stp().register_su_key(1, su.public_key());
  watch::QMatrix f{cfg.watch.channels, 4, 0};
  std::uint64_t rid = 1;
  auto serve = [&] {
    stack.sdc().register_su_key(1, su.public_key());
    auto req = su.prepare_request(f, rid++);
    auto resp = stack.sdc().finish_request(
        stack.stp().convert(stack.sdc().begin_request(req)));
    EXPECT_TRUE(su.process_response(resp, stack.sdc().license_key()).granted);
  };
  auto queued = [&] {
    std::set<bn::BigUint> out;
    const auto* r = stack.sdc().reserves().find(1);
    for (std::size_t i = 0; r != nullptr && i < r->available(); ++i)
      out.insert(r->peek(i));
    return out;
  };

  for (int i = 0; i < 3; ++i) serve();  // returned twice: the SDC's depth is 2
  while (stack.idle_step()) {
  }
  ASSERT_EQ(stack.sdc().reserves().available(1), 2u);
  auto before = queued();
  serve();                                    // consumes one queued factor
  for (int i = 0; i < 3; ++i) stack.idle_step();  // refill only partly
  for (const auto& f_q : queued()) before.insert(f_q);

  stack.crash_sdc();
  stack.restart_sdc();
  for (int i = 0; i < 3; ++i) serve();
  while (stack.idle_step()) {
  }
  auto after = queued();
  ASSERT_EQ(after.size(), 2u);
  for (const auto& f_q : after)
    EXPECT_EQ(before.count(f_q), 0u) << "a restarted SDC reused a factor";
}

TEST(StpReserve, DepthIsTwiceTheLargestConversionAndIdleStops) {
  PisaConfig cfg = reserve_config();
  crypto::ChaChaRng rng{std::uint64_t{0xDE97}};
  ServerStack stack{cfg, rng};
  crypto::ChaChaRng su_rng{std::uint64_t{0x61}};
  SuClient su{1, cfg, stack.stp().group_key(), su_rng};
  stack.stp().register_su_key(1, su.public_key());
  stack.sdc().register_su_key(1, su.public_key());
  EXPECT_FALSE(stack.idle_step()) << "nothing to fill before the first request";

  watch::QMatrix f{cfg.watch.channels, 4, 0};
  auto serve = [&](std::uint64_t rid) {
    auto req = su.prepare_request(f, rid);  // 2 channels × 4 blocks = 8 entries
    stack.sdc().finish_request(stack.stp().convert(stack.sdc().begin_request(req)));
  };
  serve(1);
  EXPECT_FALSE(stack.idle_step()) << "one request earns no idle depth";
  serve(2);
  int slices = 0;
  while (stack.idle_step()) ASSERT_LT(++slices, 100000);
  EXPECT_EQ(stack.stp().pool_available(1), 8u);
  EXPECT_EQ(stack.sdc().reserves().available(1), 1u);
  serve(3);
  while (stack.idle_step()) ASSERT_LT(++slices, 100000);
  EXPECT_EQ(stack.stp().pool_available(1), 16u);
  EXPECT_EQ(stack.sdc().reserves().available(1), 2u);
  EXPECT_EQ(stack.reserved_factors(), 18u);
}

}  // namespace
}  // namespace pisa::core
