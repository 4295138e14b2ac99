// Idle-time randomizer reserves on the TCP server (DESIGN.md §3.5, §3.7):
// the dispatch lane tops up the STP's and SDC's per-SU reserves between
// requests, in bounded slices. Requests served from filled reserves must
// stay byte-identical to the simulated oracle, and tearing a server down or
// crashing its SDC while a slice runs must be safe (this suite runs under
// TSan in CI).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/protocol.hpp"
#include "core/server_stack.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"

namespace pisa::net {
namespace {

using radio::BlockId;
using radio::ChannelId;

core::PisaConfig reserve_config(std::size_t pack_slots, std::size_t paillier_bits) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 3;
  cfg.paillier_bits = paillier_bits;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.pack_slots = pack_slots;
  return cfg;
}

std::vector<watch::PuSite> sites() { return {{0, BlockId{0}}, {1, BlockId{5}}}; }

/// Quiesce the lane until the idle slices have filled `want` factors.
bool wait_reserved(rpc::RpcServer& server, std::size_t want) {
  for (int i = 0; i < 2000; ++i) {
    server.transport().quiesce(1000);
    if (server.reserved_factors() >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

class TcpIdleReserves : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpIdleReserves, PausedRequestsServedFromReservesMatchOracle) {
  const std::size_t k = GetParam();
  const auto cfg = reserve_config(k, 768);
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};

  // Decisions, licenses and signatures come from the simulated oracle. The
  // SU decrypts G̃ to the same signature under any randomizer, so G̃'s own
  // bytes are checked against `direct`: an identically seeded server stack
  // fed the same request bytes by direct calls, which never precomputes.
  crypto::ChaChaRng sim_rng{std::uint64_t{0x1D7E}};
  core::PisaSystem sim{cfg, sites(), model, sim_rng};
  crypto::ChaChaRng direct_rng{std::uint64_t{0x1D7E}};
  core::ServerStack direct{cfg, direct_rng};
  crypto::ChaChaRng tcp_rng{std::uint64_t{0x1D7E}};
  rpc::RpcServer server{cfg, tcp_rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        tcp_rng};
  for (const auto& site : sites()) client.add_pu(site);
  sim.add_su(1);
  sim.add_su(2);
  for (std::uint32_t su : {1u, 2u}) {
    const auto& pk = client.add_su(su).public_key();
    direct.stp().register_su_key(su, pk);
    direct.sdc().register_su_key(su, pk);
  }
  const watch::PuTuning t0{ChannelId{0}, 1e-6};
  sim.pu_update(0, t0);
  direct.sdc().handle_pu_update(
      core::PuUpdateMsg::decode(client.pu_update(0, t0).bytes));

  const std::vector<watch::SuRequest> reqs{
      {1, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
      {2, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {1, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {2, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
      {1, BlockId{2}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {2, BlockId{0}, std::vector<double>(cfg.watch.channels, 100.0)},
      {1, BlockId{5}, std::vector<double>(cfg.watch.channels, 100.0)},
      {2, BlockId{3}, std::vector<double>(cfg.watch.channels, 1e-4)},
  };
  // One request's Ṽ: ⌈C/k⌉ groups × every block. Once both SUs have come
  // back (their second requests), the reserves hold a conversion's worth
  // per SU at the STP and an S̃G factor per SU at the SDC.
  const std::size_t entries =
      (cfg.watch.channels + k - 1) / k * cfg.watch.grid_rows * cfg.watch.grid_cols;
  int grants = 0, denies = 0, served_warm = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "k=" << k << " request " << i);
    const auto& r = reqs[i];
    if (i >= 4) {
      ASSERT_TRUE(wait_reserved(server, 2 * (entries + 1)))
          << "idle slices never filled the reserves";
      ++served_warm;
    }
    auto sim_out = sim.su_request(r);
    auto p = client.prepare_request(r.su_id, sim.build_f(r));
    client.submit(p);
    core::SuResponseMsg resp;
    ASSERT_TRUE(client.wait_response(p.request_id, &resp, 60000));
    auto want = direct.sdc().finish_request(direct.stp().convert(
        direct.sdc().begin_request(core::SuRequestMsg::decode(p.bytes))));
    EXPECT_EQ(resp.g, want.g)
        << "G̃ from reserve-served factors must match inline factors";
    auto out = client.su(r.su_id).process_response(resp, server.license_key());
    ASSERT_TRUE(sim_out.completed());
    EXPECT_EQ(out.granted, sim_out.granted);
    EXPECT_EQ(out.license, sim_out.license);
    EXPECT_EQ(out.signature, sim_out.signature);
    (out.granted ? grants : denies)++;
  }
  EXPECT_GT(grants, 0);
  EXPECT_GT(denies, 0);
  EXPECT_EQ(served_warm, 4);
}

INSTANTIATE_TEST_SUITE_P(PackSlots, TcpIdleReserves,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// G̃ across transports: the same seeded request sequence on the simulated
// network and over TCP yields the same eq. (17) response ciphertext byte
// for byte, also once the TCP server serves requests from factors its
// dispatch lane queued in idle time. The SU decrypts G̃ to the same
// signature under any r^n factor, so suites comparing decisions, licenses
// and signatures cannot tell a reserve that hands its factors out in
// another order than the inline draws; this one can. The sim side is read
// straight from its ClientStack's response registry.
class GTildeAcrossTransports : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GTildeAcrossTransports, ResponseCiphertextMatchesSimulatedOracle) {
  const std::size_t k = GetParam();
  const auto cfg = reserve_config(k, 768);
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};

  crypto::ChaChaRng sim_rng{std::uint64_t{0x67E1}};
  core::PisaSystem sim{cfg, sites(), model, sim_rng};
  crypto::ChaChaRng tcp_rng{std::uint64_t{0x67E1}};
  rpc::RpcServer server{cfg, tcp_rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        tcp_rng};
  for (const auto& site : sites()) client.add_pu(site);
  for (std::uint32_t su : {1u, 2u}) {
    sim.add_su(su);
    client.add_su(su);
  }
  const watch::PuTuning t0{ChannelId{1}, 2e-6};
  sim.pu_update(0, t0);
  client.pu_update(0, t0);

  const std::vector<watch::SuRequest> reqs{
      {1, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
      {2, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {2, BlockId{0}, std::vector<double>(cfg.watch.channels, 100.0)},
      {1, BlockId{3}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {1, BlockId{5}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {2, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
      {1, BlockId{0}, std::vector<double>(cfg.watch.channels, 100.0)},
      {2, BlockId{2}, std::vector<double>(cfg.watch.channels, 1e-4)},
  };
  const std::size_t entries =
      (cfg.watch.channels + k - 1) / k * cfg.watch.grid_rows * cfg.watch.grid_cols;
  int grants = 0, denies = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "k=" << k << " request " << i);
    const auto& r = reqs[i];
    // From the fifth request on both SUs have come back, so the pause lets
    // the idle slices queue several factors per SU at the STP and the SDC.
    if (i >= 4) {
      ASSERT_TRUE(wait_reserved(server, 2 * (entries + 1)))
          << "idle slices never filled the reserves";
    }

    const auto f = sim.build_f(r);
    auto sim_req = sim.clients().prepare_request(r.su_id, f);
    sim.clients().submit(sim_req);
    core::ClientStack::Reply sim_reply;
    ASSERT_TRUE(sim.clients().take(sim_req.request_id, 0, &sim_reply));
    ASSERT_TRUE(sim_reply.response.has_value());

    auto tcp_req = client.prepare_request(r.su_id, f);
    EXPECT_EQ(tcp_req.bytes, sim_req.bytes) << "request bytes diverged";
    client.submit(tcp_req);
    core::SuResponseMsg resp;
    ASSERT_TRUE(client.wait_response(tcp_req.request_id, &resp, 60000));
    EXPECT_EQ(resp.g, sim_reply.response->g)
        << "G̃ over TCP must equal the simulated G̃ byte for byte";
    (client.su(r.su_id).process_response(resp, server.license_key()).granted
         ? grants
         : denies)++;
  }
  EXPECT_GT(grants, 0);
  EXPECT_GT(denies, 0);
}

INSTANTIATE_TEST_SUITE_P(PackSlots, GTildeAcrossTransports,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// A server destroyed, or its SDC crashed and restarted, while idle slices
// are filling reserves: the destructor's stop() and crash_sdc() each wait
// for the running slice, so no slice touches a dead entity. 1024-bit keys
// make one factor take several slices, and the pauses land at varying
// depths of the fill.
TEST(TcpIdleReserves, DestroyOrCrashMidSliceIsSafe) {
  const auto cfg = reserve_config(1, 1024);
  const watch::QMatrix f(cfg.watch.channels,
                         cfg.watch.grid_rows * cfg.watch.grid_cols);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(round);
    crypto::ChaChaRng server_rng{std::uint64_t(0x51CE + 2 * round)};
    crypto::ChaChaRng client_rng{std::uint64_t(0x51CF + 2 * round)};
    auto server = std::make_unique<rpc::RpcServer>(cfg, server_rng);
    rpc::RpcClient client{cfg, server->group_key(), "127.0.0.1", server->port(),
                          client_rng};
    client.add_su(1);
    core::SuResponseMsg resp;
    for (int visit = 0; visit < 2; ++visit) {  // the second earns idle depth
      auto p = client.prepare_request(1, f);
      client.submit(p);
      ASSERT_TRUE(client.wait_response(p.request_id, &resp, 60000));
      EXPECT_TRUE(
          client.su(1).process_response(resp, server->license_key()).granted);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300 * round));
    if (round % 2 == 0) {
      server.reset();  // mid-fill teardown
      continue;
    }
    server->crash_sdc();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    server->restart_sdc();
    auto again = client.prepare_request(1, f);
    client.submit(again);
    ASSERT_TRUE(client.wait_response(again.request_id, &resp, 60000));
    EXPECT_TRUE(client.su(1).process_response(resp, server->license_key()).granted)
        << "the restarted SDC serves from its own fresh reserve";
  }
}

}  // namespace
}  // namespace pisa::net
