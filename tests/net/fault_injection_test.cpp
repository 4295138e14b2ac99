// Seeded fault injection and reliable delivery over the simulated network.
//
// Two layers under test: SimulatedNetwork's ChaCha-driven FaultPlan (drop /
// duplicate / corrupt / reorder / delay, reproducible from a seed), and
// ReliableTransport's sequence-numbered, acknowledged, checksummed delivery
// with bounded retry + exponential backoff on top of it. Every test is
// deterministic: a fixed fault seed fixes the entire failure schedule.
#include "net/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/bus.hpp"
#include "net/codec.hpp"
#include "net/fault.hpp"

namespace pisa::net {
namespace {

Message msg(std::string from, std::string to, std::string type,
            std::vector<std::uint8_t> payload) {
  return Message{std::move(from), std::move(to), std::move(type),
                 std::move(payload)};
}

std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t fill = 0x5A) {
  return std::vector<std::uint8_t>(n, fill);
}

void expect_same_audit(const std::vector<DeliveryRecord>& a,
                       const std::vector<DeliveryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from) << i;
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us) << i;
  }
}

TEST(FaultInjection, ScheduleIsReproducibleFromSeed) {
  auto run_once = [](std::uint64_t seed) {
    SimulatedNetwork net{100.0, 125.0};
    net.register_endpoint("b", [](const Message&) {});
    net.set_fault_seed(seed);
    FaultPlan plan;
    plan.drop = 0.3;
    plan.duplicate = 0.2;
    plan.reorder = 0.2;
    plan.delay = 0.2;
    net.set_default_fault_plan(plan);
    for (int i = 0; i < 200; ++i)
      net.send(msg("a", "b", "t", bytes(static_cast<std::size_t>(i % 17))));
    net.run();
    return std::tuple{net.fault_stats(), net.total_stats(), net.now_us(),
                      net.audit_log("b")};
  };
  auto r1 = run_once(42);
  auto r2 = run_once(42);
  EXPECT_EQ(std::get<0>(r1), std::get<0>(r2));
  EXPECT_EQ(std::get<1>(r1), std::get<1>(r2));
  EXPECT_EQ(std::get<2>(r1), std::get<2>(r2));
  expect_same_audit(std::get<3>(r1), std::get<3>(r2));
  EXPECT_GT(std::get<0>(r1).dropped, 0u);
  EXPECT_GT(std::get<0>(r1).duplicated, 0u);

  // A different seed must produce a different schedule.
  auto r3 = run_once(43);
  EXPECT_NE(std::get<0>(r1), std::get<0>(r3));
}

TEST(FaultInjection, DropsAreCountedAndNothingIsDelivered) {
  SimulatedNetwork net;
  int seen = 0;
  net.register_endpoint("b", [&](const Message&) { ++seen; });
  net.set_fault_seed(7);
  FaultPlan plan;
  plan.drop = 1.0;
  net.set_default_fault_plan(plan);
  for (int i = 0; i < 5; ++i) net.send(msg("a", "b", "t", bytes(10)));
  EXPECT_EQ(net.run(), 0u);
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(net.fault_stats().dropped, 5u);
  EXPECT_EQ(net.link_fault_stats("a", "b").dropped, 5u);
  EXPECT_EQ(net.stats("a", "b").messages, 0u) << "dropped sends carry no bytes";
}

TEST(FaultInjection, DuplicatesAppearInTrafficAndAudit) {
  // duplicate = 1.0: every send delivers exactly two copies, and the audit
  // trail / traffic stats count both — the Figure 6 byte accounting stays
  // honest under faults.
  SimulatedNetwork net;
  int seen = 0;
  net.register_endpoint("b", [&](const Message&) { ++seen; });
  net.set_fault_seed(7);
  FaultPlan plan;
  plan.duplicate = 1.0;
  net.set_default_fault_plan(plan);
  net.send(msg("a", "b", "t", bytes(100)));
  net.run();
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(net.fault_stats().duplicated, 1u);
  EXPECT_EQ(net.stats("a", "b").messages, 2u);
  EXPECT_EQ(net.stats("a", "b").bytes, 200u);
  EXPECT_EQ(net.audit_log("b").size(), 2u);
}

TEST(FaultInjection, CorruptionFlipsBitsAndChecksumCatchesIt) {
  SimulatedNetwork net;
  std::vector<std::vector<std::uint8_t>> received;
  net.register_endpoint("b",
                        [&](const Message& m) { received.push_back(m.payload); });
  net.set_fault_seed(9);
  FaultPlan plan;
  plan.corrupt = 1.0;
  net.set_default_fault_plan(plan);

  auto frame = bytes(64, 0x11);
  seal_frame(frame);
  net.send(msg("a", "b", "t", frame));
  net.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].size(), frame.size()) << "corruption never resizes";
  EXPECT_NE(received[0], frame);
  EXPECT_EQ(net.fault_stats().corrupted, 1u);
  auto tampered = received[0];
  EXPECT_FALSE(open_frame(tampered)) << "CRC must reject the flipped bits";
}

TEST(FaultInjection, PerLinkPlanOverridesDefault) {
  SimulatedNetwork net;
  int b_seen = 0, c_seen = 0;
  net.register_endpoint("b", [&](const Message&) { ++b_seen; });
  net.register_endpoint("c", [&](const Message&) { ++c_seen; });
  net.set_fault_seed(1);
  FaultPlan lossy;
  lossy.drop = 1.0;
  net.set_default_fault_plan(lossy);
  net.set_fault_plan("a", "c", FaultPlan{});  // perfect link a->c
  for (int i = 0; i < 3; ++i) {
    net.send(msg("a", "b", "t", bytes(4)));
    net.send(msg("a", "c", "t", bytes(4)));
  }
  net.run();
  EXPECT_EQ(b_seen, 0);
  EXPECT_EQ(c_seen, 3);
}

TEST(DedupWindowTest, RemembersWithinCapacityOnly) {
  DedupWindow win{2};
  EXPECT_TRUE(win.first_time("a", 1));
  EXPECT_FALSE(win.first_time("a", 1));
  EXPECT_TRUE(win.first_time("b", 1));
  EXPECT_TRUE(win.first_time("a", 2));  // evicts ("a", 1)
  EXPECT_FALSE(win.first_time("a", 2));
  EXPECT_TRUE(win.first_time("a", 1)) << "evicted entries are forgotten";
  EXPECT_TRUE(win.first_time("x", 0));
  EXPECT_TRUE(win.first_time("x", 0)) << "seq 0 (raw delivery) never dedups";
}

struct ReliableFixture : ::testing::Test {
  SimulatedNetwork net{100.0, 125.0};
  ReliablePolicy policy;
  std::vector<Message> a_seen, b_seen;

  ReliableTransport& transport() {
    if (!rt_) {
      rt_ = std::make_unique<ReliableTransport>(net, policy);
      rt_->register_endpoint("a", [this](const Message& m) { a_seen.push_back(m); });
      rt_->register_endpoint("b", [this](const Message& m) { b_seen.push_back(m); });
    }
    return *rt_;
  }

 private:
  std::unique_ptr<ReliableTransport> rt_;
};

TEST_F(ReliableFixture, DeliversExactlyOnceOnPerfectLink) {
  auto& rt = transport();
  rt.send(msg("a", "b", "ping", bytes(32, 0xAB)));
  net.run();
  ASSERT_EQ(b_seen.size(), 1u);
  EXPECT_EQ(b_seen[0].type, "ping");
  EXPECT_EQ(b_seen[0].payload, bytes(32, 0xAB)) << "framing must round-trip";
  EXPECT_GT(b_seen[0].net_seq, 0u);
  EXPECT_EQ(rt.stats().data_sent, 1u);
  EXPECT_EQ(rt.stats().acks_sent, 1u);
  EXPECT_EQ(rt.stats().acks_received, 1u);
  EXPECT_EQ(rt.stats().retransmits, 0u);
  EXPECT_EQ(rt.stats().gave_up, 0u);
}

TEST_F(ReliableFixture, LostAcksCauseRetransmitsThatAreDeduplicated) {
  // Kill the ACK path b->a: the sender retransmits its full budget, the
  // receiver sees every copy on the wire but delivers the app message once.
  policy.max_retries = 3;
  policy.timeout_us = 1'000.0;
  auto& rt = transport();
  net.set_fault_seed(5);
  FaultPlan ack_blackhole;
  ack_blackhole.drop = 1.0;
  net.set_fault_plan("b", "a", ack_blackhole);

  rt.send(msg("a", "b", "ping", bytes(10)));
  net.run();

  EXPECT_EQ(b_seen.size(), 1u) << "exactly-once at the application layer";
  EXPECT_EQ(rt.stats().retransmits, 3u);
  EXPECT_EQ(rt.stats().duplicates_suppressed, 3u);
  EXPECT_EQ(net.stats("a", "b").messages, 4u)
      << "audit keeps every retransmitted frame";
  EXPECT_EQ(net.audit_log("b").size(), 4u);
  // Without a single ACK the sender must eventually give up — at-least-once
  // delivery happened, but the sender cannot know.
  EXPECT_EQ(rt.stats().gave_up, 1u);
  ASSERT_EQ(rt.failures().size(), 1u);
  EXPECT_EQ(rt.failures()[0].attempts, 4u);
}

TEST_F(ReliableFixture, SurvivesHeavyRandomLoss) {
  policy.max_retries = 8;
  policy.timeout_us = 1'000.0;
  auto& rt = transport();
  net.set_fault_seed(2026);
  FaultPlan plan;
  plan.drop = 0.4;
  net.set_default_fault_plan(plan);

  const int kMessages = 30;
  for (int i = 0; i < kMessages; ++i)
    rt.send(msg("a", "b", std::string("m").append(std::to_string(i)), bytes(8)));
  net.run();

  std::set<std::string> unique_types;
  for (const auto& m : b_seen) unique_types.insert(m.type);
  EXPECT_EQ(b_seen.size(), static_cast<std::size_t>(kMessages))
      << "every message exactly once despite 40% loss";
  EXPECT_EQ(unique_types.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(rt.stats().retransmits, 0u);
  EXPECT_GT(net.fault_stats().dropped, 0u);
}

TEST_F(ReliableFixture, CorruptFramesAreNackedAndRecovered) {
  // A round trip survives corruption only if DATA and ACK both arrive
  // clean (p = 0.75² here), and a corrupted seq field can make a NACK
  // spend another message's budget — so give the budget headroom.
  policy.max_retries = 8;
  policy.timeout_us = 1'000.0;
  auto& rt = transport();
  net.set_fault_seed(99);
  FaultPlan plan;
  plan.corrupt = 0.25;
  net.set_default_fault_plan(plan);

  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i)
    rt.send(msg("a", "b", std::string("m").append(std::to_string(i)), bytes(40)));
  net.run();

  EXPECT_EQ(b_seen.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(rt.stats().corrupt_rejected, 0u)
      << "with corrupt=0.4 and this seed, some frames must be mangled";
  EXPECT_GT(rt.stats().nacks_sent, 0u);
  EXPECT_EQ(rt.stats().gave_up, 0u);
  for (const auto& m : b_seen)
    EXPECT_EQ(m.payload, bytes(40)) << "no corrupted payload reaches the app";
}

TEST_F(ReliableFixture, GivesUpAfterBoundedRetriesInsteadOfHanging) {
  policy.max_retries = 2;
  policy.timeout_us = 500.0;
  policy.backoff = 2.0;
  auto& rt = transport();
  std::vector<ReliableTransport::GiveUp> reported;
  rt.set_failure_handler(
      [&](const ReliableTransport::GiveUp& g) { reported.push_back(g); });
  net.set_fault_seed(3);
  FaultPlan blackhole;
  blackhole.drop = 1.0;
  net.set_default_fault_plan(blackhole);

  rt.send(msg("a", "b", "doomed", bytes(16)));
  net.run();  // must terminate: retries are bounded

  EXPECT_EQ(b_seen.size(), 0u);
  EXPECT_EQ(net.pending(), 0u) << "no timers left after giving up";
  EXPECT_EQ(rt.stats().gave_up, 1u);
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0].from, "a");
  EXPECT_EQ(reported[0].to, "b");
  EXPECT_EQ(reported[0].type, "doomed");
  EXPECT_EQ(reported[0].attempts, 3u) << "original send + 2 retransmissions";
}

TEST_F(ReliableFixture, UnregisteredSenderIsALogicError) {
  EXPECT_THROW(transport().send(msg("ghost", "b", "x", bytes(1))),
               std::logic_error);
}

TEST(ReliableTransportDeterminism, ChaosRunIsBitReproducible) {
  auto run_once = [] {
    SimulatedNetwork net{100.0, 125.0};
    ReliablePolicy policy;
    policy.max_retries = 6;
    policy.timeout_us = 1'000.0;
    ReliableTransport rt{net, policy};
    std::vector<std::pair<std::string, std::uint64_t>> delivered;
    rt.register_endpoint("a", [](const Message&) {});
    rt.register_endpoint("b", [&](const Message& m) {
      delivered.emplace_back(m.type, m.net_seq);
    });
    net.set_fault_seed(777);
    FaultPlan plan;
    plan.drop = 0.25;
    plan.duplicate = 0.15;
    plan.corrupt = 0.1;
    plan.reorder = 0.2;
    net.set_default_fault_plan(plan);
    for (int i = 0; i < 40; ++i)
      rt.send(msg("a", "b", std::string("m").append(std::to_string(i)),
                  bytes(static_cast<std::size_t>(8 + i))));
    net.run();
    return std::tuple{delivered, rt.stats(), net.fault_stats(),
                      net.total_stats(), net.now_us()};
  };
  auto r1 = run_once();
  auto r2 = run_once();
  EXPECT_EQ(std::get<0>(r1), std::get<0>(r2)) << "same delivery order and seqs";
  EXPECT_EQ(std::get<1>(r1), std::get<1>(r2)) << "same transport stats";
  EXPECT_EQ(std::get<2>(r1), std::get<2>(r2)) << "same fault schedule";
  EXPECT_EQ(std::get<3>(r1), std::get<3>(r2)) << "same traffic totals";
  EXPECT_EQ(std::get<4>(r1), std::get<4>(r2)) << "same virtual clock";
}

}  // namespace
}  // namespace pisa::net
