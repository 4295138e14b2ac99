// pir.* per-layer metrics: the XOR multi-server PIR query path (§3.10) at
// Table I scale (100 channels × 600 blocks), ℓ = 2 replicas, full-range
// queries. The path does no modexp: its cost is the replicas' XOR scans and
// the SU's share splitting and reconstruction, timed here by direct calls.
#include "crypto/chacha_rng.hpp"
#include "pir/pir_client.hpp"
#include "pir/pir_replica.hpp"
#include "watch/matrices.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pisa;

constexpr std::uint32_t kPus = 12;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kPackSlots = 4;

}  // namespace

void measure_pir_layers(RunResult& out, const Options& opt) {
  // A replica built and queried by direct calls (no transport): a Table I
  // database (the WatchConfig defaults) holding kPus seeded receivers,
  // unpooled scans (one lane, as kServerLanes runs the server), ℓ = 2
  // shares per query.
  const watch::WatchConfig cfg;
  const auto blocks = static_cast<std::uint32_t>(cfg.make_area().num_blocks());
  const auto e = watch::make_e_matrix(cfg);
  pir::PirReplica replica{e, kPackSlots};
  crypto::ChaChaRng rng{derive_seed(opt.seed, 0x3012D)};
  for (std::uint32_t pu = 0; pu < kPus; ++pu) {
    const radio::BlockId block{static_cast<std::uint32_t>(rng.next_u64() % blocks)};
    const radio::ChannelId ch{static_cast<std::uint32_t>(rng.next_u64() % cfg.channels)};
    const double mw = 1e-6 + 9e-6 * static_cast<double>(rng.next_u64() % 1000) / 1000.0;
    pir::PirUpdateMsg msg;
    msg.pu_id = pu;
    msg.block = block.index;
    msg.w_column.assign(cfg.channels, 0);
    msg.w_column[ch.index] = cfg.quantizer.quantize_mw(mw) - e.at(ch, block);
    replica.apply_update(msg);
  }
  crypto::ChaChaRng qrng{derive_seed(opt.seed, 0x9C1)};
  pir::PirClient pc{1, kReplicas, blocks, qrng};
  std::vector<double> client_us, scan_ms;
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto t0 = Clock::now();
    auto queries = pc.make_queries((1ULL << 40) + i, 0, blocks);
    double us = ms_since(t0) * 1e3;
    std::vector<pir::PirReplyMsg> replies;
    const auto ts = Clock::now();
    for (std::size_t r = 0; r < kReplicas; ++r)
      replies.push_back(replica.answer(queries[r], nullptr));
    scan_ms.push_back(ms_since(ts));
    const auto t1 = Clock::now();
    pc.reconstruct(replies);
    us += ms_since(t1) * 1e3;
    client_us.push_back(us);
  }
  const double scan = median(scan_ms);  // all ℓ replica scans of one query
  out.layer("pir.scan_ms_per_query", scan, "ms");
  out.layer("pir.scan_mb_per_s",
            static_cast<double>(kReplicas * replica.database().bytes().size()) / 1e6 /
                (scan / 1e3),
            "MB/s");
  out.layer("pir.client_us", median(client_us), "us");
}

}  // namespace perfbench
