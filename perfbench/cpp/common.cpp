// Helpers every workload shares: seeds, scratch directories, the loopback
// deployment and its drained teardown, and the per-layer metric table.
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/paillier.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pisa;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  // splitmix64 over the three words: cheap, deterministic, well mixed.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL ^ (purpose << 32) ^ index;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string fresh_dir(const Options& opt, const std::string& tag) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(opt.work_dir) / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Deployment::~Deployment() {
  // Let a transport's dispatch thread park before its destructor runs:
  // TcpTransport::stop() raises its stop flag without holding the dispatch
  // mutex, so a stop that lands while the thread is between its idle check
  // and its wait is a lost wake-up and the join hangs. A run that hangs
  // anyway is killed by run.py's watchdog and reported as failed.
  auto settle = [](pisa::net::TcpTransport& tcp) {
    tcp.quiesce(kRequestTimeoutMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  if (server && client) {
    settle(server->transport());
    settle(client->transport());
  }
  client.reset();
  if (server) settle(server->transport());
  server.reset();
}

std::unique_ptr<Deployment> deploy_keys(const Options& opt, core::PisaConfig cfg,
                                        std::uint64_t stream, int rep,
                                        std::uint32_t first_su, std::size_t num_sus) {
  auto d = std::make_unique<Deployment>();
  d->cfg = std::move(cfg);
  const auto r = static_cast<std::uint64_t>(rep);
  d->server_rng = std::make_unique<crypto::ChaChaRng>(derive_seed(opt.seed, stream, 2 * r));
  d->client_rng =
      std::make_unique<crypto::ChaChaRng>(derive_seed(opt.seed, stream, 2 * r + 1));
  const auto t = Clock::now();
  d->server = std::make_unique<rpc::RpcServer>(d->cfg, *d->server_rng);
  d->client = std::make_unique<rpc::RpcClient>(d->cfg, d->server->group_key(),
                                               "127.0.0.1", d->server->port(),
                                               *d->client_rng);
  d->pool = std::make_shared<exec::ThreadPool>(opt.nproc);
  for (std::uint32_t i = 0; i < num_sus; ++i) d->client->add_su(first_su + i);
  d->keygen_s = s_since(t);
  return d;
}

void wait_folded(rpc::RpcServer& server, std::uint64_t updates) {
  // Arrival first (the fold counters), then an idle lane: each fold queues
  // its probe round before it bumps the counter.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<std::int64_t>(kRequestTimeoutMs));
  for (;;) {
    const auto& st = server.sdc().stats();
    if (st.pu_updates + st.pu_deltas >= updates) break;
    if (Clock::now() > deadline) throw std::runtime_error("PU updates never folded");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  server.transport().quiesce(kRequestTimeoutMs);
}

void sdc_layers(RunResult& out, const core::SdcServer::Stats& before,
                const core::SdcServer::Stats& after) {
  auto mean_ms = [](const core::SdcServer::PhaseStat& a,
                    const core::SdcServer::PhaseStat& b) {
    return per(b.total_ms - a.total_ms, static_cast<double>(b.count - a.count));
  };
  out.layer("core.sdc.phase1_ms", mean_ms(before.phase1, after.phase1), "ms");
  out.layer("core.sdc.phase2_ms", mean_ms(before.phase2, after.phase2), "ms");
  out.layer("core.sdc.prefilter_ms", mean_ms(before.prefilter, after.prefilter), "ms");
  out.layer("core.sdc.delta_ms", mean_ms(before.delta, after.delta), "ms");
  const auto hits = static_cast<double>(after.prefilter_hits - before.prefilter_hits);
  const auto misses =
      static_cast<double>(after.prefilter_misses - before.prefilter_misses);
  out.layer("core.sdc.fast_deny_frac", per(hits, hits + misses), "frac");
  out.layer("core.sdc.delta_cells_per_update",
            per(static_cast<double>(after.delta_cells - before.delta_cells),
                static_cast<double>(after.pu_deltas - before.pu_deltas)),
            "count");
}

void tcp_layers(RunResult& out, const net::TcpTransport::Stats& client0,
                const net::TcpTransport::Stats& client1,
                const net::TcpTransport::Stats& server0,
                const net::TcpTransport::Stats& server1, double requests) {
  out.layer("net.tcp.frames_per_request",
            per(static_cast<double>((client1.frames_sent - client0.frames_sent) +
                                    (client1.frames_received - client0.frames_received)),
                requests),
            "count");
  out.layer("net.tcp.peak_dispatch_depth",
            static_cast<double>(server1.peak_dispatch_depth), "count");
  out.layer("net.tcp.reads_paused",
            static_cast<double>(server1.reads_paused - server0.reads_paused), "count");
}

void declare_layers(RunResult& out) {
  static const std::vector<std::pair<const char*, const char*>> kLayers = {
      {"setup.keygen_s", "s"},
      {"setup.world_s", "s"},
      {"setup.precompute_s", "s"},
      {"bigint.mont_pow_2048_us", "us"},
      {"crypto.encrypt_us", "us"},
      {"crypto.decrypt_crt_us", "us"},
      {"crypto.blind_entry_us", "us"},
      {"crypto.fold_add_us", "us"},
      {"core.su.prepare_ms", "ms"},
      {"core.su.verify_ms", "ms"},
      {"core.sdc.phase1_ms", "ms"},
      {"core.sdc.phase2_ms", "ms"},
      {"core.sdc.prefilter_ms", "ms"},
      {"core.sdc.delta_ms", "ms"},
      {"core.sdc.fast_deny_frac", "frac"},
      {"core.sdc.delta_cells_per_update", "count"},
      {"core.stp.convert_ms_per_entry", "ms"},
      {"core.stp.entries_per_batch", "count"},
      {"core.stp.probe_slots_per_update", "count"},
      {"core.pu.delta_ms", "ms"},
      {"store.wal_bytes_per_update", "B"},
      {"store.snapshots_per_1k_updates", "count"},
      {"exec.cpu_util", "frac"},
      {"net.tcp.frames_per_request", "count"},
      {"net.tcp.peak_dispatch_depth", "count"},
      {"net.tcp.reads_paused", "count"},
      {"net.fast_deny_rtt_us", "us"},
      {"net.queue_ms", "ms"},
      {"pir.scan_ms_per_query", "ms"},
      {"pir.scan_mb_per_s", "MB/s"},
      {"pir.client_us", "us"},
      {"watch.build_f_ms", "ms"},
      {"update_per_s", "upd/s"},
      {"tick_p50_ms", "ms"},
      {"tick_p95_ms", "ms"},
      {"trace.overhead_frac", "frac"},
      {"trace.single_request_ms", "ms"},
      {"trace.layer_sum_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayers) out.layer(name, 0.0, unit);
}

void measure_primitive_layers(RunResult& out, std::uint64_t seed) {
  crypto::ChaChaRng rng{derive_seed(seed, 0xB16)};

  // bigint: one full-width modular exponentiation at 2048 bits.
  bn::BigUint modulus = bn::random_bits(rng, kPaillierBits);
  modulus.set_bit(kPaillierBits - 1);
  modulus.set_bit(0);
  const bn::Montgomery mont{modulus};
  const bn::BigUint base = bn::random_below(rng, modulus);
  bn::BigUint exp = bn::random_bits(rng, kPaillierBits);
  exp.set_bit(kPaillierBits - 1);
  bn::BigUint sink;
  out.layer("bigint.mont_pow_2048_us",
            median_us([&] { sink = mont.pow(base, exp); }), "us");

  // crypto: the Paillier operations the serving path is built from.
  const auto kp = crypto::paillier_generate(kPaillierBits, rng, 16);
  const auto& pk = kp.pk;
  const bn::BigUint m = bn::random_below(rng, pk.n());
  crypto::PaillierCiphertext ct;
  out.layer("crypto.encrypt_us", median_us([&] { ct = pk.encrypt(m, rng); }),
            "us");
  out.layer("crypto.decrypt_crt_us",
            median_us([&] { sink = kp.sk.decrypt(ct); }), "us");
  const auto budget = pk.encrypt(bn::BigUint{1'000'000}, rng);
  const auto f = pk.encrypt(bn::BigUint{1'000}, rng);
  const bn::BigUint alpha = bn::random_bits(rng, 128);
  const bn::BigUint beta = bn::random_bits(rng, 128);
  const bn::BigUint x{205};
  out.layer("crypto.blind_entry_us", median_us([&] {
              ct = pk.blind_entry(budget, f, x, alpha, beta, 1);
            }),
            "us");
  out.layer("crypto.fold_add_us",
            median_us([&] { ct = pk.add(budget, f); }, 50, 50), "us");
}

}  // namespace perfbench
