// The serving workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/config.hpp"
#include "crypto/chacha_rng.hpp"
#include "exec/thread_pool.hpp"
#include "net/rpc_server.hpp"

namespace perfbench {

/// Compute lanes of the server's exec::ThreadPool. One lane (the PisaConfig
/// default) runs every parallel_for inline on the dispatch thread. With more
/// lanes, parallel_for lets the caller return and destroy its stack Job while
/// the worker that finished the last task still locks `job.done_m`; with
/// four lanes on a 4-vCPU host that aborted about one run in 25 mid-run, and
/// a run must finish to be measured. Raise this once that race is fixed.
inline constexpr std::size_t kServerLanes = 1;

/// Paillier / RSA sizes of the paper (and PisaConfig's defaults).
inline constexpr std::size_t kPaillierBits = 2048;
inline constexpr std::size_t kRsaBits = 1024;

/// Per-request wait bound; a request still unanswered after this counts as
/// a timeout (a failed operation), never as a retry.
inline constexpr double kRequestTimeoutMs = 60'000.0;

/// Called once a run's figures and checks are complete, before teardown,
/// so the report is out even if tearing the deployment down then hangs.
using Publish = std::function<void(RunResult&)>;

void run_paillier_requests(const Options& opt, const Publish& publish);
void run_spectrum_churn(const Options& opt, const Publish& publish);

/// Isolated timings of the bigint and Paillier primitives at the paper's
/// key size (bigint.* and crypto.* per-layer metrics).
void measure_primitive_layers(RunResult& out, std::uint64_t seed);

/// pir.* per-layer metrics from a replica at Table I scale, built and
/// queried by direct calls (no transport).
void measure_pir_layers(RunResult& out, const Options& opt);

/// core.sdc.* per-layer metrics from SdcServer::stats() taken before and
/// after a timed phase.
void sdc_layers(RunResult& out, const pisa::core::SdcServer::Stats& before,
                const pisa::core::SdcServer::Stats& after);

/// net.tcp.* per-layer metrics from the client's and the server's transport
/// stats taken before and after a timed phase of `requests` requests.
void tcp_layers(RunResult& out, const pisa::net::TcpTransport::Stats& client0,
                const pisa::net::TcpTransport::Stats& client1,
                const pisa::net::TcpTransport::Stats& server0,
                const pisa::net::TcpTransport::Stats& server1, double requests);

/// Every per-layer metric, so a traced run reports the full table even
/// for layers a workload leaves idle (those read 0).
void declare_layers(RunResult& out);

/// Deterministic 64-bit sub-seed for (seed, purpose, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index = 0);

/// Scratch directory for one deployment (durability files), created empty.
std::string fresh_dir(const Options& opt, const std::string& tag);

/// One loopback deployment: an RpcServer and one RpcClient connection,
/// each keyed from its own seeded stream.
struct Deployment {
  pisa::core::PisaConfig cfg;
  std::unique_ptr<pisa::crypto::ChaChaRng> server_rng, client_rng;
  std::unique_ptr<pisa::rpc::RpcServer> server;
  std::unique_ptr<pisa::rpc::RpcClient> client;
  /// Client-side lanes for set-up work only (randomizer pool fills: one
  /// large parallel_for per client, on an otherwise idle process). SU and
  /// PU clients run their per-request work on the single load-generator
  /// thread.
  std::shared_ptr<pisa::exec::ThreadPool> pool;
  double keygen_s = 0, world_s = 0, precompute_s = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  /// Tears down a drained deployment: both dispatch lanes idle first, so
  /// no handler is still running when the entities are destroyed.
  ~Deployment();
};

/// Fill `count` r^n factors with the set-up lanes, then hand the client
/// back to the generator thread.
template <class Client>
void precompute_on_pool(Deployment& d, Client& client, std::size_t count) {
  client.set_thread_pool(d.pool);
  client.precompute_randomizers(count);
  client.set_thread_pool(nullptr);
}

/// Build server and client (keys from sub-seeds of (seed, `stream`, `rep`))
/// and add `num_sus` SU sessions with ids from `first_su`; keygen_s covers
/// all of it.
std::unique_ptr<Deployment> deploy_keys(const Options& opt, pisa::core::PisaConfig cfg,
                                        std::uint64_t stream, int rep,
                                        std::uint32_t first_su, std::size_t num_sus);

/// Block until the SDC has folded `updates` PU updates and the server's
/// dispatch lane is idle (their re-probe rounds done). Throws on timeout.
void wait_folded(pisa::rpc::RpcServer& server, std::uint64_t updates);

}  // namespace perfbench
