// SU return-rate workload for the server's idle-time randomizer reserves
// (DESIGN.md §3.5, §3.7).
//
// Idle filling pays off only for an SU that sends another request while
// the server's dispatch lane has idle time in between. This bench varies
// exactly that: `--sus` SU sessions take turns on one loopback TCP
// connection to an RpcServer, `--rounds` requests each, one request in
// flight at a time. Each request is prepared fresh on the generator thread
// before it is sent (8 r^n modexps at 2048 bits, the lane's idle time), and
// latency runs from submit to response. `--sus 48 --rounds 1` is the case
// where no SU returns; `--sus 4 --rounds 12` the case where every SU does.
//
// Reported: median and mean latency, process CPU seconds over the timed
// phase (client and server share the process; the client's share is the
// same work whatever the server does between requests) and over a 2 s
// quiet tail after the last response (the server's leftover idle work),
// wall seconds and peak RSS. The bench uses only RpcServer/RpcClient calls
// that predate the reserves, so the same source builds against an older
// tree for an A/B.
//
//   ./bench/bench_su_mix --sus 48 --rounds 1 [--bits 2048] [--seed 1]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "net/rpc_server.hpp"
#include "watch/matrices.hpp"

namespace {

using namespace pisa;
using Clock = std::chrono::steady_clock;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t sus = 4, rounds = 12;
  std::size_t bits = 2048;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* v = argv[i + 1];
    if (std::strcmp(argv[i], "--sus") == 0) sus = std::strtoul(v, nullptr, 10);
    else if (std::strcmp(argv[i], "--rounds") == 0) rounds = std::strtoul(v, nullptr, 10);
    else if (std::strcmp(argv[i], "--bits") == 0) bits = std::strtoul(v, nullptr, 10);
    else if (std::strcmp(argv[i], "--seed") == 0) seed = std::strtoull(v, nullptr, 10);
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (sus == 0 || rounds == 0) return 2;

  // paillier-requests' request shape: C = 8 channels packed 4 to a
  // ciphertext over a 4-block range, 8 ciphertexts per request.
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 1000.0;
  cfg.watch.channels = 8;
  cfg.pack_slots = 4;
  cfg.paillier_bits = bits;
  cfg.rsa_bits = bits / 2;

  crypto::ChaChaRng server_rng{seed};
  crypto::ChaChaRng client_rng{seed + 1};
  rpc::RpcServer server{cfg, server_rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        client_rng};
  for (std::uint32_t su = 1; su <= sus; ++su) client.add_su(su);
  const watch::QMatrix f(cfg.watch.channels, cfg.watch.grid_cols);

  std::vector<double> latency_ms;
  std::size_t granted = 0;
  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t su = 1; su <= sus; ++su) {
      auto req = client.prepare_request(su, f);
      const auto t0 = Clock::now();
      client.submit(req);
      core::SuResponseMsg resp;
      if (!client.wait_response(req.request_id, &resp, 60'000)) {
        std::fprintf(stderr, "request %llu timed out\n",
                     static_cast<unsigned long long>(req.request_id));
        return 1;
      }
      latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (client.su(su).process_response(resp, server.license_key()).granted)
        ++granted;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  const double cpu_s = cpu_seconds() - cpu0;
  // No more requests come: whatever the process spends now is the server's
  // idle-time work left over after the last request.
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const double tail_cpu_s = cpu_seconds() - cpu0 - cpu_s;
  server.transport().quiesce(10'000);

  // Zero interference everywhere: every request must be granted.
  if (granted != latency_ms.size()) {
    std::fprintf(stderr, "%zu of %zu requests granted\n", granted,
                 latency_ms.size());
    return 1;
  }
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  double mean = 0;
  for (double v : latency_ms) mean += v / static_cast<double>(latency_ms.size());
  std::printf(
      "su_mix sus=%u rounds=%u bits=%zu requests=%zu p50_ms=%.2f mean_ms=%.2f "
      "cpu_s=%.3f tail_cpu_s=%.3f wall_s=%.3f peak_rss_mb=%.1f\n",
      sus, rounds, bits, latency_ms.size(), sorted[sorted.size() / 2], mean,
      cpu_s, tail_cpu_s, wall_s, peak_rss_mb());
  return 0;
}
