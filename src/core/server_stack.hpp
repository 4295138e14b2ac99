// The server side of one PISA deployment (DESIGN.md §3.7).
//
// ServerStack is the single place that assembles the infrastructure
// entities: it validates the config, starts the shared exec::ThreadPool,
// runs STP keygen then SDC keygen from the deployment rng (in that order —
// the draw order every identically-seeded oracle relies on), hands the SDC
// its threshold share and builds the standalone XOR-PIR replicas 1..ℓ−1
// (replica 0 lives inside the SDC). attach() then puts the whole stack on
// any net::Transport. PisaSystem (simulated network) and rpc::RpcServer
// (epoll TCP) both own one, so a simulated world and a socket server built
// from the same seed hold the same keys and entity streams by construction.
// The crash/restart hooks of the chaos harness (§3.6, §3.10) act on the
// attached transport: endpoint off first, then the entity is destroyed.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/sdc_server.hpp"
#include "core/stp_server.hpp"
#include "net/bus.hpp"
#include "pir/pir_replica.hpp"

namespace pisa::core {

class ServerStack {
 public:
  /// Validate `cfg` and build STP, SDC and the PIR replicas from `rng`
  /// (kept by reference for SDC restarts; must outlive the stack).
  ServerStack(const PisaConfig& cfg, bn::RandomSource& rng);

  /// Register "stp", "sdc" (with its co-located "pir_0") and the standalone
  /// replicas on `net`, which must outlive the stack. Call once.
  void attach(net::Transport& net);

  const PisaConfig& config() const { return cfg_; }
  StpServer& stp() { return *stp_; }
  const StpServer& stp() const { return *stp_; }
  SdcServer& sdc() { return *sdc_; }
  const SdcServer& sdc() const { return *sdc_; }
  bool sdc_running() const { return sdc_ != nullptr; }

  /// Shared execution pool (null when cfg.num_threads == 1).
  const std::shared_ptr<exec::ThreadPool>& thread_pool() const { return exec_; }

  /// Kill the SDC process: its endpoints ("sdc" and, in PIR mode, the
  /// co-located replica 0) leave the transport — in-flight messages become
  /// delivery failures, never late deliveries — then the entity and all of
  /// its in-memory state are destroyed. Idempotent.
  void crash_sdc();

  /// Boot a fresh SDC: constructed from the same rng (with durability on it
  /// recovers its state and persisted RSA identity), given its threshold
  /// share and the thread pool, re-attached under "sdc". No-op when running.
  SdcServer& restart_sdc();

  /// Kill standalone replica `index` (≥ 1; replica 0 rides crash_sdc):
  /// endpoint removed, object destroyed. Idempotent.
  void crash_pir_replica(std::size_t index);

  /// Replica `index` (0 = the SDC-hosted one), or nullptr when crashed or
  /// not in PIR mode.
  pir::PirServer* pir_replica(std::size_t index);

  /// One bounded slice of idle-time precomputation (DESIGN.md §3.7): top
  /// up the emptiest randomizer reserve, the STP's or the SDC's, by at most
  /// kIdleSliceMults Montgomery multiplications. Returns false when no
  /// slice is due (crypto::RandomizerReserves decides which SUs get an
  /// idle depth). Call it on the thread that runs the entities' handlers,
  /// between messages; crash_sdc and restart_sdc wait for a running slice.
  bool idle_step();

  /// About 0.15 ms of a 4096-bit (n² of 2048-bit Paillier) multiplication
  /// chain on an AVX-512 IFMA core: short enough that a frame arriving
  /// mid-slice barely waits.
  static constexpr std::size_t kIdleSliceMults = 96;

  /// Factors queued across every reserve. Read it with the handler lane
  /// quiesced.
  std::size_t reserved_factors();

 private:
  std::unique_ptr<SdcServer> make_sdc();

  PisaConfig cfg_;
  bn::RandomSource& rng_;
  net::Transport* net_ = nullptr;  // set by attach()
  std::shared_ptr<exec::ThreadPool> exec_;
  std::unique_ptr<StpServer> stp_;
  /// Guards sdc_ against idle_step: a caller off the handler lane may
  /// crash or restart the SDC while a slice runs.
  std::mutex idle_mu_;
  std::unique_ptr<SdcServer> sdc_;
  /// §3.10 standalone replicas 1..ℓ−1 (null slot = crashed).
  std::vector<std::unique_ptr<pir::PirServer>> pir_extras_;
};

}  // namespace pisa::core
