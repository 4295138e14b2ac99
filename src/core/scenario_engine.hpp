// Time-stepped dynamic-spectrum scenario engine (§3.9).
//
// Drives a real PISA deployment — the simulated-network PisaSystem or the
// TCP RpcServer/RpcClient pair, behind one ScenarioDriver interface — tick
// by tick through the dynamics the paper's static experiments leave out:
//   * vehicular SU mobility (radio::Vehicle, specular bounce at the area
//     edge; an SU requests from whatever block it is driving through),
//   * TV-channel churn (PUs retune between channels at Zipf-ish whim),
//   * PU appearance/disappearance (receivers powering on and off),
//   * PU relocation (portable receivers re-registering at a new block),
//   * license expiry and revocation (both force the SU back through the
//     full request pipeline).
// Every stochastic choice is drawn from one seeded ChaCha stream in a fixed
// order, so a run is a pure function of (config, scenario, seed) — and two
// runs that differ only in `use_delta` (full-column updates vs §3.9
// incremental deltas) must produce byte-identical TickOutcomes. That
// equivalence, across pack_slots, transports and a mid-schedule SDC
// kill/restart, is the §3.9 acceptance oracle.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "crypto/chacha_rng.hpp"
#include "radio/mobility.hpp"
#include "watch/config.hpp"

namespace pisa::core {

/// Knobs for one scenario run. Probabilities are per tick; each fires at
/// most one event of its kind (the draw order is fixed: churn, move,
/// toggle, revoke, then mobility, then requests).
struct ScenarioConfig {
  std::uint32_t ticks = 200;
  std::uint32_t num_sus = 2;
  std::uint64_t seed = 1;

  double tick_seconds = 1.0;
  double su_speed_mps = 15.0;  ///< vehicular (~54 km/h)

  double p_churn = 0.45;   ///< one PU retunes to a different channel
  double p_pu_move = 0.2;  ///< one PU re-registers at a random block
  double p_toggle = 0.15;  ///< one PU powers on/off
  double p_revoke = 0.05;  ///< one live license is revoked

  std::uint32_t license_ttl_ticks = 12;  ///< grants expire after this many ticks
  std::uint32_t request_range_blocks = 1;  ///< disclosed-range privacy pad
  double su_eirp_mw = 250.0;  ///< requested EIRP, every channel

  /// PU tuning signal strengths are drawn uniformly from this interval.
  double signal_mw_lo = 1e-6;
  double signal_mw_hi = 1e-5;

  bool use_delta = false;  ///< §3.9 incremental updates instead of columns

  /// Chaos: kill the SDC at the start of `crash_at_tick`, boot a fresh one
  /// at the start of `restart_at_tick` (recovering from the WAL; the run
  /// then re-sends every PU's current tuning). While the SDC is down the
  /// world keeps moving but nothing is sent.
  std::optional<std::uint32_t> crash_at_tick;
  std::optional<std::uint32_t> restart_at_tick;
};

/// What one tick decided — the cross-path equivalence record. Everything an
/// SU or auditor can observe: who got licensed (and the serial, which pins
/// down the exact serial-consumption order inside the SDC), who was denied
/// (and which denials took the §3.8 one-round fast path), and the exact
/// exhausted-cell state the prefilter holds afterwards.
struct TickOutcome {
  std::uint32_t tick = 0;
  bool sdc_up = true;
  std::vector<std::array<std::uint64_t, 2>> grants;  ///< {su_id, serial}
  std::vector<std::uint32_t> denials;                ///< denied su_ids
  std::vector<std::uint32_t> fast_denials;           ///< subset: one-round
  std::vector<std::uint8_t> exhausted_state;  ///< engine exact sets (§3.9)

  bool operator==(const TickOutcome&) const = default;
};

struct ScenarioResult {
  std::vector<TickOutcome> ticks;

  std::uint64_t pu_events = 0;     ///< churn + move + toggle events fired
  std::uint64_t updates_sent = 0;  ///< update-path messages actually sent
  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  std::uint64_t denials = 0;
  std::uint64_t fast_denials = 0;
  std::uint64_t transport_failures = 0;
  std::uint64_t delta_cells = 0;  ///< engine cells folded via the delta path
  std::uint64_t wal_bytes = 0;    ///< WAL growth accumulated over the run

  double update_wall_ms = 0;  ///< client build + SDC fold + re-probe time
  double total_wall_ms = 0;

  double ticks_per_sec() const {
    return total_wall_ms > 0 ? 1e3 * static_cast<double>(ticks.size()) / total_wall_ms
                             : 0.0;
  }
};

/// Transport-agnostic face of a deployment: the engine scripts *what*
/// happens, a driver says *how* it reaches the entities. Implementation:
/// StackScenarioDriver (below); SimScenarioDriver and rpc::TcpScenarioDriver
/// (net/rpc_scenario.hpp) supply only its settle step.
class ScenarioDriver {
 public:
  struct RequestResult {
    bool completed = false;  ///< false = transport failure / timeout
    bool granted = false;
    bool fast_denied = false;
    std::uint64_t serial = 0;  ///< license serial when granted
  };

  virtual ~ScenarioDriver() = default;

  /// Relocate a PU (mobility). Takes effect on its next send.
  virtual void pu_move(std::uint32_t pu_id, std::uint32_t block) = 0;
  /// Deliver a PU's tuning: full column, or (use_delta) the footprint diff.
  /// Returns false when nothing needed to be sent.
  virtual bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
                       bool use_delta) = 0;
  /// One full SU request round. The driver discloses the tightest block
  /// range covering the request's non-zero F entries (see disclosed_range),
  /// widened by `range_pad` blocks of privacy slack on each side.
  virtual RequestResult su_request(const watch::SuRequest& request,
                                   std::uint32_t range_pad) = 0;

  virtual void crash_sdc() = 0;
  virtual void restart_sdc() = 0;
  virtual bool sdc_running() = 0;

  // Callable only while sdc_running():
  virtual std::vector<std::uint8_t> exhausted_state_bytes() = 0;
  virtual std::uint64_t wal_bytes() = 0;
  virtual std::uint64_t delta_cells_folded() = 0;
};

/// The tightest disclosed block range [lo, hi) covering every non-zero
/// entry of `f` (anything outside would evade the SDC's interference check,
/// and SuClient refuses to encrypt it), always including the SU's own
/// block, widened by `pad` blocks on each side (clamped to the grid). An
/// all-zero F discloses just the padded neighbourhood of `su_block`.
std::pair<std::uint32_t, std::uint32_t> disclosed_range(
    const watch::QMatrix& f, std::uint32_t su_block, std::uint32_t pad);

/// The one ScenarioDriver. Requests go out through the client stack and
/// come back through its response registry; PU updates are built and sent
/// by the client stack; SDC state is read from the server stack. Only the
/// settle step depends on the transport: it brings the deployment to rest
/// after each PU update sent, before each state read and before a crash —
/// never around a request.
class StackScenarioDriver : public ScenarioDriver {
 public:
  /// Settle, given the PU updates sent since the SDC last booted. Only
  /// called while the SDC runs.
  using Settle = std::function<void(std::uint64_t updates)>;

  /// `sites` are the receiver registrations the deployment was built with
  /// (F models interference at the registered receivers, exactly like
  /// PisaSystem::build_f); `model` must outlive the driver. Every SU/PU the
  /// engine touches must already be added to `clients`. A request whose
  /// reply does not complete within `timeout_ms` is a transport failure.
  StackScenarioDriver(ServerStack& servers, ClientStack& clients,
                      const PisaConfig& cfg, std::vector<watch::PuSite> sites,
                      const radio::PathLossModel& model, double timeout_ms,
                      Settle settle);

  void pu_move(std::uint32_t pu_id, std::uint32_t block) override;
  bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
               bool use_delta) override;
  RequestResult su_request(const watch::SuRequest& request,
                           std::uint32_t range_pad) override;
  void crash_sdc() override;
  void restart_sdc() override;
  bool sdc_running() override;
  std::vector<std::uint8_t> exhausted_state_bytes() override;
  std::uint64_t wal_bytes() override;
  std::uint64_t delta_cells_folded() override;

 private:
  void settle();

  ServerStack& servers_;
  ClientStack& clients_;
  watch::WatchConfig watch_;
  std::vector<watch::PuSite> sites_;
  const radio::PathLossModel& model_;
  double d_c_m_;
  double timeout_ms_;
  Settle settle_;
  std::uint64_t updates_ = 0;  // sent since the current SDC boot
};

/// Over the in-process simulated-network deployment: settles by draining
/// the network.
class SimScenarioDriver final : public StackScenarioDriver {
 public:
  explicit SimScenarioDriver(PisaSystem& sys);
};

class ScenarioEngine {
 public:
  /// `sites` are the registered PU receivers the deployment was built with;
  /// the engine owns all world state (tunings, vehicles, licenses) and
  /// pushes it through `driver`.
  ScenarioEngine(const PisaConfig& cfg, std::vector<watch::PuSite> sites,
                 const ScenarioConfig& scenario, ScenarioDriver& driver);

  /// Execute the schedule: tick 0 initializes every PU (deterministic
  /// channel + signal draws) and each later tick runs the event draws,
  /// mobility, and the request round. Returns the per-tick outcome trace
  /// plus aggregate metrics.
  ScenarioResult run();

 private:
  struct PuState {
    std::optional<std::uint32_t> channel;  // nullopt = receiver off
    double signal_mw = 0;
    std::uint32_t block = 0;
  };
  struct SuState {
    radio::Vehicle vehicle;
    std::optional<std::uint32_t> license_expires;  // tick bound, exclusive
  };

  double frac();                      // uniform [0, 1)
  std::uint32_t pick(std::uint32_t n);  // uniform {0, …, n−1}
  watch::PuTuning tuning_of(const PuState& pu) const;
  void send_pu(std::size_t i, ScenarioResult& result);
  void resync_all_pus(ScenarioResult& result);
  void run_requests(std::uint32_t tick, ScenarioResult& result,
                    TickOutcome& outcome);

  PisaConfig cfg_;
  std::vector<watch::PuSite> sites_;
  ScenarioConfig sc_;
  ScenarioDriver& driver_;
  radio::ServiceArea area_;
  std::vector<PuState> pus_;
  std::vector<SuState> sus_;
  std::uint64_t last_wal_bytes_ = 0;
  crypto::ChaChaRng stream_;
};

}  // namespace pisa::core
