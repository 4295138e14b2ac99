// End-to-end PISA deployment over the simulated network.
//
// PisaSystem owns one ServerStack (STP, SDC, PIR replicas) and one
// ClientStack (a PuClient per registered TV-receiver site, any number of
// SuClients, the SU response registry) on one simulated network, and
// drives the full message flows of Figures 4 and 5: PU tuning updates, and
// the two-phase SU request with the STP key-conversion round. It builds its
// plaintext matrices with the watch layer's own functions, so a PlainWatch
// instance fed the same inputs is a bit-exact decision oracle for this
// encrypted pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/client_stack.hpp"
#include "core/config.hpp"
#include "core/server_stack.hpp"
#include "net/bus.hpp"
#include "net/reliable_channel.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {

class PisaSystem {
 public:
  /// Sets up STP (generating pk_G), SDC (with the public E matrix) and one
  /// PuClient per site, all attached to an internal simulated network.
  /// `model` and `rng` must outlive the system.
  PisaSystem(const PisaConfig& cfg, std::vector<watch::PuSite> sites,
             const radio::PathLossModel& model, bn::RandomSource& rng);

  /// Create an SU client, register its public key with STP and SDC, and
  /// optionally precompute `precompute` offline randomizer factors.
  SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0);

  /// Drive a PU tuning change through the network (Figure 4).
  void pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning);

  /// §3.9 incremental path: diff `tuning` (at the PU's current block)
  /// against its delivered footprint and ship only the changed cells.
  /// Returns false when the footprint is already current (nothing sent).
  bool pu_delta(std::uint32_t pu_id, const watch::PuTuning& tuning);

  /// Vehicular mobility: relocate the PU's receiver. Takes effect on its
  /// next pu_update / pu_delta (the delta path retracts the old block's
  /// cells automatically).
  void pu_move(std::uint32_t pu_id, std::uint32_t block) { pu(pu_id).move_to(block); }

  struct RequestOutcome {
    /// kCompleted covers both grant and deny (see `granted`);
    /// kTransportFailed means the request round could not be delivered
    /// within the reliability retry budget — `failure` says which hop gave
    /// up. Only possible outcomes: faults never hang or throw here.
    enum class Status { kCompleted, kTransportFailed };
    Status status = Status::kCompleted;
    bool completed() const { return status == Status::kCompleted; }

    bool granted = false;
    /// §3.8: denied in one round by the SDC's prefilter — no conversion
    /// round, no license. Always false when the decision was a grant, and
    /// always a decision the full pipeline would also have denied.
    bool fast_denied = false;
    LicenseBody license;
    bn::BigUint signature;
    /// Human-readable transport diagnosis when status == kTransportFailed.
    std::string failure;
    // Communication accounting for this request (Figure 6):
    std::size_t request_bytes = 0;   // SU → SDC
    std::size_t convert_bytes = 0;   // SDC → STP
    std::size_t convert_reply_bytes = 0;  // STP → SDC
    std::size_t response_bytes = 0;  // SDC → SU
    /// Virtual network time from request send to response delivery (the
    /// simulated-link latency + transfer component, excluding compute).
    double latency_us = 0;
  };

  /// Full request round trip (Figure 5). `range` narrows the disclosed
  /// block interval (the §VI-A privacy/time trade-off); nullopt = full
  /// privacy. `mode` selects the preparation strategy (fresh / pooled /
  /// hybrid, see SuClient).
  RequestOutcome su_request(
      const watch::SuRequest& request,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range = std::nullopt,
      PrepMode mode = PrepMode::kFresh);

  /// Aggregate accounting for one concurrent burst (su_request_many).
  struct MultiRequestStats {
    double prep_wall_ms = 0;   ///< building + encrypting every request (SU side)
    double serve_wall_ms = 0;  ///< wall clock of the network drain (SDC + STP)
    double makespan_us = 0;    ///< virtual time, burst send → last response
    std::size_t convert_msgs = 0;  ///< SDC→STP conversion messages (round-trips)
    std::size_t request_bytes = 0;        ///< Σ SU → SDC
    std::size_t convert_bytes = 0;        ///< Σ SDC → STP
    std::size_t convert_reply_bytes = 0;  ///< Σ STP → SDC
    std::size_t response_bytes = 0;       ///< Σ SDC → SU
  };

  /// Concurrent burst (DESIGN.md §3.5): prepare every request first, inject
  /// them all at one virtual instant, then drain the network once — so the
  /// SDC sees genuinely overlapping requests and (with convert_batch_max
  /// set) coalesces their conversion rounds. Outcomes are returned in
  /// submission order; per-outcome byte fields stay zero (the per-link
  /// totals land in `stats` instead, since concurrent transfers share the
  /// links). Byte-identical to issuing the same burst without batching: see
  /// the §3.5 determinism argument.
  std::vector<RequestOutcome> su_request_many(
      const std::vector<watch::SuRequest>& requests,
      PrepMode mode = PrepMode::kFresh, MultiRequestStats* stats = nullptr);

  /// The F matrix the request encrypts — shared with PlainWatch's pipeline.
  watch::QMatrix build_f(const watch::SuRequest& request) const;

  const PisaConfig& config() const { return cfg_; }
  double exclusion_radius() const { return d_c_m_; }
  const std::vector<watch::PuSite>& sites() const { return sites_; }
  const radio::PathLossModel& model() const { return model_; }

  net::SimulatedNetwork& network() { return net_; }
  /// The reliable transport layer, or nullptr when
  /// cfg.reliability.enabled is false (raw perfect-delivery bus).
  net::ReliableTransport* reliable_transport() { return reliable_.get(); }

  // --- crash/restart chaos harness (DESIGN.md §3.6) -------------------------
  /// Kill the SDC process: the entity object is destroyed — every byte of
  /// in-memory state (Ñ, stored W̃ columns, pending requests, the
  /// conversion batcher) is gone — and its endpoint leaves the network, so
  /// messages already in flight to it are recorded as delivery failures
  /// rather than delivered. What survives is exactly what durability wrote
  /// to cfg.durability.dir. Idempotent; no-op when already crashed.
  void crash_sdc() { stack_.crash_sdc(); }

  /// Boot a fresh SDC process: a new SdcServer is constructed (with
  /// durability on it recovers Ñ/W̃/serial state from cfg.durability.dir
  /// and reloads its persisted RSA identity), gets its threshold share and
  /// thread pool back, and re-attaches to the network under the same name.
  /// SU keys are NOT restored — the SDC re-fetches them from the STP
  /// directory on demand, the normal asynchronous key-lookup path. Requests
  /// that were in flight at crash time stay lost (their SUs see a typed
  /// transport failure); new requests proceed normally.
  SdcServer& restart_sdc() { return stack_.restart_sdc(); }

  bool sdc_running() const { return stack_.sdc_running(); }

  /// Kill a standalone PIR replica (index ≥ 1; replica 0 rides crash_sdc):
  /// endpoint removed, object destroyed. Queries in flight to it fail
  /// delivery and the issuing SU sees a typed kTransportFailed — never a
  /// hang, never a reconstruction from a partial reply set. Idempotent.
  void crash_pir_replica(std::size_t index) { stack_.crash_pir_replica(index); }

  /// Replica `index` (0 = the SDC-hosted one), or nullptr when that replica
  /// is crashed / the system is not in PIR mode.
  pir::PirServer* pir_replica(std::size_t index) { return stack_.pir_replica(index); }

  SdcServer& sdc() { return stack_.sdc(); }
  StpServer& stp() { return stack_.stp(); }
  SuClient& su(std::uint32_t su_id) { return clients_.su(su_id); }
  PuClient& pu(std::uint32_t pu_id) { return clients_.pu(pu_id); }
  ServerStack& servers() { return stack_; }
  ClientStack& clients() { return clients_; }

  /// Shared execution pool (null when cfg.num_threads == 1).
  const std::shared_ptr<exec::ThreadPool>& thread_pool() const {
    return stack_.thread_pool();
  }

 private:
  /// The message-passing layer the entities are attached to: the reliable
  /// transport when cfg.reliability.enabled, the raw bus otherwise.
  net::Transport& transport() {
    return reliable_ ? static_cast<net::Transport&>(*reliable_) : net_;
  }

  /// §3.10 query path: ClientStack::pir_request as a RequestOutcome (no
  /// license — a PIR grant is a local decision, not a signed license).
  RequestOutcome su_request_pir(std::uint32_t su_id, const watch::QMatrix& f,
                                std::uint32_t lo, std::uint32_t hi);

  /// The outcome of Paillier request `rid` once the network is quiescent:
  /// fast denial, verified response, or a typed transport failure. Latency
  /// runs from `t_send` to the response's arrival (zero when none arrived).
  RequestOutcome collect_outcome(std::uint64_t rid, std::uint32_t su_id,
                                 double t_send, std::size_t failures_before);

  /// Reliable-layer give-ups so far (0 on the raw bus): the mark a request
  /// takes before sending. fail() marks `out` kTransportFailed with `why`
  /// plus every hop that gave up after that mark.
  std::size_t failure_mark() const {
    return reliable_ ? reliable_->failures().size() : 0;
  }
  void fail(RequestOutcome& out, std::string why, std::size_t failures_before) const;

  std::vector<watch::PuSite> sites_;
  const radio::PathLossModel& model_;
  double d_c_m_;

  net::SimulatedNetwork net_;
  ServerStack stack_;
  const PisaConfig& cfg_;  // stack_.config(), validated
  std::unique_ptr<net::ReliableTransport> reliable_;
  ClientStack clients_;
};

}  // namespace pisa::core
