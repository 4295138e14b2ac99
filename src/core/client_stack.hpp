// The client side of one PISA deployment (DESIGN.md §3.7).
//
// ClientStack mirrors ServerStack: it is the single place that builds the
// SU, PU and PIR client objects, each from the deployment rng at its
// add_su / add_pu call (so identically seeded stacks making the same calls
// hold the same keys and streams). Every SU endpoint feeds one response
// registry keyed by request id — Paillier responses, §3.8 fast denies and
// §3.10 PIR replies alike — with one arrival hook. The stack uploads pk_j,
// builds and sends PU updates and deltas with their PIR columns, and
// prepares SU requests. PisaSystem (simulated network) and rpc::RpcClient
// (TCP) each own one over their transport.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/pu_client.hpp"
#include "core/su_client.hpp"
#include "net/bus.hpp"
#include "pir/pir_client.hpp"
#include "watch/config.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {

class ClientStack {
 public:
  struct Options {
    /// Handed to every SU and PU client (null = run on the caller).
    std::shared_ptr<exec::ThreadPool> pool;
    /// Runs the transport until quiescent (the simulated network). take()
    /// calls it and then looks without waiting. Leave it empty when a
    /// transport thread delivers on its own (TCP): take() then waits.
    std::function<void()> drain;
    /// Stamps each request's completion time into its Reply (the simulated
    /// network's virtual time); empty = no stamps.
    std::function<double()> clock;
    /// Give every PU frame its own net_seq, so the identical frame can be
    /// re-sent and the receivers' DedupWindow applies it once (TCP).
    bool pin_seqs = false;
  };

  /// `net` and `rng` must outlive the stack; `group_pk` is pk_G.
  ClientStack(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
              bn::RandomSource& rng, net::Transport& net, Options opts);

  /// Build an SU client, register "su_<id>" as a registry endpoint, upload
  /// pk_j to the STP (paper §III-C; the SDC fetches it from the STP's
  /// directory on demand), precompute `precompute` offline r^n factors and,
  /// in PIR mode, build the SU's PirClient.
  SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0);

  /// Build a PU client for `site` with the full public E matrix (a mobile
  /// receiver recomputes w = T − E anywhere) and register "pu_<id>" for
  /// the reliable transport's ACKs.
  PuClient& add_pu(const watch::PuSite& site);

  SuClient& su(std::uint32_t su_id);
  PuClient& pu(std::uint32_t pu_id);
  const PisaConfig& config() const { return cfg_; }

  /// Build `pu_id`'s full W̃ column (Figure 4) or, with `delta`, its §3.9
  /// footprint diff, and send it to the SDC; in PIR mode also send the PU's
  /// plaintext column to every replica (they diff it against their stored
  /// copy). Returns the SDC-bound frame as sent, or nullopt when a delta
  /// found the footprint current and nothing was sent.
  std::optional<net::Message> send_pu(std::uint32_t pu_id,
                                      const watch::PuTuning& tuning, bool delta);

  /// An encrypted request, built off the clock.
  struct PreparedRequest {
    std::uint64_t request_id = 0;
    std::uint32_t su_id = 0;
    std::vector<std::uint8_t> bytes;
  };
  /// Encrypt F for the disclosed block range [lo, hi) (nullopt = every
  /// block) under a fresh request id.
  PreparedRequest prepare_request(
      std::uint32_t su_id, const watch::QMatrix& f,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range = std::nullopt,
      PrepMode mode = PrepMode::kFresh);
  /// Send a prepared request to the SDC (the handle stays valid to re-send).
  void submit(const PreparedRequest& req);

  /// Everything the registry holds for one request id.
  struct Reply {
    std::optional<SuResponseMsg> response;
    bool fast_denied = false;  ///< §3.8 one-round denial (no response)
    std::vector<pir::PirReplyMsg> pir;
    std::size_t bytes = 0;  ///< Σ payload bytes received
    double done_us = 0;     ///< completion time by Options::clock
  };
  /// Wait up to `timeout_ms` for request `rid` to complete (its response,
  /// its fast deny or all ℓ PIR replies), then move whatever arrived for it
  /// into `*out` (may be null; untouched when nothing arrived) and forget
  /// it. Returns false when it did not complete — `*out` then holds a
  /// partial PIR reply set, if any.
  bool take(std::uint64_t rid, double timeout_ms, Reply* out);

  /// Called on the delivering thread each time a request completes,
  /// before any take() waiter wakes. Set it before traffic starts.
  void set_arrival_hook(std::function<void(std::uint64_t)> hook) {
    on_arrival_ = std::move(hook);
  }

  /// §3.10 round trip: split the fetch of [lo, hi) into XOR shares, send
  /// one query per replica, take the replies (waiting up to `timeout_ms`)
  /// and decide locally against `f`.
  struct PirOutcome {
    /// False when the reply set never completed or the replicas' versions
    /// diverged (`failure` says which); `granted` counts only when true.
    bool completed = false;
    bool granted = false;
    std::string failure;
    double done_us = 0;  ///< Reply::done_us; 0 when the set never completed
    std::size_t query_bytes = 0;  ///< Σ encoded queries (SU → replicas)
    std::size_t reply_bytes = 0;  ///< Σ encoded replies (replicas → SU)
  };
  PirOutcome pir_request(std::uint32_t su_id, const watch::QMatrix& f,
                         std::uint32_t lo, std::uint32_t hi, double timeout_ms);

  static std::string su_name(std::uint32_t id) { return "su_" + std::to_string(id); }
  static std::string pu_name(std::uint32_t id) { return "pu_" + std::to_string(id); }

 private:
  void on_reply(const net::Message& msg);
  bool complete(const Reply& r) const;

  PisaConfig cfg_;
  crypto::PaillierPublicKey group_pk_;
  bn::RandomSource& rng_;
  net::Transport& net_;
  Options opts_;
  watch::QMatrix e_matrix_;

  std::map<std::uint32_t, std::unique_ptr<SuClient>> sus_;
  std::map<std::uint32_t, std::unique_ptr<PuClient>> pus_;
  std::map<std::uint32_t, std::unique_ptr<pir::PirClient>> pir_clients_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_pin_seq_ = 1;

  std::mutex mu_;  // guards replies_ against the delivering thread
  std::condition_variable cv_;
  std::map<std::uint64_t, Reply> replies_;
  std::function<void(std::uint64_t)> on_arrival_;
};

}  // namespace pisa::core
