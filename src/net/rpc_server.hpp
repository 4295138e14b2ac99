// Async RPC serving front-end over the TCP transport (DESIGN.md §3.7).
//
// RpcServer hosts the server side of a deployment — one core::ServerStack
// (StpServer, SdcServer, the PIR replicas) — behind one TcpTransport
// listener. Frames arriving from any connection are dispatched serially
// into the entities' existing attach() handlers (the same ones the
// simulated network drives), so the whole Figure 4/5 protocol logic is
// reused verbatim; the entities fan work out on the shared exec::ThreadPool
// internally, which is what makes the front-end async: the I/O thread keeps
// accepting and reading while a request is deep in a Paillier pipeline.
// SDC↔STP conversion traffic stays in-process (both endpoints are local to
// the transport, so it rides the dispatch lane without touching a socket),
// exactly like the co-located deployment the paper's Figure 6 accounting
// assumes.
//
// PisaSystem assembles its servers through the same ServerStack, so a
// PisaSystem built from an identically-seeded rng is a bit-exact oracle for
// this server by construction: same group key, same RSA license key, same
// per-entity ChaCha streams.
//
// RpcClient is the matching client side: one client TcpTransport
// multiplexing every logical session over a single connection, under one
// core::ClientStack — the same SU/PU/PIR client assembly and response
// registry PisaSystem owns — plus the re-send handles (pinned net_seq)
// that turn TCP's at-most-once-across-resets into application-level
// exactly-once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/client_stack.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/server_stack.hpp"
#include "net/tcp_transport.hpp"
#include "watch/matrices.hpp"

namespace pisa::rpc {

class RpcServer {
 public:
  /// Build the ServerStack from `rng`, attach it to a fresh TcpTransport,
  /// give the dispatch lane's idle time to ServerStack::idle_step and start
  /// listening on 127.0.0.1:`port` (0 = ephemeral; read the bound port back
  /// with port()).
  explicit RpcServer(const core::PisaConfig& cfg, bn::RandomSource& rng,
                     net::TcpOptions opts = {}, std::uint16_t port = 0);
  /// Stops the transport first: no handler may run while the entities die.
  ~RpcServer() { tcp_.stop(); }

  std::uint16_t port() const { return tcp_.port(); }

  const crypto::PaillierPublicKey& group_key() const {
    return stack_.stp().group_key();
  }
  const crypto::RsaPublicKey& license_key() const {
    return stack_.sdc().license_key();
  }

  core::SdcServer& sdc() { return stack_.sdc(); }
  core::StpServer& stp() { return stack_.stp(); }
  bool sdc_running() const { return stack_.sdc_running(); }

  /// §3.6 restart semantics on the socket path (ServerStack::crash_sdc):
  /// in-flight frames to "sdc" become delivery failures, never late
  /// deliveries.
  void crash_sdc() { stack_.crash_sdc(); }
  core::SdcServer& restart_sdc() { return stack_.restart_sdc(); }

  /// §3.10: replica `index` (0 = SDC-hosted), or nullptr when crashed /
  /// not in PIR mode.
  pir::PirServer* pir_replica(std::size_t index) { return stack_.pir_replica(index); }

  /// Kill a standalone replica (index ≥ 1). A query in flight to it times
  /// out at the client — typed, never a partial reconstruction. Idempotent.
  void crash_pir_replica(std::size_t index) { stack_.crash_pir_replica(index); }

  /// Randomizer factors the dispatch lane's idle slices have queued
  /// (ServerStack::reserved_factors). Read it with the lane quiesced.
  std::size_t reserved_factors() { return stack_.reserved_factors(); }

  net::TcpTransport& transport() { return tcp_; }
  core::ServerStack& servers() { return stack_; }

 private:
  core::ServerStack stack_;
  net::TcpTransport tcp_;
};

class RpcClient {
 public:
  /// Connect to an RpcServer and route "sdc"/"stp" over one multiplexed
  /// connection. `group_pk` is pk_G (retrieved from the STP out of band in
  /// the paper; handed over directly here). `rng` feeds SU/PU keygen and
  /// request randomness — seed it like the oracle world's master rng and
  /// make the same call sequence to get byte-identical traffic.
  RpcClient(const core::PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
            std::string host, std::uint16_t port, bn::RandomSource& rng,
            net::TcpOptions opts = {});
  /// Stops the transport first: the dispatch thread's SU handlers use the
  /// stack's response registry, which must outlive every handler call.
  ~RpcClient() { tcp_.stop(); }

  /// ClientStack::add_su / add_pu over the socket. An SU's key-registration
  /// frame precedes its requests on the one connection, so FIFO ordering
  /// makes the directory entry visible before first use.
  core::SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0) {
    return clients_.add_su(su_id, precompute);
  }
  core::PuClient& add_pu(const watch::PuSite& site) { return clients_.add_pu(site); }

  core::SuClient& su(std::uint32_t su_id) { return clients_.su(su_id); }
  core::PuClient& pu(std::uint32_t pu_id) { return clients_.pu(pu_id); }

  /// One PU tuning update, sent with a pinned net_seq so the exact frame
  /// can be re-sent after a connection reset: the SDC's (sender, seq)
  /// DedupWindow folds it into Ñ exactly once no matter how many copies
  /// arrive (PR 2 discipline; the chaos suite pins this).
  struct PuUpdateHandle {
    std::uint32_t pu_id = 0;
    std::uint64_t net_seq = 0;
    std::vector<std::uint8_t> bytes;
  };
  PuUpdateHandle pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning);
  void resend_pu_update(const PuUpdateHandle& handle) {
    send_pinned(handle, core::kMsgPuUpdate);
  }

  /// §3.9 incremental update over the socket, with the same pinned-seq
  /// re-send discipline as pu_update. Returns nullopt (nothing sent) when
  /// the PU's delivered footprint already matches `tuning`.
  std::optional<PuUpdateHandle> pu_delta(std::uint32_t pu_id,
                                         const watch::PuTuning& tuning);
  void resend_pu_delta(const PuUpdateHandle& handle) {
    send_pinned(handle, core::kMsgPuDelta);
  }

  /// An encrypted request, built off the clock: benches prepare every
  /// session's request first, then pour the whole burst down the pipe.
  using PreparedRequest = core::ClientStack::PreparedRequest;
  PreparedRequest prepare_request(
      std::uint32_t su_id, const watch::QMatrix& f,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range =
          std::nullopt,
      core::PrepMode mode = core::PrepMode::kFresh) {
    return clients_.prepare_request(su_id, f, range, mode);
  }

  /// Fire one prepared request at the SDC (does not consume the handle —
  /// re-submitting the same bytes after a reset is the retry path; the SDC
  /// drops duplicate request ids while the original is still pending and
  /// re-serves completed ones with a fresh serial).
  void submit(const PreparedRequest& req) { clients_.submit(req); }

  /// Block until the response for `request_id` arrives (dispatch thread
  /// fills the registry) or `timeout_ms` passes. Returns false on timeout.
  /// A §3.8 prefilter denial also completes the wait: `*fast_denied` is set
  /// true (when the pointer is given) and `*out` is left untouched — there
  /// is no SuResponseMsg for a fast-denied request, just the 32-byte
  /// FastDenyMsg the dispatch thread already validated.
  bool wait_response(std::uint64_t request_id, core::SuResponseMsg* out,
                     double timeout_ms, bool* fast_denied = nullptr);

  /// Completion probe for load generators (the registry's arrival hook):
  /// called on the dispatch thread as each request completes, before any
  /// wait_response waiter wakes, so completion timestamps are exact even
  /// when waiters drain lazily. Set it before traffic starts.
  void set_response_hook(std::function<void(std::uint64_t)> hook) {
    clients_.set_arrival_hook(std::move(hook));
  }

  /// §3.10 PIR round trip over the socket (ClientStack::pir_request): XOR
  /// shares to every replica, wait for all ℓ replies (or `timeout_ms`),
  /// reconstruct and decide locally against `f`.
  using PirOutcome = core::ClientStack::PirOutcome;
  PirOutcome pir_request(std::uint32_t su_id, const watch::QMatrix& f,
                         std::uint32_t block_lo, std::uint32_t block_hi,
                         double timeout_ms) {
    return clients_.pir_request(su_id, f, block_lo, block_hi, timeout_ms);
  }

  /// Tear the connection down mid-session and dial again (reset
  /// simulation). Unflushed frames on the old connection are dropped —
  /// at-most-once — and the re-send helpers above restore exactly-once.
  void reconnect();

  net::TcpTransport& transport() { return tcp_; }
  core::ClientStack& clients() { return clients_; }

 private:
  /// Logical peers multiplexed over the one connection: sdc + stp, plus
  /// every PIR replica in PIR mode.
  std::vector<std::string> route_names() const;

  /// Re-send a PU frame under its pinned net_seq.
  void send_pinned(const PuUpdateHandle& handle, const std::string& type);

  std::string host_;
  std::uint16_t port_;
  net::TcpTransport tcp_;
  std::uint64_t conn_id_ = 0;
  core::ClientStack clients_;  // after tcp_: its handlers run on tcp_
};

}  // namespace pisa::rpc
