#include "net/rpc_server.hpp"

namespace pisa::rpc {

RpcServer::RpcServer(const core::PisaConfig& cfg, bn::RandomSource& rng,
                     net::TcpOptions opts, std::uint16_t port)
    : stack_(cfg, rng), tcp_(opts) {
  stack_.attach(tcp_);
  tcp_.set_idle_hook([this] { return stack_.idle_step(); });
  tcp_.listen(port);
}

RpcClient::RpcClient(const core::PisaConfig& cfg,
                     crypto::PaillierPublicKey group_pk, std::string host,
                     std::uint16_t port, bn::RandomSource& rng,
                     net::TcpOptions opts)
    : host_(std::move(host)), port_(port), tcp_(opts),
      clients_(cfg, std::move(group_pk), rng, tcp_, {nullptr, nullptr, nullptr, /*pin_seqs=*/true}) {
  conn_id_ = tcp_.connect(host_, port_, route_names());
}

std::vector<std::string> RpcClient::route_names() const {
  const auto& cfg = clients_.config();
  std::vector<std::string> names{"sdc", "stp"};
  if (cfg.query_mode == core::QueryMode::kPir)
    for (std::size_t i = 0; i < cfg.pir.replicas; ++i)
      names.push_back(pir::replica_name(i));
  return names;
}

RpcClient::PuUpdateHandle RpcClient::pu_update(std::uint32_t pu_id,
                                               const watch::PuTuning& tuning) {
  auto m = *clients_.send_pu(pu_id, tuning, /*delta=*/false);
  return {pu_id, m.net_seq, std::move(m.payload)};
}

std::optional<RpcClient::PuUpdateHandle> RpcClient::pu_delta(
    std::uint32_t pu_id, const watch::PuTuning& tuning) {
  auto m = clients_.send_pu(pu_id, tuning, /*delta=*/true);
  if (!m) return std::nullopt;
  return PuUpdateHandle{pu_id, m->net_seq, std::move(m->payload)};
}

void RpcClient::send_pinned(const PuUpdateHandle& handle, const std::string& type) {
  // Pinned seq: transport-level duplicates dedup at the SDC. For deltas the
  // engine's per-PU delta_seq additionally folds each delta exactly once
  // even when a crash tore a partial application (shards re-check their
  // own applied seq).
  tcp_.send({core::ClientStack::pu_name(handle.pu_id), "sdc", type, handle.bytes,
             handle.net_seq});
}

bool RpcClient::wait_response(std::uint64_t request_id,
                              core::SuResponseMsg* out, double timeout_ms,
                              bool* fast_denied) {
  core::ClientStack::Reply reply;
  const bool done = clients_.take(request_id, timeout_ms, &reply);
  if (fast_denied != nullptr) *fast_denied = done && reply.fast_denied;
  if (done && out != nullptr && reply.response) *out = std::move(*reply.response);
  return done;
}

void RpcClient::reconnect() {
  tcp_.close_connection(conn_id_);
  conn_id_ = tcp_.connect(host_, port_, route_names());
}

}  // namespace pisa::rpc
