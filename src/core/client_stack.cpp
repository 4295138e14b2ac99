#include "core/client_stack.hpp"

#include <chrono>
#include <stdexcept>

#include "crypto/key_codec.hpp"

namespace pisa::core {

namespace {

template <class Map>
auto& find_client(Map& clients, std::uint32_t id) {
  auto it = clients.find(id);
  if (it == clients.end()) throw std::out_of_range("ClientStack: unknown client id");
  return *it->second;
}

}  // namespace

ClientStack::ClientStack(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
                         bn::RandomSource& rng, net::Transport& net, Options opts)
    : cfg_(cfg), group_pk_(std::move(group_pk)), rng_(rng), net_(net),
      opts_(std::move(opts)), e_matrix_(watch::make_e_matrix(cfg.watch)) {}

SuClient& ClientStack::add_su(std::uint32_t su_id, std::size_t precompute) {
  if (sus_.contains(su_id))
    throw std::invalid_argument("ClientStack: duplicate SU id");
  auto client = std::make_unique<SuClient>(su_id, cfg_, group_pk_, rng_);
  client->set_thread_pool(opts_.pool);
  // The endpoint must exist before the key upload: under the reliable
  // transport the STP's ACK comes back to it.
  net_.register_endpoint(su_name(su_id),
                         [this](const net::Message& msg) { on_reply(msg); });
  KeyRegisterMsg reg{su_id, crypto::serialize(client->public_key())};
  net_.send({su_name(su_id), "stp", kMsgKeyRegister, reg.encode()});
  if (precompute > 0) client->precompute_randomizers(precompute);
  if (cfg_.query_mode == QueryMode::kPir)
    pir_clients_.emplace(su_id, std::make_unique<pir::PirClient>(
                                    su_id, cfg_.pir.replicas,
                                    cfg_.watch.make_area().num_blocks(), rng_));
  return *sus_.emplace(su_id, std::move(client)).first->second;
}

PuClient& ClientStack::add_pu(const watch::PuSite& site) {
  if (pus_.contains(site.pu_id))
    throw std::invalid_argument("ClientStack: duplicate PU id");
  auto client = std::make_unique<PuClient>(site, cfg_, group_pk_, e_matrix_, rng_);
  client->set_thread_pool(opts_.pool);
  net_.register_endpoint(pu_name(site.pu_id), [](const net::Message& msg) {
    throw std::runtime_error("PU endpoint: unexpected message " + msg.type);
  });
  return *pus_.emplace(site.pu_id, std::move(client)).first->second;
}

SuClient& ClientStack::su(std::uint32_t su_id) { return find_client(sus_, su_id); }
PuClient& ClientStack::pu(std::uint32_t pu_id) { return find_client(pus_, pu_id); }

std::optional<net::Message> ClientStack::send_pu(std::uint32_t pu_id,
                                                 const watch::PuTuning& tuning,
                                                 bool delta) {
  auto& client = pu(pu_id);
  net::Message m{pu_name(pu_id), "sdc", delta ? kMsgPuDelta : kMsgPuUpdate, {}};
  if (delta) {
    auto msg = client.make_delta(tuning);
    if (!msg) return std::nullopt;
    m.payload = msg->encode(group_pk_.ciphertext_bytes());
  } else {
    m.payload = client.make_update(tuning).encode(group_pk_.ciphertext_bytes());
  }
  if (opts_.pin_seqs) m.net_seq = next_pin_seq_++;
  net_.send(m);
  // make_pir_update is const and draws nothing, so building the column
  // after the footprint commit gives the same bytes.
  if (cfg_.query_mode == QueryMode::kPir) {
    auto bytes = client.make_pir_update(tuning).encode();
    for (std::size_t i = 0; i < cfg_.pir.replicas; ++i)
      net_.send({m.from, pir::replica_name(i), pir::kMsgPirUpdate, bytes,
                 opts_.pin_seqs ? next_pin_seq_++ : 0});
  }
  return m;
}

ClientStack::PreparedRequest ClientStack::prepare_request(
    std::uint32_t su_id, const watch::QMatrix& f,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range, PrepMode mode) {
  PreparedRequest p{next_request_id_++, su_id, {}};
  const auto [lo, hi] =
      range.value_or(std::pair{0u, static_cast<std::uint32_t>(f.blocks())});
  p.bytes = su(su_id).prepare_request(f, p.request_id, lo, hi, mode)
                .encode(group_pk_.ciphertext_bytes());
  return p;
}

void ClientStack::submit(const PreparedRequest& req) {
  net_.send({su_name(req.su_id), "sdc", kMsgSuRequest, req.bytes});
}

void ClientStack::on_reply(const net::Message& msg) {
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t rid = 0;
  if (msg.type == kMsgSuResponse) {
    auto resp = SuResponseMsg::decode(msg.payload);
    rid = resp.request_id;
    replies_[rid].response = std::move(resp);
  } else if (msg.type == kMsgFastDeny) {
    // decode() validates the fixed-size zero pad (leakage discipline).
    rid = FastDenyMsg::decode(msg.payload).request_id;
    replies_[rid].fast_denied = true;
  } else if (msg.type == pir::kMsgPirReply) {
    auto reply = pir::PirReplyMsg::decode(msg.payload);
    rid = reply.request_id;
    replies_[rid].pir.push_back(std::move(reply));
  } else {
    throw std::runtime_error("SU endpoint: unexpected message " + msg.type);
  }
  auto& r = replies_[rid];
  r.bytes += msg.payload.size();
  const bool done = complete(r);
  if (done && opts_.clock) r.done_us = opts_.clock();
  lk.unlock();
  // Hook before notify: a waiter that wakes for this id sees whatever the
  // hook recorded (a completion timestamp).
  if (done && on_arrival_) on_arrival_(rid);
  cv_.notify_all();
}

bool ClientStack::complete(const Reply& r) const {
  return r.response || r.fast_denied || r.pir.size() >= cfg_.pir.replicas;
}

bool ClientStack::take(std::uint64_t rid, double timeout_ms, Reply* out) {
  if (opts_.drain) {
    opts_.drain();
    timeout_ms = 0;
  }
  std::unique_lock<std::mutex> lk(mu_);
  const bool done = cv_.wait_for(
      lk, std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms * 1e3)),
      [&] {
        auto it = replies_.find(rid);
        return it != replies_.end() && complete(it->second);
      });
  // Only a PIR reply set can be partial: a Paillier request that timed out
  // has nothing here yet.
  auto node = replies_.extract(rid);
  if (node && out != nullptr) *out = std::move(node.mapped());
  return done;
}

ClientStack::PirOutcome ClientStack::pir_request(std::uint32_t su_id,
                                                 const watch::QMatrix& f,
                                                 std::uint32_t lo, std::uint32_t hi,
                                                 double timeout_ms) {
  auto& client = find_client(pir_clients_, su_id);
  PirOutcome out;
  const std::uint64_t rid = next_request_id_++;
  auto queries = client.make_queries(rid, lo, hi);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto bytes = queries[i].encode();
    out.query_bytes += bytes.size();
    net_.send({su_name(su_id), pir::replica_name(i), pir::kMsgPirQuery,
               std::move(bytes)});
  }
  Reply r;
  const bool done = take(rid, timeout_ms, &r);
  out.reply_bytes = r.bytes;
  out.done_us = r.done_us;
  if (!done) {
    // A replica vanished or its retry budget ran out: XOR reconstruction
    // from ℓ−1 shares is garbage, so this is a typed failure — never a
    // wrong answer, never a hang.
    out.failure = "got " + std::to_string(r.pir.size()) + "/" +
                  std::to_string(cfg_.pir.replicas) + " PIR replies";
    return out;
  }
  // Version/shape divergence across replicas refuses the reconstruction.
  auto decision = client.decide(r.pir, cfg_.watch, f, lo, &out.failure);
  out.completed = decision.has_value();
  out.granted = decision && decision->granted;
  return out;
}

}  // namespace pisa::core
