#include "core/server_stack.hpp"

#include <optional>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace pisa::core {

ServerStack::ServerStack(const PisaConfig& cfg, bn::RandomSource& rng)
    : cfg_(cfg), rng_(rng) {
  cfg_.validate();
  if (cfg_.num_threads > 1)
    exec_ = std::make_shared<exec::ThreadPool>(cfg_.num_threads);
  stp_ = std::make_unique<StpServer>(cfg_, rng_);
  stp_->set_thread_pool(exec_);
  sdc_ = make_sdc();
  // PirServer draws no randomness, so the replicas can come up here
  // without disturbing the keygen order.
  if (cfg_.query_mode == QueryMode::kPir) {
    auto e = watch::make_e_matrix(cfg_.watch);
    for (std::size_t i = 1; i < cfg_.pir.replicas; ++i) {
      auto srv =
          std::make_unique<pir::PirServer>(e, cfg_.pack_slots, pir::PirDurability{});
      srv->set_thread_pool(exec_);
      pir_extras_.push_back(std::move(srv));
    }
  }
}

std::unique_ptr<SdcServer> ServerStack::make_sdc() {
  auto sdc = std::make_unique<SdcServer>(cfg_, stp_->group_key(),
                                         watch::make_e_matrix(cfg_.watch), rng_);
  if (cfg_.threshold_stp) sdc->set_threshold_share(stp_->sdc_share());
  sdc->set_thread_pool(exec_);
  return sdc;
}

void ServerStack::attach(net::Transport& net) {
  net_ = &net;
  stp_->attach(net, "stp");
  sdc_->attach(net, "sdc", "stp");
  for (std::size_t i = 0; i < pir_extras_.size(); ++i)
    pir_extras_[i]->attach(net, pir::replica_name(i + 1));
}

void ServerStack::crash_sdc() {
  if (!sdc_) return;
  net_->remove_endpoint("sdc");
  if (cfg_.query_mode == QueryMode::kPir)
    net_->remove_endpoint(pir::replica_name(0));
  std::lock_guard<std::mutex> lk(idle_mu_);
  sdc_.reset();
}

SdcServer& ServerStack::restart_sdc() {
  if (sdc_) return *sdc_;
  auto sdc = make_sdc();
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    sdc_ = std::move(sdc);
  }
  sdc_->attach(*net_, "sdc", "stp");
  return *sdc_;
}

bool ServerStack::idle_step() {
  std::lock_guard<std::mutex> lk(idle_mu_);
  auto stp_need = stp_->reserves().neediest();
  auto sdc_need = sdc_ ? sdc_->reserves().neediest() : std::nullopt;
  if (!stp_need && !sdc_need) return false;
  auto& reserves = sdc_need && (!stp_need || *sdc_need < *stp_need)
                       ? sdc_->reserves()
                       : stp_->reserves();
  return reserves.step(kIdleSliceMults);
}

std::size_t ServerStack::reserved_factors() {
  std::lock_guard<std::mutex> lk(idle_mu_);
  return stp_->reserves().available() +
         (sdc_ ? sdc_->reserves().available() : 0);
}

void ServerStack::crash_pir_replica(std::size_t index) {
  if (index == 0 || index >= cfg_.pir.replicas)
    throw std::out_of_range(
        "ServerStack: crash_pir_replica needs a standalone replica index "
        "(crash replica 0 via crash_sdc)");
  auto& slot = pir_extras_.at(index - 1);
  if (!slot) return;
  net_->remove_endpoint(pir::replica_name(index));
  slot.reset();
}

pir::PirServer* ServerStack::pir_replica(std::size_t index) {
  if (cfg_.query_mode != QueryMode::kPir || index >= cfg_.pir.replicas)
    return nullptr;
  if (index == 0) return sdc_ ? sdc_->pir_server() : nullptr;
  return pir_extras_.at(index - 1).get();
}

}  // namespace pisa::core
