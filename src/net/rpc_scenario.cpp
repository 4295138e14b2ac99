#include "net/rpc_scenario.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace pisa::rpc {

TcpScenarioDriver::TcpScenarioDriver(RpcServer& server, RpcClient& client,
                                     const core::PisaConfig& cfg,
                                     std::vector<watch::PuSite> sites,
                                     const radio::PathLossModel& model,
                                     double timeout_ms)
    : server_(server),
      client_(client),
      cfg_(cfg),
      sites_(std::move(sites)),
      model_(model),
      d_c_m_(watch::exclusion_radius_m(cfg.watch, model)),
      timeout_ms_(timeout_ms) {}

void TcpScenarioDriver::pu_move(std::uint32_t pu_id, std::uint32_t block) {
  client_.pu(pu_id).move_to(block);
}

void TcpScenarioDriver::sync_server() {
  if (!server_.sdc_running()) return;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms_ * 1e3));
  // Arrival first: each fold enqueues its probe round *before* bumping the
  // counter, so once the counters cover every update we sent, one lane
  // quiesce below is enough to know those probe rounds have run too.
  for (;;) {
    if (server_.sdc().folds_applied() >= expected_updates_) break;
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error(
          "TcpScenarioDriver: timed out waiting for PU updates to fold");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  server_.transport().quiesce(timeout_ms_);
}

bool TcpScenarioDriver::pu_send(std::uint32_t pu_id,
                                const watch::PuTuning& tuning, bool use_delta) {
  bool sent = true;
  if (use_delta) {
    sent = client_.pu_delta(pu_id, tuning).has_value();
  } else {
    client_.pu_update(pu_id, tuning);
  }
  if (sent) {
    ++expected_updates_;
    sync_server();  // fold + re-probe round done before the tick proceeds
  }
  return sent;
}

core::ScenarioDriver::RequestResult TcpScenarioDriver::su_request(
    const watch::SuRequest& request, std::uint32_t range_pad) {
  const auto f = watch::build_su_f_matrix(cfg_.watch, sites_, request.block,
                                          request.eirp_mw_per_channel, model_,
                                          d_c_m_);
  const auto range = core::disclosed_range(f, request.block.index, range_pad);
  auto prepared = client_.prepare_request(request.su_id, f, range);
  client_.submit(prepared);

  RequestResult res;
  core::SuResponseMsg resp;
  bool fast = false;
  if (!client_.wait_response(prepared.request_id, &resp, timeout_ms_, &fast))
    return res;  // completed = false: transport failure / timeout
  res.completed = true;
  if (fast) {
    res.fast_denied = true;  // §3.8 one-round deny: no license, serial 0
    return res;
  }
  auto outcome =
      client_.su(request.su_id).process_response(resp, server_.license_key());
  res.granted = outcome.granted;
  res.serial = outcome.license.serial;
  return res;
}

void TcpScenarioDriver::crash_sdc() {
  sync_server();  // sim crashes on a drained network; don't strand frames
  server_.crash_sdc();
  expected_updates_ = 0;
}

void TcpScenarioDriver::restart_sdc() {
  server_.restart_sdc();
  expected_updates_ = 0;  // the fresh SdcServer's counters start at zero
}

bool TcpScenarioDriver::sdc_running() { return server_.sdc_running(); }

std::vector<std::uint8_t> TcpScenarioDriver::exhausted_state_bytes() {
  sync_server();  // post-grant budget folds re-probe after the response
  return server_.sdc().state().exhausted_state_bytes();
}
std::uint64_t TcpScenarioDriver::wal_bytes() {
  sync_server();
  return server_.sdc().state().wal_bytes();
}
std::uint64_t TcpScenarioDriver::delta_cells_folded() {
  sync_server();
  return server_.sdc().state().delta_cells_folded();
}

}  // namespace pisa::rpc
