#include "net/rpc_scenario.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace pisa::rpc {

namespace {

void settle_tcp(RpcServer& server, std::uint64_t updates, double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms * 1e3));
  // Arrival first: each fold enqueues its probe round *before* bumping the
  // counter, so once the counter covers every update sent, one lane
  // quiesce below is enough to know those probe rounds have run too.
  while (server.sdc().folds_applied() < updates) {
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error(
          "TcpScenarioDriver: timed out waiting for PU updates to fold");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  server.transport().quiesce(timeout_ms);
}

}  // namespace

TcpScenarioDriver::TcpScenarioDriver(RpcServer& server, RpcClient& client,
                                     const core::PisaConfig& cfg,
                                     std::vector<watch::PuSite> sites,
                                     const radio::PathLossModel& model,
                                     double timeout_ms)
    : StackScenarioDriver(server.servers(), client.clients(), cfg,
                          std::move(sites), model, timeout_ms,
                          [&server, timeout_ms](std::uint64_t updates) {
                            settle_tcp(server, updates, timeout_ms);
                          }) {}

}  // namespace pisa::rpc
