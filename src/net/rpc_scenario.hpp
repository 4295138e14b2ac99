// TCP driver for the §3.9 scenario engine: the one core::StackScenarioDriver
// over an RpcServer's ServerStack and an RpcClient's ClientStack, with
// TCP's own settle step. A PU frame is folded (and its §3.8 re-probe round
// run on the same serial lane) at the server's pace, so to match the sim's
// drained network the settle step polls the SDC's fold counter until every
// update sent since its boot arrived, then quiesces the dispatch lane once.
// Requests take no barrier: a quiesce pauses the lane's idle reserve
// slices, so an extra one would eat the idle time the reserves fill in.
#pragma once

#include <vector>

#include "core/scenario_engine.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/matrices.hpp"

namespace pisa::rpc {

class TcpScenarioDriver final : public core::StackScenarioDriver {
 public:
  /// `sites` must be the receiver registrations the deployment was built
  /// with; `model` must outlive the driver. Every SU/PU the engine touches
  /// must already be added to `client`. A settle that waits longer than
  /// `timeout_ms` throws; a request that does, fails.
  TcpScenarioDriver(RpcServer& server, RpcClient& client,
                    const core::PisaConfig& cfg,
                    std::vector<watch::PuSite> sites,
                    const radio::PathLossModel& model,
                    double timeout_ms = 60'000.0);
};

}  // namespace pisa::rpc
