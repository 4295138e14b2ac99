#include "core/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace pisa::core {

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::unique_ptr<net::ReliableTransport> make_reliable(const ReliabilityConfig& r,
                                                     net::SimulatedNetwork& net) {
  if (!r.enabled) return nullptr;
  return std::make_unique<net::ReliableTransport>(
      net, net::ReliablePolicy{r.max_retries, r.timeout_us, r.backoff, r.dedup_window});
}

}  // namespace

PisaSystem::PisaSystem(const PisaConfig& cfg, std::vector<watch::PuSite> sites,
                       const radio::PathLossModel& model, bn::RandomSource& rng)
    : sites_(std::move(sites)), model_(model),
      d_c_m_(watch::exclusion_radius_m(cfg.watch, model)), stack_(cfg, rng),
      cfg_(stack_.config()), reliable_(make_reliable(cfg_.reliability, net_)),
      clients_(cfg_, stack_.stp().group_key(), rng, transport(),
               {stack_.thread_pool(), [this] { net_.run(); },
                [this] { return net_.now_us(); }, false}) {
  stack_.attach(transport());
  for (const auto& site : sites_) clients_.add_pu(site);
}

SuClient& PisaSystem::add_su(std::uint32_t su_id, std::size_t precompute) {
  auto& client = clients_.add_su(su_id, precompute);
  net_.run();
  return client;
}

void PisaSystem::pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning) {
  clients_.send_pu(pu_id, tuning, /*delta=*/false);
  net_.run();
}

bool PisaSystem::pu_delta(std::uint32_t pu_id, const watch::PuTuning& tuning) {
  if (!clients_.send_pu(pu_id, tuning, /*delta=*/true)) return false;
  net_.run();
  return true;
}

watch::QMatrix PisaSystem::build_f(const watch::SuRequest& request) const {
  return watch::build_su_f_matrix(cfg_.watch, sites_, request.block,
                                  request.eirp_mw_per_channel, model_, d_c_m_);
}

PisaSystem::RequestOutcome PisaSystem::su_request(
    const watch::SuRequest& request,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range, PrepMode mode) {
  auto f = build_f(request);
  if (cfg_.query_mode == QueryMode::kPir)
    return su_request_pir(request.su_id, f, range ? range->first : 0,
                          range ? range->second
                                : static_cast<std::uint32_t>(f.blocks()));
  auto p = clients_.prepare_request(request.su_id, f, range, mode);

  const auto name = ClientStack::su_name(request.su_id);
  auto su_sdc_before = net_.stats(name, "sdc").bytes;
  auto sdc_stp_before = net_.stats("sdc", "stp").bytes;
  auto stp_sdc_before = net_.stats("stp", "sdc").bytes;
  auto sdc_su_before = net_.stats("sdc", name).bytes;

  std::size_t failures_before = failure_mark();
  double t_send = net_.now_us();
  clients_.submit(p);
  net_.run();
  double t_done = net_.now_us();
  // Off-path pool maintenance: top the STP's always-warm pools back up
  // between requests so the next conversion hits precomputed factors.
  stp().maintain_pools();

  auto out = collect_outcome(p.request_id, request.su_id, t_send, failures_before);
  if (!out.completed()) out.latency_us = t_done - t_send;
  out.request_bytes = net_.stats(name, "sdc").bytes - su_sdc_before;
  out.convert_bytes = net_.stats("sdc", "stp").bytes - sdc_stp_before;
  out.convert_reply_bytes = net_.stats("stp", "sdc").bytes - stp_sdc_before;
  out.response_bytes = net_.stats("sdc", name).bytes - sdc_su_before;
  return out;
}

PisaSystem::RequestOutcome PisaSystem::collect_outcome(
    std::uint64_t rid, std::uint32_t su_id, double t_send,
    std::size_t failures_before) {
  RequestOutcome out;
  ClientStack::Reply reply;
  if (!clients_.take(rid, 0, &reply)) {
    // Graceful degradation: retries are bounded, so a quiescent network
    // with no response means some hop exhausted its budget (or an endpoint
    // vanished). Report a typed failure instead of hanging or throwing.
    fail(out, "no response delivered", failures_before);
    return out;
  }
  // Measure to response arrival, not to quiescence: trailing
  // retransmission timers would otherwise inflate the latency.
  out.latency_us = reply.done_us - t_send;
  if (reply.fast_denied) {
    // §3.8 prefilter denial: no SuResponseMsg exists for this rid.
    out.fast_denied = true;
    out.granted = su(su_id).process_fast_deny(FastDenyMsg{rid}).granted;
    return out;
  }
  auto outcome = su(su_id).process_response(*reply.response, sdc().license_key());
  out.granted = outcome.granted;
  out.license = outcome.license;
  out.signature = outcome.signature;
  return out;
}

void PisaSystem::fail(RequestOutcome& out, std::string why,
                      std::size_t failures_before) const {
  out.status = RequestOutcome::Status::kTransportFailed;
  out.failure = std::move(why);
  if (!reliable_) return;
  const auto& fails = reliable_->failures();
  for (std::size_t i = failures_before; i < fails.size(); ++i) {
    const auto& f = fails[i];
    out.failure += "; gave up on " + f.type + " " + f.from + "->" + f.to +
                   " seq " + std::to_string(f.seq) + " after " +
                   std::to_string(f.attempts) + " attempts";
  }
}

PisaSystem::RequestOutcome PisaSystem::su_request_pir(std::uint32_t su_id,
                                                      const watch::QMatrix& f,
                                                      std::uint32_t lo,
                                                      std::uint32_t hi) {
  const auto name = ClientStack::su_name(su_id);
  auto link_bytes = [&](bool up) {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < cfg_.pir.replicas; ++i)
      sum += up ? net_.stats(name, pir::replica_name(i)).bytes
                : net_.stats(pir::replica_name(i), name).bytes;
    return sum;
  };
  const auto up_before = link_bytes(true), down_before = link_bytes(false);
  std::size_t failures_before = failure_mark();

  double t_send = net_.now_us();
  auto pir_out = clients_.pir_request(su_id, f, lo, hi, 0);
  RequestOutcome out;
  out.request_bytes = link_bytes(true) - up_before;
  out.response_bytes = link_bytes(false) - down_before;
  // To the last reply's arrival; to quiescence when the set never completed.
  out.latency_us = (pir_out.done_us > 0 ? pir_out.done_us : net_.now_us()) - t_send;
  if (!pir_out.completed)
    fail(out, std::move(pir_out.failure), failures_before);
  out.granted = pir_out.granted;
  return out;
}

std::vector<PisaSystem::RequestOutcome> PisaSystem::su_request_many(
    const std::vector<watch::SuRequest>& requests, PrepMode mode,
    MultiRequestStats* stats) {
  if (cfg_.query_mode == QueryMode::kPir) {
    // No conversion round to coalesce and no modexp-heavy preparation: the
    // burst degenerates to sequential full-range queries.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<RequestOutcome> outs;
    outs.reserve(requests.size());
    MultiRequestStats agg;
    for (const auto& r : requests) {
      auto out = su_request(r);
      agg.request_bytes += out.request_bytes;
      agg.response_bytes += out.response_bytes;
      agg.makespan_us += out.latency_us;
      outs.push_back(std::move(out));
    }
    agg.serve_wall_ms = wall_ms_since(t0);
    if (stats != nullptr) *stats = agg;
    return outs;
  }
  // Phase A (SU side, independent parties): every request is built and
  // encrypted before anything is sent — the burst then lands on the SDC at
  // one virtual instant, in submission order (equal sizes, FIFO tiebreak).
  auto t_prep = std::chrono::steady_clock::now();
  std::vector<ClientStack::PreparedRequest> prepared;
  prepared.reserve(requests.size());
  for (const auto& r : requests)
    prepared.push_back(
        clients_.prepare_request(r.su_id, build_f(r), std::nullopt, mode));
  double prep_ms = wall_ms_since(t_prep);

  const auto& stp_log = net_.audit_log("stp");
  std::size_t stp_log_before = stp_log.size();
  auto sdc_stp_before = net_.stats("sdc", "stp").bytes;
  auto stp_sdc_before = net_.stats("stp", "sdc").bytes;
  auto su_bytes = [&](bool up) {
    std::size_t sum = 0;
    for (const auto& p : prepared) {
      const auto name = ClientStack::su_name(p.su_id);
      sum += up ? net_.stats(name, "sdc").bytes : net_.stats("sdc", name).bytes;
    }
    return sum;
  };
  const auto req_bytes_before = su_bytes(true), resp_bytes_before = su_bytes(false);
  std::size_t failures_before = failure_mark();

  double t_send = net_.now_us();
  for (const auto& p : prepared) clients_.submit(p);
  auto t_serve = std::chrono::steady_clock::now();
  net_.run();
  double serve_ms = wall_ms_since(t_serve);
  stp().maintain_pools();

  std::vector<RequestOutcome> outs;
  outs.reserve(prepared.size());
  // Response arrivals, not now_us(): trailing watchdog/retransmission
  // timers fire long after the last response and must not count.
  double makespan_us = 0;
  for (const auto& p : prepared) {
    outs.push_back(collect_outcome(p.request_id, p.su_id, t_send, failures_before));
    makespan_us = std::max(makespan_us, outs.back().latency_us);
  }

  if (stats != nullptr) {
    stats->prep_wall_ms = prep_ms;
    stats->serve_wall_ms = serve_ms;
    stats->makespan_us = makespan_us;
    stats->convert_msgs = 0;
    for (std::size_t i = stp_log_before; i < stp_log.size(); ++i) {
      const auto& rec = stp_log[i];
      if (rec.type == kMsgConvertRequest || rec.type == kMsgConvertBatch)
        ++stats->convert_msgs;
    }
    stats->convert_bytes = net_.stats("sdc", "stp").bytes - sdc_stp_before;
    stats->convert_reply_bytes = net_.stats("stp", "sdc").bytes - stp_sdc_before;
    stats->request_bytes = su_bytes(true) - req_bytes_before;
    stats->response_bytes = su_bytes(false) - resp_bytes_before;
  }
  return outs;
}

}  // namespace pisa::core
