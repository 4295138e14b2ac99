// Workload `spectrum-churn`: the seeded §3.9 scenario (SU mobility, channel
// churn, PU moves and power toggles, license expiry and revocation) driven
// tick by tick over TCP by core::ScenarioEngine and rpc::TcpScenarioDriver,
// with delta updates, the prefilter and WAL + snapshot durability on. PU
// writes (delta encryption, fold, WAL journal, re-probe decryptions) and SU
// reads share the SDC state engine and the dispatch lane.
//
// A bench-side ScenarioDriver decorator sits between the engine and the TCP
// driver. It times every PU send and SU request, marks tick boundaries, and
// logs the PU events and requests in order so the plaintext oracle can
// replay them after the run. It issues PU deltas and SU requests itself, so
// that RpcClient::pu_delta gets its own span and every license is kept for
// the signature check; moves and state reads go through the TCP driver.
#include <map>
#include <memory>

#include "core/scenario_engine.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/rpc_scenario.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_sdc.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pisa;

/// Ticks per measured second on a 4-core AVX-512 IFMA host; the schedule
/// length (and with it the PU randomizer pools) is fixed from --seconds.
constexpr double kTicksPerSecond = 3.5;
/// Deployments built per run; set-up time is the median. Key generation
/// (a prime search) is most of it here, and its time varies by a factor of
/// two between builds, so a median of three moved by a third run to run.
constexpr int kSetupReps = 9;

core::PisaConfig make_config(const Options& opt, const std::string& dir) {
  core::PisaConfig cfg;
  // A 1 x 4 strip: with the engine's privacy pad of three blocks every
  // request discloses the whole strip, so every request carries the same
  // four packed ciphertexts (with a 1-block pad, ranges clipped at the edge
  // blocks were cheaper, and the latency median moved with how often SUs
  // drove there).
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 1000.0;
  cfg.watch.channels = 3;
  // The paillier-requests radio setting: protection radius below one block.
  cfg.watch.pu_min_signal_dbm = -40.0;
  cfg.watch.su_max_eirp_dbm = 20.0;
  cfg.paillier_bits = kPaillierBits;
  cfg.rsa_bits = kRsaBits;
  cfg.pack_slots = 4;
  cfg.num_threads = kServerLanes;
  cfg.num_shards = 3;
  cfg.denial_filter.enabled = true;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every = 8;
  return cfg;
}

core::ScenarioConfig make_scenario(const Options& opt) {
  core::ScenarioConfig sc;
  sc.ticks = static_cast<std::uint32_t>(opt.seconds * kTicksPerSecond);
  sc.num_sus = static_cast<std::uint32_t>(opt.nproc);
  sc.seed = derive_seed(opt.seed, 0x5CE);
  sc.use_delta = true;
  sc.request_range_blocks = 3;  // the whole strip (make_config)
  // Ten-second ticks: an SU crosses a 1 km block in about seven ticks, so a
  // run samples the whole area instead of a few blocks.
  sc.tick_seconds = 10.0;
  // Receivers sit above the -40 dBm sensitivity floor.
  sc.signal_mw_lo = 1e-3;
  sc.signal_mw_hi = 1e-2;
  return sc;
}

/// The engine's view of one step, in order, for the oracle replay.
struct Event {
  bool is_request = false;
  // PU send:
  std::uint32_t pu_id = 0;
  std::uint32_t block = 0;
  watch::PuTuning tuning;
  // SU request:
  watch::SuRequest request;
  std::pair<std::uint32_t, std::uint32_t> range;
  bool completed = false, granted = false, fast = false;
  core::LicenseBody license;
  bn::BigUint signature;
};

class MeasuringDriver final : public core::ScenarioDriver {
 public:
  MeasuringDriver(rpc::RpcServer& server, rpc::RpcClient& client,
                  const core::PisaConfig& cfg, std::vector<watch::PuSite> sites,
                  const radio::PathLossModel& model, SpanLog* spans)
      : inner_(server, client, cfg, sites, model, kRequestTimeoutMs),
        server_(server),
        client_(client),
        cfg_(cfg),
        sites_(std::move(sites)),
        model_(model),
        d_c_m_(watch::exclusion_radius_m(cfg.watch, model)),
        spans_(spans) {
    for (const auto& s : sites_) blocks_[s.pu_id] = s.block.index;
  }

  void pu_move(std::uint32_t pu_id, std::uint32_t block) override {
    blocks_[pu_id] = block;
    inner_.pu_move(pu_id, block);
  }

  bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
               bool use_delta) override {
    Event e;
    e.pu_id = pu_id;
    e.block = blocks_[pu_id];
    e.tuning = tuning;
    events_.push_back(e);
    const auto s0 = spans_->now_ns();
    const auto t0 = Clock::now();
    bool sent = true;
    if (use_delta)
      sent = client_.pu_delta(pu_id, tuning).has_value();
    else
      client_.pu_update(pu_id, tuning);
    if (!sent) return false;
    delta_ms_.push_back(ms_since(t0));
    spans_->add("core.pu.delta", pu_id, s0, spans_->now_ns());
    ++sent_;
    ++updates_;
    // The fold barrier: this update (and every earlier one) folded, then
    // the dispatch lane quiesced so its re-probe round has run.
    wait_folded(server_, sent_);
    return true;
  }

  RequestResult su_request(const watch::SuRequest& request,
                           std::uint32_t range_pad) override {
    Event e;
    e.is_request = true;
    e.request = request;
    const auto s0 = spans_->now_ns();
    const auto t0 = Clock::now();
    const auto w0 = client_.transport().stats();
    const auto f = watch::build_su_f_matrix(cfg_.watch, sites_, request.block,
                                            request.eirp_mw_per_channel, model_,
                                            d_c_m_);
    e.range = core::disclosed_range(f, request.block.index, range_pad);
    auto prepared = client_.prepare_request(request.su_id, f, e.range);
    prep_ms_.push_back(ms_since(t0));
    spans_->add("core.su.prepare", prepared.request_id, s0, spans_->now_ns());
    client_.submit(prepared);
    core::SuResponseMsg resp;
    bool fast = false;
    RequestResult res;
    if (client_.wait_response(prepared.request_id, &resp, kRequestTimeoutMs, &fast)) {
      res.completed = true;
      res.fast_denied = fast;
      if (!fast) {
        const auto sv = spans_->now_ns();
        const auto tv = Clock::now();
        auto out = client_.su(request.su_id).process_response(resp, server_.license_key());
        verify_ms_.push_back(ms_since(tv));
        spans_->add("core.su.verify", prepared.request_id, sv, spans_->now_ns());
        res.granted = out.granted;
        res.serial = out.license.serial;
        e.license = out.license;
        e.signature = out.signature;
      }
    }
    const auto w1 = client_.transport().stats();
    latency_ms_.push_back(ms_since(t0));
    spans_->add("request", prepared.request_id, s0, spans_->now_ns());
    wire_bytes_ += (w1.bytes_sent - w0.bytes_sent) + (w1.bytes_received - w0.bytes_received);
    e.completed = res.completed;
    e.granted = res.granted;
    e.fast = res.fast_denied;
    events_.push_back(std::move(e));
    return res;
  }

  void crash_sdc() override { inner_.crash_sdc(); }
  void restart_sdc() override { inner_.restart_sdc(); }
  bool sdc_running() override { return inner_.sdc_running(); }
  std::vector<std::uint8_t> exhausted_state_bytes() override {
    return inner_.exhausted_state_bytes();
  }
  std::uint64_t wal_bytes() override {
    // The engine reads the WAL size once at the start and once at the end
    // of every tick, so these calls are the tick boundaries.
    const auto v = inner_.wal_bytes();
    const auto now = Clock::now();
    if (have_boundary_) tick_ms_.push_back(ms_between(last_boundary_, now));
    last_boundary_ = now;
    have_boundary_ = true;
    return v;
  }
  std::uint64_t delta_cells_folded() override { return inner_.delta_cells_folded(); }

  /// Start a fresh measurement window (spans, timings, counts); the event
  /// log for the oracle keeps everything.
  void begin_measurement(SpanLog* spans) {
    spans_ = spans;
    latency_ms_.clear();
    tick_ms_.clear();
    delta_ms_.clear();
    prep_ms_.clear();
    verify_ms_.clear();
    updates_ = wire_bytes_ = 0;
    have_boundary_ = false;
  }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& tick_ms() const { return tick_ms_; }
  const std::vector<double>& delta_ms() const { return delta_ms_; }
  const std::vector<double>& prep_ms() const { return prep_ms_; }
  const std::vector<double>& verify_ms() const { return verify_ms_; }
  std::uint64_t updates_sent() const { return updates_; }
  std::uint64_t wire_bytes() const { return wire_bytes_; }

 private:
  rpc::TcpScenarioDriver inner_;
  rpc::RpcServer& server_;
  rpc::RpcClient& client_;
  core::PisaConfig cfg_;
  std::vector<watch::PuSite> sites_;
  const radio::PathLossModel& model_;
  double d_c_m_;
  SpanLog* spans_;
  std::map<std::uint32_t, std::uint32_t> blocks_;
  std::vector<Event> events_;
  std::vector<double> latency_ms_, tick_ms_, delta_ms_, prep_ms_, verify_ms_;
  std::uint64_t sent_ = 0;  // every update ever sent (the fold barrier)
  std::uint64_t updates_ = 0, wire_bytes_ = 0;  // since begin_measurement()
  Clock::time_point last_boundary_;
  bool have_boundary_ = false;
};

std::unique_ptr<Deployment> deploy(const Options& opt,
                                   const std::vector<watch::PuSite>& sites, int rep) {
  auto d = deploy_keys(opt, make_config(opt, fresh_dir(opt, "spectrum-churn")), 0x5E14,
                       rep, 0, opt.nproc);
  const auto t = Clock::now();
  for (const auto& site : sites) d->client->add_pu(site);
  d->world_s = s_since(t);
  return d;
}

}  // namespace

void run_spectrum_churn(const Options& opt, const Publish& publish) {
  RunResult res;
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  const auto sc = make_scenario(opt);

  // Registered receiver sites are fixed; the seed drives the schedule.
  const std::vector<watch::PuSite> sites{
      {0, radio::BlockId{0}}, {1, radio::BlockId{1}}, {2, radio::BlockId{3}}};

  phase("spectrum-churn", "setup");
  std::unique_ptr<Deployment> d;
  const double deploy_s = median_setup_s(
    kSetupReps, opt.setup_start, [&](int rep) { d = deploy(opt, sites, rep); },
    [&] { d.reset(); });
  // PU offline phase (§3.9 pooled deltas): r^n pools sized from the fixed
  // schedule. A PU sends about one delta cell every four ticks; a PU whose
  // pool runs dry encrypts fresh, so the size only moves cost, never results.
  const auto tp = Clock::now();
  for (const auto& site : sites)
    precompute_on_pool(*d, d->client->pu(site.pu_id), sc.ticks / 2);
  d->precompute_s = s_since(tp);
  res.e2e("setup_s", deploy_s + d->precompute_s, "s");

  phase("spectrum-churn", "timed");
  SpanLog untraced{false};
  SpanLog spans{opt.trace};
  MeasuringDriver driver{*d->server, *d->client, d->cfg, sites, model, &untraced};
  // A traced run plays a half-length schedule twice: untraced (the
  // baseline for the tracing overhead), then traced, where the layers are
  // measured. Moving every PU back to its registered site in between makes
  // the second play start from the world the first started from: the
  // engine's first tick retunes every receiver, so both plays see the same
  // budgets and the same requests.
  auto timed = sc;
  double base_p50 = 0;
  if (opt.trace) {
    timed.ticks = sc.ticks / 2;
    core::ScenarioEngine baseline{d->cfg, sites, timed, driver};
    baseline.run();
    base_p50 = median(driver.latency_ms());
    for (const auto& site : sites) driver.pu_move(site.pu_id, site.block.index);
    driver.begin_measurement(&spans);
  }
  core::ScenarioEngine engine{d->cfg, sites, timed, driver};

  const auto sdc0 = d->server->sdc().stats();
  const auto probe0 = d->server->stp().probe_slots_signed();
  const auto snaps0 = d->server->sdc().state().snapshots_written();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto result = engine.run();
  const double wall_s = s_since(t0);
  const double cpu_s = cpu_seconds() - cpu0;
  const auto sdc1 = d->server->sdc().stats();

  const auto& lat = driver.latency_ms();
  const double updates = static_cast<double>(driver.updates_sent());
  const double requests = static_cast<double>(lat.size());
  res.e2e("request_per_s", static_cast<double>(result.grants + result.denials) / wall_s,
          "req/s");
  res.e2e("request_p50_ms", median(lat), "ms");
  res.e2e("request_p95_ms", quantile(lat, 0.95), "ms");
  res.e2e("su_wire_bytes_per_request",
          static_cast<double>(driver.wire_bytes()) / std::max(1.0, requests), "B");
  res.e2e("update_per_s", updates / wall_s, "upd/s");
  res.e2e("tick_p50_ms", median(driver.tick_ms()), "ms");
  res.e2e("tick_p95_ms", quantile(driver.tick_ms(), 0.95), "ms");
  res.info["ticks"] = std::to_string(result.ticks.size());
  res.info["requests"] = std::to_string(result.requests);
  res.info["grants"] = std::to_string(result.grants);
  res.info["fast_denials"] = std::to_string(result.fast_denials);
  res.info["updates_sent"] = std::to_string(driver.updates_sent());
  res.info["p95_supported"] = p95_supported(lat.size()) ? "yes" : "no";

  if (opt.trace) {
    res.layer("setup.keygen_s", d->keygen_s, "s");
    res.layer("setup.world_s", d->world_s, "s");
    res.layer("setup.precompute_s", d->precompute_s, "s");
    res.layer("update_per_s", updates / wall_s, "upd/s");
    res.layer("tick_p50_ms", median(driver.tick_ms()), "ms");
    res.layer("tick_p95_ms", quantile(driver.tick_ms(), 0.95), "ms");
    res.layer("core.pu.delta_ms", median(driver.delta_ms()), "ms");
    res.layer("core.su.prepare_ms", median(driver.prep_ms()), "ms");
    res.layer("core.su.verify_ms", median(driver.verify_ms()), "ms");
    sdc_layers(res, sdc0, sdc1);
    res.layer("core.stp.probe_slots_per_update",
              per(static_cast<double>(d->server->stp().probe_slots_signed() - probe0),
                  updates), "count");
    res.layer("store.wal_bytes_per_update",
              per(static_cast<double>(result.wal_bytes), updates), "B");
    res.layer("store.snapshots_per_1k_updates",
              per(1000.0 * static_cast<double>(
                               d->server->sdc().state().snapshots_written() - snaps0),
                  updates), "count");
    res.layer("exec.cpu_util", cpu_s / (wall_s * static_cast<double>(opt.nproc)), "frac");
    res.layer("trace.overhead_frac", (median(lat) - base_p50) / base_p50, "frac");
    spans.write(opt.work_dir + "/spans-spectrum-churn.jsonl");
  }

  phase("spectrum-churn", "checking decisions");
  // Correctness, off the clock: replay PU events and requests in order
  // through the plaintext SDC, and verify every license signature.
  watch::PlainSdc oracle{d->cfg.watch, watch::make_e_matrix(d->cfg.watch)};
  const auto e = watch::make_e_matrix(d->cfg.watch);
  const auto x = d->cfg.watch.protection_scalar();
  const double d_c_m = watch::exclusion_radius_m(d->cfg.watch, model);
  for (const auto& ev : driver.events()) {
    if (!ev.is_request) {
      oracle.pu_update(ev.pu_id, watch::build_pu_w_matrix(
                                     d->cfg.watch, e, {ev.pu_id, radio::BlockId{ev.block}},
                                     ev.tuning));
      continue;
    }
    ++res.attempted;
    if (!ev.completed) {
      ++res.failed;
      continue;
    }
    const auto f = watch::build_su_f_matrix(d->cfg.watch, sites, ev.request.block,
                                            ev.request.eirp_mw_per_channel, model, d_c_m);
    bool ok = ev.granted == oracle_granted(oracle.budget(), x, f, ev.range.first,
                                           ev.range.second);
    if (ev.fast && !range_exhausted(oracle.budget(), ev.range.first, ev.range.second))
      ok = false;
    if (ev.granted)
      ok = ok && ev.license.su_id == ev.request.su_id &&
           d->server->license_key().verify(ev.license.signing_bytes(), ev.signature);
    if (!ok) ++res.mismatches;
  }
  res.failed += res.mismatches;
  publish(res);
  phase("spectrum-churn", "teardown");
  d.reset();
  phase("spectrum-churn", "done");
}

}  // namespace perfbench
