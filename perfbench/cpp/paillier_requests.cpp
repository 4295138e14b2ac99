// Workload `paillier-requests`: a closed loop of nproc SU sessions on one
// pipelined connection to an RpcServer (SDC + STP), 2048-bit Paillier and
// 1024-bit RSA, pack_slots = 4 over C = 8 channels and a 4-block disclosed
// range (8 packed ciphertexts per request). Convert batching, the §3.8
// denial prefilter and WAL durability are on. Every fifth request
// discloses a block whose budget a PU stack has exhausted, so the one-round
// fast deny and the full blinded-conversion pipeline both carry load. SU
// preparation is pooled from randomizer pools filled at set-up and sized
// for the run's request cap.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>

#include "core/messages.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pisa;

constexpr std::uint32_t kBlocks = 32;       // one row of 1 km blocks
constexpr std::uint32_t kChannels = 8;
constexpr std::uint32_t kRange = 4;         // disclosed blocks per request
constexpr std::uint32_t kPackSlots = 4;
constexpr std::size_t kEntries = kRange * (kChannels / kPackSlots);
/// Every fifth request of the stream discloses an exhausted block: a fixed
/// share, so the mix of fast denials and full conversions (which differ
/// about a hundredfold in server time) does not vary from seed to seed.
constexpr std::uint64_t kExhaustedEvery = 5;
/// Request cap per measured second, which sizes the SU pools: ~1.5x the
/// ~10 req/s measured on a 4-core AVX-512 IFMA host. A commit that reaches
/// the cap early ends its timed phase there; throughput is still decided
/// requests over the wall clock actually measured.
constexpr double kCapPerSecond = 15.0;
/// Deployments built per run; set-up time is the median (the pool fill,
/// a fixed amount of work, dominates it).
constexpr int kSetupReps = 3;
constexpr std::size_t kSingleRequests = 7;   // unloaded passes (traced run)
constexpr double kLayerSumBar = 0.10;        // |layer sum - latency| / latency
/// Direct-call conversions timed per unloaded request; their median is that
/// request's STP self time (one conversion alone varies by a third here).
constexpr std::size_t kDirectConverts = 3;

core::PisaConfig make_config(const Options& opt, const std::string& dir) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = kBlocks;
  cfg.watch.block_size_m = 1000.0;
  cfg.watch.channels = kChannels;
  // Protection radius below one block: interference stays inside the SU's
  // own block, so three PUs stacked on one cell exhaust exactly that cell.
  cfg.watch.pu_min_signal_dbm = -40.0;
  cfg.watch.su_max_eirp_dbm = 20.0;
  cfg.paillier_bits = kPaillierBits;
  cfg.rsa_bits = kRsaBits;
  cfg.pack_slots = kPackSlots;
  cfg.num_threads = kServerLanes;
  cfg.convert_batch_max = kEntries * opt.nproc;
  cfg.denial_filter.enabled = true;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir;
  return cfg;
}

/// The seeded world: PU placements and tunings plus the request stream.
struct World {
  std::vector<watch::PuSite> sites;
  std::vector<std::pair<std::uint32_t, watch::PuTuning>> tunings;
  std::vector<bool> exhausted;  // per block

  /// Request i of the stream: a pure function of (seed, i).
  struct Req {
    watch::SuRequest su;
    std::uint32_t lo = 0;
    bool hits_exhausted = false;
  };
  Req request(std::uint64_t seed, std::uint64_t i, std::uint32_t su_id) const {
    crypto::ChaChaRng rng{derive_seed(seed, 0x2E9, i)};
    auto draw = [&rng](std::uint32_t n) {
      return static_cast<std::uint32_t>(rng.next_u64() % n);
    };
    Req r;
    r.hits_exhausted = i % kExhaustedEvery == 0;
    for (;;) {
      r.lo = draw(kBlocks - kRange + 1);
      bool touches = false;
      for (std::uint32_t b = r.lo; b < r.lo + kRange; ++b)
        touches = touches || exhausted[b];
      if (touches == r.hits_exhausted) break;
    }
    const std::uint32_t block = r.lo + draw(kRange);
    const bool strong = draw(2) == 0;
    r.su = watch::SuRequest{su_id, radio::BlockId{block},
                            std::vector<double>(kChannels, strong ? 100.0 : 1e-4)};
    return r;
  }
};

World make_world(std::uint64_t seed, const watch::WatchConfig& cfg,
                 const radio::PathLossModel& model) {
  crypto::ChaChaRng rng{derive_seed(seed, 0x3011D)};
  auto draw = [&rng](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng.next_u64() % n);
  };
  World w;
  std::vector<bool> used(kBlocks, false);
  auto free_block = [&] {
    std::uint32_t b = draw(kBlocks);
    while (used[b]) b = draw(kBlocks);
    used[b] = true;
    return b;
  };
  std::uint32_t pu = 0;
  // Two exhausted cells: three receivers below the sensitivity floor
  // stacked on one (channel, block).
  for (int k = 0; k < 2; ++k) {
    const std::uint32_t b = free_block();
    const std::uint32_t ch = draw(kChannels);
    for (int k = 0; k < 3; ++k) {
      w.sites.push_back({pu, radio::BlockId{b}});
      w.tunings.push_back({pu++, watch::PuTuning{radio::ChannelId{ch}, 1e-6}});
    }
  }
  // Single receivers elsewhere, above the -40 dBm sensitivity floor: their
  // cells keep a positive budget, so a strong SU in their block is denied
  // by the full pipeline and a weak one granted.
  for (int k = 0; k < 8; ++k) {
    const std::uint32_t b = free_block();
    const std::uint32_t ch = draw(kChannels);
    const double mw = 1e-3 + 9e-3 * static_cast<double>(draw(1000)) / 1000.0;
    w.sites.push_back({pu, radio::BlockId{b}});
    w.tunings.push_back({pu++, watch::PuTuning{radio::ChannelId{ch}, mw}});
  }
  // Which blocks hold an exhausted cell is read off the oracle's budget,
  // not assumed from the placement.
  watch::PlainWatch oracle{cfg, w.sites, model};
  for (const auto& [id, tuning] : w.tunings) oracle.pu_update(id, tuning);
  w.exhausted.assign(kBlocks, false);
  for (std::uint32_t b = 0; b < kBlocks; ++b)
    w.exhausted[b] = range_exhausted(oracle, b, b + 1);
  return w;
}

/// Keys, sessions and world: the part of set-up whose cost varies with the
/// seed (prime search), repeated to take a median.
std::unique_ptr<Deployment> deploy(const Options& opt, const World& world, int rep) {
  auto d = deploy_keys(opt, make_config(opt, fresh_dir(opt, "paillier-requests")), 0x5E12,
                       rep, 1, opt.nproc);
  const auto t = Clock::now();
  for (const auto& site : world.sites) d->client->add_pu(site);
  for (const auto& [pu, tuning] : world.tunings) d->client->pu_update(pu, tuning);
  wait_folded(*d->server, world.tunings.size());
  d->world_s = s_since(t);
  return d;
}

/// Offline SU preparation (§VI-A): fill every session's r^n pool, the first
/// session's with `first_extra` more. A fixed count of modexps, so its time
/// barely varies and it runs once.
void fill_pools(const Options& opt, Deployment& d, std::size_t per_session,
                std::size_t first_extra) {
  const auto t = Clock::now();
  for (std::uint32_t s = 0; s < opt.nproc; ++s)
    precompute_on_pool(d, d.client->su(s + 1), per_session + (s == 0 ? first_extra : 0));
  d.precompute_s = s_since(t);
}

/// A decided request, kept for the off-clock oracle and signature checks.
struct Decided {
  std::uint64_t index = 0;
  std::uint32_t su_id = 0;
  bool completed = false;
  bool granted = false;
  bool fast = false;
  core::LicenseBody license;
  pisa::bn::BigUint signature;
  double latency_ms = 0;
  double prep_ms = 0, verify_ms = 0, build_f_ms = 0;
};

/// Closed-loop driver state: one generator thread (the caller), responses
/// handed over from the client's dispatch thread through `arrived`.
class Loop {
 public:
  Loop(const Options& opt, const World& world, Deployment& d,
       const watch::PlainWatch& oracle, SpanLog* spans)
      : opt_(opt), world_(world), d_(d), oracle_(oracle), spans_(spans) {
    d_.client->set_response_hook([this](std::uint64_t rid) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        arrived_.push_back(rid);
      }
      cv_.notify_one();
    });
  }

  /// Start request `index` on `su_id`.
  void submit(std::uint32_t su_id) {
    const std::uint64_t index = next_index_++;
    const auto req = world_.request(opt_.seed, index, su_id);
    Pending p;
    p.decided.index = index;
    p.decided.su_id = su_id;
    p.start = Clock::now();
    p.span_start_ns = spans_->now_ns();
    const auto f = oracle_.build_request_matrix(req.su);
    const auto t_f = Clock::now();
    const auto span_f = spans_->now_ns();
    auto prepared = d_.client->prepare_request(
        su_id, f, std::make_pair(req.lo, req.lo + kRange), core::PrepMode::kPooled);
    p.decided.build_f_ms = ms_between(p.start, t_f);
    p.decided.prep_ms = ms_since(t_f);
    spans_->add("watch.build_f", prepared.request_id, p.span_start_ns, span_f);
    spans_->add("core.su.prepare", prepared.request_id, span_f, spans_->now_ns());
    d_.client->submit(prepared);
    pending_.emplace(prepared.request_id, std::move(p));
  }

  /// Wait for the next response and verify it. Returns the su_id whose
  /// session is free again, or nullopt when nothing arrived in time (every
  /// pending request is then recorded as a timeout).
  std::optional<std::uint32_t> complete_one() {
    std::uint64_t rid = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (!cv_.wait_for(lk,
                        std::chrono::microseconds(
                            static_cast<std::int64_t>(kRequestTimeoutMs * 1e3)),
                        [this] { return !arrived_.empty(); })) {
        lk.unlock();
        for (auto& [id, p] : pending_) decided_.push_back(std::move(p.decided));
        pending_.clear();
        return std::nullopt;
      }
      rid = arrived_.front();
      arrived_.pop_front();
    }
    auto it = pending_.find(rid);
    if (it == pending_.end()) return complete_one();  // not a loop request
    Pending p = std::move(it->second);
    pending_.erase(it);
    core::SuResponseMsg resp;
    bool fast = false;
    const bool got = d_.client->wait_response(rid, &resp, 1000.0, &fast);
    const auto t_verify = Clock::now();
    const auto span_v = spans_->now_ns();
    if (got) {
      p.decided.completed = true;
      p.decided.fast = fast;
      if (!fast) {
        auto out = d_.client->su(p.decided.su_id)
                       .process_response(resp, d_.server->license_key());
        p.decided.granted = out.granted;
        if (out.granted) {
          p.decided.license = out.license;
          p.decided.signature = out.signature;
        }
      }
    }
    const auto t_end = Clock::now();
    p.decided.verify_ms = ms_between(t_verify, t_end);
    p.decided.latency_ms = ms_between(p.start, t_end);
    const auto span_end = spans_->now_ns();
    spans_->add("core.su.verify", rid, span_v, span_end);
    spans_->add("request", rid, p.span_start_ns, span_end);
    const std::uint32_t su_id = p.decided.su_id;
    decided_.push_back(std::move(p.decided));
    return su_id;
  }

  Loop(const Loop&) = delete;  // the response hook holds `this`
  Loop& operator=(const Loop&) = delete;

  void set_spans(SpanLog* spans) { spans_ = spans; }
  std::size_t in_flight() const { return pending_.size(); }
  std::uint64_t issued() const { return next_index_; }
  std::vector<Decided>& decided() { return decided_; }

 private:
  struct Pending {
    Decided decided;
    Clock::time_point start;
    std::int64_t span_start_ns = 0;
  };

  const Options& opt_;
  const World& world_;
  Deployment& d_;
  const watch::PlainWatch& oracle_;
  SpanLog* spans_;
  std::uint64_t next_index_ = 0;
  std::map<std::uint64_t, Pending> pending_;
  std::vector<Decided> decided_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::uint64_t> arrived_;
};

/// Oracle + signature check of every decision, off the clock.
std::uint64_t check_decisions(const std::vector<Decided>& all, const World& world,
                              const Options& opt, const watch::PlainWatch& oracle,
                              const crypto::RsaPublicKey& license_key) {
  std::uint64_t bad = 0;
  for (const auto& d : all) {
    if (!d.completed) continue;  // counted as a timeout, not a mismatch
    const auto req = world.request(opt.seed, d.index, d.su_id);
    const bool expect = oracle_granted(
        oracle, oracle.build_request_matrix(req.su), req.lo, req.lo + kRange);
    bool ok = d.granted == expect;
    // A one-round deny is only sound on a range holding an exhausted cell.
    if (d.fast && !range_exhausted(oracle, req.lo, req.lo + kRange)) ok = false;
    if (d.granted)
      ok = ok && d.license.su_id == d.su_id &&
           license_key.verify(d.license.signing_bytes(), d.signature);
    if (!ok) ++bad;
  }
  return bad;
}

/// One timed closed-loop phase and what the layers did during it.
struct Phase {
  std::vector<double> lat, prep, verify, build_f;
  std::uint64_t decided = 0, fast = 0, grants = 0;
  double wall_s = 0, cpu_s = 0;
  core::SdcServer::Stats sdc0, sdc1;
  std::uint64_t stp_entries = 0, stp_batches = 0;
  net::TcpTransport::Stats wire0, wire1, srv0, srv1;
};

Phase run_phase(Loop& loop, Deployment& d, const std::vector<std::uint32_t>& sessions,
                double seconds, std::size_t cap) {
  Phase ph;
  const std::size_t first = loop.decided().size();
  const std::uint64_t issued0 = loop.issued();
  d.server->transport().quiesce(kRequestTimeoutMs);  // stats stable to read
  ph.sdc0 = d.server->sdc().stats();
  const auto stp_entries0 = d.server->stp().entries_converted();
  const auto stp_batches0 = d.server->stp().batches_served();
  ph.wire0 = d.client->transport().stats();
  ph.srv0 = d.server->transport().stats();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  for (auto s : sessions) loop.submit(s);
  while (loop.in_flight() > 0) {
    auto free_su = loop.complete_one();
    if (!free_su) break;
    if (Clock::now() < deadline && loop.issued() - issued0 < cap &&
        d.client->su(*free_su).randomizers_available() >= kEntries)
      loop.submit(*free_su);
  }
  ph.wall_s = s_since(t0);
  ph.cpu_s = cpu_seconds() - cpu0;
  d.server->transport().quiesce(kRequestTimeoutMs);
  ph.wire1 = d.client->transport().stats();
  ph.srv1 = d.server->transport().stats();
  ph.sdc1 = d.server->sdc().stats();
  ph.stp_entries = d.server->stp().entries_converted() - stp_entries0;
  ph.stp_batches = d.server->stp().batches_served() - stp_batches0;
  const auto& all = loop.decided();
  for (std::size_t i = first; i < all.size(); ++i) {
    if (!all[i].completed) continue;
    ++ph.decided;
    ph.lat.push_back(all[i].latency_ms);
    ph.prep.push_back(all[i].prep_ms);
    ph.verify.push_back(all[i].verify_ms);
    ph.build_f.push_back(all[i].build_f_ms);
    ph.fast += all[i].fast ? 1 : 0;
    ph.grants += all[i].granted ? 1 : 0;
  }
  return ph;
}

}  // namespace

void run_paillier_requests(const Options& opt, const Publish& publish) {
  RunResult res;
  SpanLog untraced{false};
  SpanLog spans{opt.trace};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  const World world = make_world(opt.seed, make_config(opt, "").watch, model);

  // Pool sizing from the fixed request cap: a session may serve its share
  // of the cap with some slack for uneven shares plus the warm-up; the
  // first session also serves the unloaded passes.
  const auto cap = static_cast<std::size_t>(opt.seconds * kCapPerSecond);
  const std::size_t per_session_requests = (cap + opt.nproc - 1) / opt.nproc + 10;
  const std::size_t first_session_extra = opt.trace ? kSingleRequests * 4 : 0;

  phase("paillier-requests", "setup");
  std::unique_ptr<Deployment> d;
  const double deploy_s = median_setup_s(
    kSetupReps, opt.setup_start, [&](int rep) { d = deploy(opt, world, rep); },
    [&] { d.reset(); });
  fill_pools(opt, *d, per_session_requests * kEntries, first_session_extra * kEntries);
  res.e2e("setup_s", deploy_s + d->precompute_s, "s");

  watch::PlainWatch oracle{d->cfg.watch, world.sites, model};
  for (const auto& [pu, tuning] : world.tunings) oracle.pu_update(pu, tuning);

  Loop loop{opt, world, *d, oracle, &untraced};
  std::vector<std::uint32_t> sessions;
  for (std::uint32_t s = 0; s < opt.nproc; ++s) sessions.push_back(s + 1);

  phase("paillier-requests", "timed");
  // Warm-up: one request per session, concurrently; decided but untimed.
  for (auto s : sessions) loop.submit(s);
  while (loop.in_flight() > 0 && loop.complete_one()) {
  }

  // Unloaded passes (traced runs): one request at a time on the idle
  // deployment, before the timed phases so their pool draws are covered.
  // Full-pipeline requests give the single-request latency and its
  // server-side phases, each followed at once by direct-call STP
  // conversions of the same request shape (so the pair sees the same host
  // conditions); prefilter-denied ones give the smallest round trip.
  struct Single {
    double total = 0, su = 0, phase1 = 0, phase2 = 0;  // su: F + prep + verify
    double convert = 0;
  };
  std::vector<Single> singles;
  std::vector<double> fast_rtt_us;
  std::uint64_t direct = 1ULL << 40;  // request stream indices of direct calls
  auto direct_convert_ms = [&] {
    World::Req req;
    do {
      req = world.request(opt.seed, direct++, sessions[0]);
    } while (req.hits_exhausted);
    // Fresh encryption: only the conversion is timed, and the SU pools are
    // sized for the closed loop's requests alone.
    auto prepared = d->client->prepare_request(
        sessions[0], oracle.build_request_matrix(req.su),
        std::make_pair(req.lo, req.lo + kRange), core::PrepMode::kFresh);
    // Run and timed on the server's dispatch lane, the thread a pipelined
    // conversion runs on (the caller of parallel_for is one of its lanes).
    std::promise<std::vector<double>> done;
    auto got = done.get_future();
    d->server->transport().schedule_after(0, [&] {
      auto conv =
          d->server->sdc().begin_request(core::SuRequestMsg::decode(prepared.bytes));
      core::ConvertBatchMsg batch;
      batch.batch_id = direct;
      batch.items.push_back({conv.request_id, conv.su_id, conv.v, conv.partials});
      std::vector<double> ms;
      for (std::size_t k = 0; k < kDirectConverts; ++k) {
        const auto t = Clock::now();
        d->server->stp().convert_batch(batch);
        ms.push_back(ms_since(t));
      }
      done.set_value(std::move(ms));
    });
    return median(got.get());
  };
  for (std::size_t i = 0; opt.trace && i < kSingleRequests * 4 &&
                          (singles.size() < kSingleRequests || fast_rtt_us.size() < 3);
       ++i) {
    const auto st0 = d->server->sdc().stats();
    loop.submit(sessions[0]);
    if (!loop.complete_one()) break;
    d->server->transport().quiesce(kRequestTimeoutMs);
    const auto st1 = d->server->sdc().stats();
    const auto& dec = loop.decided().back();
    if (dec.fast) {
      fast_rtt_us.push_back((dec.latency_ms - dec.build_f_ms - dec.prep_ms -
                             dec.verify_ms -
                             (st1.prefilter.total_ms - st0.prefilter.total_ms)) *
                            1e3);
    } else if (st1.phase1.count > st0.phase1.count) {
      singles.push_back({dec.latency_ms, dec.build_f_ms + dec.prep_ms + dec.verify_ms,
                         st1.phase1.total_ms - st0.phase1.total_ms,
                         st1.phase2.total_ms - st0.phase2.total_ms,
                         direct_convert_ms()});
    }
  }

  // A traced run splits its time: an untraced half (the baseline for the
  // tracing overhead), then the traced half the layer figures come from.
  Phase base;
  if (opt.trace) base = run_phase(loop, *d, sessions, opt.seconds / 2, cap / 2);
  loop.set_spans(&spans);
  const Phase ph = run_phase(loop, *d, sessions,
                             opt.trace ? opt.seconds / 2 : opt.seconds,
                             opt.trace ? cap / 2 : cap);

  const double n = std::max<double>(1.0, static_cast<double>(ph.decided));
  res.e2e("request_per_s", static_cast<double>(ph.decided) / ph.wall_s, "req/s");
  res.e2e("request_p50_ms", median(ph.lat), "ms");
  res.e2e("request_p95_ms", quantile(ph.lat, 0.95), "ms");
  const double wire_bytes = static_cast<double>(
      (ph.wire1.bytes_sent - ph.wire0.bytes_sent) +
      (ph.wire1.bytes_received - ph.wire0.bytes_received));
  res.e2e("su_wire_bytes_per_request", wire_bytes / n, "B");
  res.info["decisions_timed"] = std::to_string(ph.decided);
  res.info["grants"] = std::to_string(ph.grants);
  res.info["fast_denials"] = std::to_string(ph.fast);
  res.info["p95_supported"] = p95_supported(ph.lat.size()) ? "yes" : "no";

  if (opt.trace) {
    res.layer("setup.keygen_s", d->keygen_s, "s");
    res.layer("setup.world_s", d->world_s, "s");
    res.layer("setup.precompute_s", d->precompute_s, "s");
    res.layer("core.su.prepare_ms", median(ph.prep), "ms");
    res.layer("core.su.verify_ms", median(ph.verify), "ms");
    res.layer("watch.build_f_ms", median(ph.build_f), "ms");
    sdc_layers(res, ph.sdc0, ph.sdc1);
    res.layer("core.stp.entries_per_batch",
              per(static_cast<double>(ph.stp_entries), static_cast<double>(ph.stp_batches)),
              "count");
    res.layer("exec.cpu_util", ph.cpu_s / (ph.wall_s * static_cast<double>(opt.nproc)),
              "frac");
    tcp_layers(res, ph.wire0, ph.wire1, ph.srv0, ph.srv1, n);
    res.layer("trace.overhead_frac",
              (median(ph.lat) - median(base.lat)) / median(base.lat), "frac");

    const double wire_ms = median(fast_rtt_us) / 1e3;
    res.layer("net.fast_deny_rtt_us", median(fast_rtt_us), "us");
    std::vector<double> total, sum, convert, ratio;
    for (const auto& s : singles) {
      total.push_back(s.total);
      sum.push_back(s.su + s.phase1 + s.convert + s.phase2 + wire_ms);
      convert.push_back(s.convert);
      ratio.push_back(sum.back() / s.total);
    }
    res.layer("core.stp.convert_ms_per_entry", median(convert) / kEntries, "ms");
    res.layer("trace.single_request_ms", median(total), "ms");
    res.layer("trace.layer_sum_ms", median(sum), "ms");
    // The bar: unloaded layer self times add up to the measured latency
    // within 10%; a run that misses it (or has no unloaded request to
    // check) is not correct. The gap is the median over requests of each
    // request's own sum / latency, so host speed drifting across the
    // unloaded passes cancels within each pair.
    const double gap = singles.empty() ? 1.0 : std::abs(median(ratio) - 1.0);
    res.info["layer_sum_gap"] = std::to_string(gap);
    if (!(gap <= kLayerSumBar))
      res.failed_checks.push_back("median layer sum / single-request latency over " +
                                  std::to_string(singles.size()) + " requests is " +
                                  std::to_string(median(ratio)) + ": gap " +
                                  std::to_string(gap) + " > " +
                                  std::to_string(kLayerSumBar));
    res.layer("net.queue_ms", median(ph.lat) - median(sum), "ms");
    spans.write(opt.work_dir + "/spans-paillier-requests.jsonl");
    // The XOR-PIR query path is idle here; its layer costs are timed by
    // direct calls so the traced table covers it.
    measure_pir_layers(res, opt);
  }

  phase("paillier-requests", "checking decisions");
  // Correctness, off the clock: every decision of every phase.
  auto& all = loop.decided();
  res.attempted = all.size();
  for (const auto& dec : all) res.failed += dec.completed ? 0 : 1;
  res.mismatches = check_decisions(all, world, opt, oracle, d->server->license_key());
  res.failed += res.mismatches;
  publish(res);
  phase("paillier-requests", "teardown");
  d.reset();
  phase("paillier-requests", "done");
}

}  // namespace perfbench
