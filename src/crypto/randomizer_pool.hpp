// Pools of precomputed Paillier randomizers (paper §VI-A; DESIGN.md §3.5).
//
// Every Paillier encryption pays one r^n mod n² factor, a full-width
// modexp. RandomizerPool moves that modexp off the request path: it is a
// FIFO of such factors fed from its own ChaCha stream. Invariant: the k-th
// factor taken is the k-th factor of the stream, whether a bulk fill or an
// idle slice precomputed it or it was computed inline because the pool was
// empty. Output bytes therefore never depend on when, or whether,
// precomputation ran. The SU and PU clients each keep one pool for their
// own requests; the servers keep one per SU (RandomizerReserves).
//
// RandomizerReserves holds one server entity's per-SU pools — the STP's
// eq. (15) re-encryption factors, the SDC's eq. (17) S̃G factors — and the
// policy for filling them in the dispatch lane's idle time. Every per-SU
// stream derives from a secret the entity draws once at construction, so a
// restarted entity (a fresh secret) never reuses a factor, and nothing is
// ever seeded at a transport-timed moment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "bigint/montgomery.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/paillier.hpp"

namespace pisa::crypto {

class RandomizerPool {
 public:
  /// `stream` is the pool's private stream. With `fast`
  /// (PisaConfig::fast_randomizers) the stream's first draw builds a
  /// FastRandomizerBase and every factor is a short-exponent table power.
  RandomizerPool(PaillierPublicKey pk, ChaChaRng stream, bool fast);

  /// The stream's next factor: finished (`ready`), or the raw draw — r, or
  /// the short exponent under fast mode — that finish() still has to raise.
  struct Draw {
    bn::BigUint value;
    bool ready = false;
  };

  /// Sequential: the oldest queued factor, else the one being computed in
  /// slices (completed now), else a fresh draw.
  Draw next();

  /// The factor for a draw. Const and thread-safe, so a caller can stage
  /// draws in order and raise them on a thread pool.
  bn::BigUint finish(Draw d) const;

  bn::BigUint take() { return finish(next()); }

  /// Precompute until `depth` factors are queued: draws in stream order,
  /// the modexps on `pool` (nullptr = sequential).
  void fill(std::size_t depth, exec::ThreadPool* pool);

  /// One bounded slice of precomputation: advance the factor in progress
  /// (starting the next draw when there is none) by at most `budget`
  /// Montgomery multiplications and queue it once finished. In fast mode a
  /// slice computes one whole table power (~64 multiplications).
  void step(std::size_t budget);

  /// Keep the `keep` oldest queued factors, drop the rest (and the factor
  /// in progress) and rewind the stream to the first dropped draw: the
  /// dropped factors come back, identical, when next drawn.
  void trim(std::size_t keep);

  /// Switch to fast mode from the next draw on. Queued factors are trimmed
  /// first, so the draw that builds the base is the first one not yet
  /// taken, however far precomputation had got.
  void use_fast_base();

  bool fast() const { return fast_.has_value(); }
  std::size_t available() const { return ready_.size(); }
  const PaillierPublicKey& public_key() const { return pk_; }

  /// Queued factor `i` (0 = next to be taken). Test/audit access.
  const bn::BigUint& peek(std::size_t i) const { return ready_.at(i).factor; }

 private:
  /// A precomputed factor, with the stream as it was before its draw (the
  /// rewind point for trim()).
  struct Queued {
    bn::BigUint factor;
    ChaChaRng before;
  };
  struct Partial {
    ChaChaRng before;
    bn::ResumablePow pow;
  };

  bn::BigUint draw();
  /// Complete the factor in progress and queue it after ready_'s last.
  void finish_partial();

  PaillierPublicKey pk_;
  ChaChaRng stream_;
  std::optional<FastRandomizerBase> fast_;
  std::deque<Queued> ready_;
  /// The factor after ready_'s last, mid-computation (its r already drawn).
  std::optional<Partial> partial_;
};

/// One server entity's per-SU pools, and when to fill them between
/// requests. Idle filling pays off only for an SU that sends another
/// request while the lane has idle time in between, so the policy follows
/// what each SU has done so far:
///   * an SU earns an idle depth when it returns: its largest request's
///     worth of factors at its second request within the horizon, twice
///     that from its third on;
///   * an SU that sends nothing while the entity serves kIdleHorizon other
///     requests loses that depth, and its idle-made factors are trimmed
///     (the stream rewinds; nothing is skipped);
///   * idle slices stop while kMaxIdleFactors factors are queued in all.
/// Single-request SUs therefore cost no idle work and no queued factors.
/// Explicit provisioning (provision(): precompute_su_randomizers,
/// PisaConfig::stp_pool_target) sets a floor that the policy never trims
/// below and that idle slices keep topped up.
class RandomizerReserves {
 public:
  /// Requests served after an SU's last one before its idle depth lapses.
  static constexpr std::uint64_t kIdleHorizon = 64;
  /// Queued factors across every pool above which idle slices stop
  /// (128 KiB of factors at 2048-bit keys).
  static constexpr std::size_t kMaxIdleFactors = 256;

  /// Draws the secret every per-SU stream derives from. `fast` applies to
  /// provisioned pools: their factors become short-exponent table powers.
  RandomizerReserves(bn::RandomSource& rng, bool fast);

  /// One request from `su_id` under `pk`: its next `count` draws in stream
  /// order, and the pool that finishes them (valid until `su_id`'s key
  /// changes). A key other than the pool's (re-registration) starts a
  /// fresh pool on a new stream.
  struct Taken {
    const RandomizerPool* pool = nullptr;
    std::vector<RandomizerPool::Draw> draws;
  };
  Taken take(std::uint32_t su_id, const PaillierPublicKey& pk, std::size_t count);

  /// Top `su_id`'s pool up to `count` factors now (modexps on `pool`) and
  /// make `count` its floor.
  void provision(std::uint32_t su_id, const PaillierPublicKey& pk,
                 std::size_t count, exec::ThreadPool* pool);
  /// Top every pool up to its floor.
  void refill_floors(exec::ThreadPool* pool);

  /// The filled fraction of the pool furthest below its depth; nullopt when
  /// no idle slice is due.
  std::optional<double> neediest() const;
  /// One idle slice (at most `budget` multiplications) on that pool.
  /// Returns false when no slice was due.
  bool step(std::size_t budget);

  const RandomizerPool* find(std::uint32_t su_id) const;
  /// Factors queued for `su_id` (0 without a pool), and across every pool.
  std::size_t available(std::uint32_t su_id) const;
  std::size_t available() const { return queued_; }

 private:
  struct Slot {
    std::optional<RandomizerPool> pool;
    std::uint32_t generation = 0;  // key changes so far
    std::size_t floor = 0;         // provisioned depth
    std::size_t largest = 0;       // largest request since the SU (re)appeared
    std::uint64_t requests = 0;    // requests since then
    std::uint64_t last = 0;        // tick_ of the latest one
    std::optional<std::list<std::uint32_t>::iterator> recent;  // in recent_
    std::optional<double> need;    // key in needy_
  };

  RandomizerPool& pool_for(std::uint32_t su_id, Slot& slot,
                           const PaillierPublicKey& pk);
  static std::size_t depth(const Slot& slot);
  /// Re-file `slot` in needy_ after its queue or depth changed.
  void reindex(std::uint32_t su_id, Slot& slot);
  /// Lapse the idle depth of every SU quiet for over kIdleHorizon requests.
  void expire();

  SubStreams secret_;
  bool fast_;
  std::map<std::uint32_t, Slot> slots_;
  std::set<std::pair<double, std::uint32_t>> needy_;  // (filled fraction, SU)
  std::list<std::uint32_t> recent_;  // SUs with requests > 0, oldest first
  std::uint64_t tick_ = 0;           // requests taken so far
  std::size_t queued_ = 0;           // factors queued across every pool
};

}  // namespace pisa::crypto
