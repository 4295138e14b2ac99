// PISA protocol configuration (paper §III-C, §IV-B).
//
// Validation enforces the arithmetic headroom the blinding tricks need:
// eq. (14) computes α·I − β inside the Paillier plaintext space under the
// centered lift, so |α·I| must stay below n/2. With 60-bit quantized powers
// and an X scalar of ~8 bits, |I| < 2^69; blind_bits more bits of α gives
// |α·I| < 2^(69 + blind_bits), which must fit under paillier_bits − 2.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "watch/config.hpp"

namespace pisa::core {

/// Reliable-delivery knobs for the simulated network (net::ReliableTransport).
/// Disabled by default: the perfect-delivery bus reproduces the paper's
/// Figure 6 byte accounting exactly; the chaos suites enable it together
/// with a seeded net::FaultPlan to prove the protocol survives loss,
/// duplication, reordering and corruption.
struct ReliabilityConfig {
  bool enabled = false;
  std::size_t max_retries = 6;      ///< retransmissions before a typed failure
  double timeout_us = 4'000.0;      ///< initial retransmission timeout
  double backoff = 2.0;             ///< exponential backoff multiplier
  std::size_t dedup_window = 4096;  ///< (sender, seq) replay memory per peer
};

/// Write-ahead durability for the SDC state engine (DESIGN.md §3.6).
/// Disabled by default: the in-memory engine then behaves exactly like the
/// pre-durability SdcServer, byte for byte. Enabled, every state mutation is
/// journaled to a per-shard WAL before it is applied, shards periodically
/// compact their log into a sealed snapshot, and a restarted SDC recovers
/// byte-identical Ñ/W̃ state from the store directory.
struct DurabilityConfig {
  bool enabled = false;
  std::string dir;  ///< store directory; required when enabled

  /// Auto-compact a shard after this many WAL records (0 = only explicit
  /// checkpoint() calls compact).
  std::size_t snapshot_every = 256;

  /// License serials are reserved from the WAL in chunks of this size, so
  /// the request hot path journals one tiny record every `serial_reserve`
  /// licenses instead of one per license. A crash skips at most the
  /// unissued remainder of a chunk — serials stay strictly monotonic across
  /// restarts, which is what makes replayed licenses detectable.
  std::size_t serial_reserve = 64;
};

/// Encrypted cuckoo-filter denial fast path (DESIGN.md §3.8). Disabled by
/// default: the SDC then behaves exactly like the pre-filter server, byte
/// for byte. Enabled, the SDC tracks provably-exhausted (channel-group,
/// block) cells in a keyed cuckoo filter backed by an exact set, and denies
/// a request whose disclosed block range touches a confirmed-exhausted cell
/// in one cheap round — no Ṽ blinding, no STP round-trip. Cuckoo false
/// positives are vetoed by the exact set, so decisions are always identical
/// to the filter-off pipeline (no false denials, ever).
/// Each shard's filter is sized for its whole group-range × blocks grid at
/// a fixed 1/1024 false-positive target (core/sdc_state.cpp).
struct DenialFilterConfig {
  bool enabled = false;
};

/// How an SU learns whether its transmission is licensed (DESIGN.md §3.10).
enum class QueryMode {
  /// The paper's pipeline: encrypted F under the group key, blinded Ṽ,
  /// STP conversion, RSA license. Default; every prior suite runs this.
  kPaillier,
  /// XOR multi-server PIR over the plaintext decision database: the SU
  /// splits each row fetch into random shares across non-colluding
  /// replicas and evaluates the margins locally. No modexp on the query
  /// path; the fetched positions are hidden information-theoretically.
  kPir,
};

/// XOR-PIR query path knobs (active when query_mode == kPir).
struct PirConfig {
  /// Non-colluding database replicas (ℓ-of-ℓ XOR sharing). Replica 0 is
  /// hosted inside the SDC process; the rest are standalone servers.
  std::size_t replicas = 2;
};

struct PisaConfig {
  watch::WatchConfig watch;

  std::size_t paillier_bits = 2048;  // group key and SU keys (NIST 112-bit level)
  std::size_t rsa_bits = 1024;       // license signature key
  std::size_t blind_bits = 128;      // α, β, η one-time blinding factors
  int mr_rounds = 16;                // Miller-Rabin rounds for keygen

  /// Compute lanes for the batch homomorphic pipeline (src/exec). 1 =
  /// today's sequential loops. All randomness is sampled sequentially
  /// before the parallel modexp sections, so protocol outputs are
  /// bit-identical at every setting — the knob trades wall-clock only.
  std::size_t num_threads = 1;

  /// Short-exponent randomizers (crypto::FastRandomizerBase): every r^n
  /// factor of a provisioned pool becomes a fixed-base table power of a
  /// 256-bit exponent, precomputed or inline. Provisioned pools are the SU
  /// and PU clients' (precompute_randomizers) and the STP's per-SU reserves
  /// once precompute_su_randomizers or stp_pool_target fills them; each
  /// such STP reserve builds its table (~480 KiB at 2048-bit keys) on that
  /// first fill. Reserves filled only in idle time, and every SDC S̃G
  /// factor, stay full width. Off by default: the short-exponent sampling
  /// is a security trade-off (see paillier.hpp).
  bool fast_randomizers = false;

  /// Threshold-STP mode (the paper's §VII future-work direction): the group
  /// decryption exponent is 2-of-2 shared between SDC and STP, so the STP
  /// alone can no longer decrypt stored PU/SU ciphertexts — it can only
  /// open the blinded Ṽ values the SDC explicitly co-decrypts during key
  /// conversion. Costs one extra exponentiation per entry at the SDC and
  /// one extra ciphertext per entry on the SDC→STP link.
  bool threshold_stp = false;

  /// Reliable transport over the simulated network (chaos/fault testing).
  ReliabilityConfig reliability;

  /// SDC state-engine shards (DESIGN.md §3.6): the ⌈C/pack_slots⌉
  /// channel-group rows of Ñ are split into this many contiguous balanced
  /// slices, each with its own PU-column map, WAL and snapshot, folded in
  /// parallel on the shared thread pool. 1 = today's single-lane engine,
  /// byte-identical to the pre-sharding SdcServer. Values above the row
  /// count are clamped.
  std::size_t num_shards = 1;

  /// Write-ahead durability + crash recovery for the SDC state engine.
  DurabilityConfig durability;

  /// One-round denial fast path via a keyed cuckoo prefilter (§3.8).
  DenialFilterConfig denial_filter;

  /// Spectrum-query transport (§3.10): Paillier round-trip (paper) or the
  /// XOR multi-server PIR fast path. PU provisioning and licensing are
  /// unaffected; only how SUs learn grant/deny changes.
  QueryMode query_mode = QueryMode::kPaillier;

  /// Replica layout for the PIR path.
  PirConfig pir;

  /// Cross-request throughput engine (DESIGN.md §3.5). With
  /// convert_batch_max > 0 the SDC stops sending one ConvertRequestMsg per
  /// SU request: blinded Ṽ entries of concurrent requests are staged and
  /// coalesced into a single ConvertBatchMsg of at most convert_batch_max
  /// entries, so one SDC↔STP round-trip (and one parallel_for at the STP)
  /// serves many SUs. 0 = the paper's per-request round-trips, wire
  /// behaviour unchanged.
  std::size_t convert_batch_max = 0;

  /// Virtual-time linger before a non-full batch is flushed: the first
  /// staged request arms a timer and later arrivals ride along. 0 still
  /// coalesces requests delivered at the same virtual instant.
  double convert_batch_linger_us = 0.0;

  /// Always-warm STP randomizer pools: fill each SU's reserve to this many
  /// r^n factors at key registration and keep it there (maintain_pools()
  /// after each simulated drain; idle slices on a TCP server), so the
  /// conversion hot path pays one modular multiplication per entry without
  /// any manual precompute_su_randomizers call. 0 = no registration fill.
  /// Independently of this option, a TCP server fills the reserves of SUs
  /// that come back in its dispatch lane's idle time (DESIGN.md §3.5).
  std::size_t stp_pool_target = 0;

  /// Slot packing (crypto::SlotCodec, DESIGN.md §3.4): fold this many
  /// channel entries into each Paillier plaintext. 1 reproduces the paper's
  /// per-entry layout byte for byte; k > 1 cuts modexps, STP decryptions
  /// and wire bytes by ~k on the PU-update, budget and SDC↔STP paths, at
  /// the cost of one (α, ε) blinding pair covering k channels of the same
  /// request (a privacy/performance dial like the §VI-A block range — see
  /// DESIGN.md §3.4 for the leakage analysis).
  std::size_t pack_slots = 1;

  /// Width of one packed slot: the eq. (14) value envelope |I| < 2^(q+9)
  /// scaled by an α of blind_bits bits, plus β, plus the balanced-digit
  /// sign bit — the guard headroom that keeps homomorphic sums and
  /// α-scaling from ever borrowing across slots.
  std::size_t slot_bits() const {
    return watch.quantizer.max_bits + 9 + blind_bits + 2;
  }

  /// Packed ciphertexts per C-entry channel column: ⌈C / pack_slots⌉.
  std::size_t channel_groups() const {
    return (watch.channels + pack_slots - 1) / pack_slots;
  }

  /// Throws std::invalid_argument when parameter combinations cannot work.
  void validate() const {
    if (paillier_bits < 64 || paillier_bits % 2 != 0)
      throw std::invalid_argument("PisaConfig: bad paillier_bits");
    if (rsa_bits + 2 > paillier_bits)
      throw std::invalid_argument(
          "PisaConfig: rsa_bits must be < paillier_bits (eq. (17) embeds the "
          "signature value in a Paillier plaintext slot)");
    // |I| <= max(N) + X*max(F) < 2^(q+9) with q = quantizer width; every
    // slot must absorb the α-scaled blind of that envelope, and the packed
    // plaintext Σ v_j·B^j must clear the centered lift (|M| < n/2), so the
    // whole slot vector needs paillier_bits − 2 bits of room. This is
    // exactly the "α-scaling overflows a slot" rejection: a config passing
    // here can never borrow across slots in eq. (14).
    if (pack_slots == 0)
      throw std::invalid_argument("PisaConfig: pack_slots must be >= 1");
    if (slot_bits() * pack_slots > paillier_bits - 2)
      throw std::invalid_argument(
          "PisaConfig: slot_bits * pack_slots exceed the plaintext space "
          "(blinding headroom + value width per slot do not fit)");
    if (blind_bits < 8)
      throw std::invalid_argument("PisaConfig: blind_bits too small to hide values");
    if (num_threads == 0)
      throw std::invalid_argument("PisaConfig: num_threads must be >= 1");
    if (num_shards == 0)
      throw std::invalid_argument("PisaConfig: num_shards must be >= 1");
    if (durability.enabled && durability.dir.empty())
      throw std::invalid_argument(
          "PisaConfig: durability.dir is required when durability is enabled");
    if (durability.enabled && durability.serial_reserve == 0)
      throw std::invalid_argument(
          "PisaConfig: durability.serial_reserve must be >= 1");
    if (convert_batch_linger_us < 0)
      throw std::invalid_argument(
          "PisaConfig: convert_batch_linger_us must be >= 0");
    if (query_mode == QueryMode::kPir &&
        (pir.replicas < 2 || pir.replicas > 16))
      throw std::invalid_argument(
          "PisaConfig: pir.replicas must be in [2, 16] (one server sees the "
          "query in the clear; more than 16 buys nothing but wire bytes)");
    if (reliability.enabled) {
      if (reliability.timeout_us <= 0)
        throw std::invalid_argument("PisaConfig: reliability.timeout_us must be > 0");
      if (reliability.backoff < 1.0)
        throw std::invalid_argument("PisaConfig: reliability.backoff must be >= 1");
      if (reliability.dedup_window == 0)
        throw std::invalid_argument("PisaConfig: reliability.dedup_window must be >= 1");
    }
  }
};

}  // namespace pisa::core
