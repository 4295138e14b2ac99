// Semi-trusted third party (paper §III-C).
//
// The STP owns the global Paillier key pair (pk_G, sk_G) and a directory of
// SU public keys, and provides exactly one service: key conversion. Given
// the blinded indicator matrix Ṽ (under pk_G), it decrypts each entry, maps
// the sign to ±1 (eq. (15)) and re-encrypts under the requesting SU's own
// key pk_j. It never sees unblinded interference values — the ε/α/β
// blinding applied by the SDC (eq. (14)) hides both magnitude and sign.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include <optional>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "crypto/paillier.hpp"
#include "crypto/randomizer_pool.hpp"
#include "crypto/threshold_paillier.hpp"
#include "net/bus.hpp"
#include "net/reliable_channel.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class StpServer {
 public:
  /// Generates the global key pair from `rng` (kept by reference; must
  /// outlive the server).
  StpServer(const PisaConfig& cfg, bn::RandomSource& rng);

  const crypto::PaillierPublicKey& group_key() const { return group_.pk; }

  /// SU key directory (paper: "Each SU i ... uploads pk_i to STP").
  void register_su_key(std::uint32_t su_id, crypto::PaillierPublicKey pk);
  const crypto::PaillierPublicKey& su_key(std::uint32_t su_id) const;

  /// The key-conversion service, callable directly (tests, benches) or via
  /// the network handler.
  ConvertResponseMsg convert(const ConvertRequestMsg& request);

  /// Batched conversion (DESIGN.md §3.5): one parallel_for over the flat
  /// entry list of every item, randomness staged sequentially in (item,
  /// entry) order — per-item outputs are byte-identical to item-by-item
  /// convert() calls issued in the same order.
  ConvertBatchResponseMsg convert_batch(const ConvertBatchMsg& batch);

  /// §3.8 budget sign probe: decrypt each blinded ε·(α·Ñ − β̃) entry
  /// (threshold-combined when the SDC attached partials) and return one
  /// sign byte per packed slot. No re-encryption, no SU key involved — the
  /// values stay ε-masked, so the STP learns no budget signs itself.
  BudgetProbeResponseMsg probe_signs(const BudgetProbeMsg& probe);

  /// Offline optimization: top SU `su_id`'s randomizer reserve up to
  /// `count` r^n factors (and keep it there: RandomizerReserves'
  /// floor), so the conversion re-encryption costs one modular
  /// multiplication per entry instead of a full encryption. The STP knows
  /// every pk_j in advance, so this moves its dominant cost off the request
  /// path — the same trick §VI-A applies to SU request preparation.
  void precompute_su_randomizers(std::uint32_t su_id, std::size_t count);

  /// Always-warm mode (PisaConfig::stp_pool_target > 0): top every reserve
  /// back up to its floor, modexps on the shared thread pool. Called off
  /// the request path (PisaSystem invokes it after each network drain).
  void maintain_pools();

  /// Precomputed factors queued for one SU (0 if it has no reserve).
  std::size_t pool_available(std::uint32_t su_id) const;

  /// The per-SU reserves behind every re-encryption (DESIGN.md §3.5);
  /// ServerStack::idle_step tops them up between requests, under the
  /// RandomizerReserves policy.
  crypto::RandomizerReserves& reserves() { return reserves_; }

  /// Execution lanes for conversion and pool refills (nullptr = sequential).
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  /// Threshold mode (PisaConfig::threshold_stp): at setup this server acts
  /// as the dealer, keeps share 2 and hands share 1 to the SDC (a deployed
  /// system would use a distributed keygen instead). Afterwards, convert()
  /// only opens Ṽ entries whose SDC partial decryption is attached.
  const crypto::ThresholdKeyShare& sdc_share() const;
  bool threshold_mode() const { return deal_.has_value(); }

  /// Wire onto a transport (raw SimulatedNetwork or ReliableTransport)
  /// under `name`, replying to the sender of each conversion request.
  /// Handlers are idempotent under at-least-once delivery: replayed frames
  /// are dropped by a (sender, seq) window, and key registration is
  /// last-writer-wins either way.
  void attach(net::Transport& net, const std::string& name = "stp");

  std::uint64_t conversions_served() const { return conversions_; }
  std::uint64_t entries_converted() const { return entries_; }
  std::uint64_t batches_served() const { return batches_; }
  std::uint64_t probes_served() const { return probes_; }
  std::uint64_t probe_slots_signed() const { return probe_slots_; }

  /// TEST/AUDIT ONLY: decrypt a group-key ciphertext. Models what a curious
  /// STP could compute; the privacy tests use it to show blinded values
  /// carry no sign information.
  bn::BigInt peek_decrypt_signed(const crypto::PaillierCiphertext& ct) const {
    return group_.sk.decrypt_signed(ct);
  }

 private:
  /// One Ṽ entry of a (possibly batched) conversion, flattened: where its
  /// ciphertext lives, which SU key re-encrypts it, and its staged draw
  /// from that SU's reserve.
  struct ConvertEntry;

  /// Sequential pre-pass for `count` entries of one SU, written into
  /// entries[base..base+count): the SU's next `count` reserve draws, in
  /// entry order.
  void stage_randomness(std::uint32_t su_id, std::size_t count,
                        std::vector<ConvertEntry>& entries, std::size_t base);

  /// The conversion kernel: decrypt (threshold or direct), per-slot sign
  /// map, re-encrypt under pk_j — one parallel_for over all flat entries.
  void convert_entries(std::vector<ConvertEntry>& entries);

  PisaConfig cfg_;
  bn::RandomSource& rng_;
  crypto::PaillierKeyPair group_;
  std::shared_ptr<exec::ThreadPool> exec_;
  std::map<std::uint32_t, crypto::PaillierPublicKey> su_keys_;
  std::optional<crypto::ThresholdDeal> deal_;  // set iff cfg.threshold_stp
  net::DedupWindow seen_frames_;  // at-least-once replay defence
  std::uint64_t conversions_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t probe_slots_ = 0;

  /// Per-SU factor streams under a secret seeded once from the
  /// construction rng. Conversion outputs then depend only on each SU's own
  /// consumption order — never on batch composition, thread count or how
  /// this entity's work interleaves with other parties (DESIGN.md §3.5).
  /// Declared last: its seed draw follows key generation.
  crypto::RandomizerReserves reserves_;
};

}  // namespace pisa::core
