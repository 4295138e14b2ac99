// Sharded SDC state engine with write-ahead durability (DESIGN.md §3.6).
//
// Owns everything the SDC must not lose across a crash: the encrypted
// interference budget Ñ (eq. (10)), each PU's stored contribution to it
// (needed to retract that contribution on the PU's next full column) and the
// license serial counter. The ⌈C/pack_slots⌉ channel-group rows are
// partitioned into num_shards contiguous slices (core/shard_map): a PU fold
// reaches every shard that owns one of its cells, but each shard touches
// only its own row range, so the fold runs one parallel lane per shard with
// no locks — and each shard journals to its own WAL and compacts into its
// own snapshot (store/), so recovery is an embarrassingly parallel
// per-shard replay.
//
// One fold path serves both PU messages: a §3.9 delta adds its cells on top
// of the PU's contribution, and a full W̃ column is a *reset* fold — retract
// the PU's whole contribution (previous column plus every delta since),
// then add the column's ⌈C/k⌉ cells at its block.
//
// Contracts the tests pin down:
//   * Any shard count yields the same Ñ bytes as shard count 1 — folds are
//     entry-independent and Paillier addition lands on canonical residues,
//     so slicing and fold order change nothing.
//   * recover() (run by the constructor when durability is on) rebuilds
//     byte-identical state from snapshot + WAL replay: journaling happens
//     before the in-memory apply, a record present in the log is by
//     definition applied, and re-delivery of an already-applied column
//     retracts and re-adds identical cells — a modular no-op. That is
//     what turns at-least-once delivery into exactly-once application.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/cipher_ops.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/shard_map.hpp"
#include "crypto/cuckoo_filter.hpp"
#include "crypto/packing.hpp"
#include "crypto/paillier.hpp"
#include "store/shard_store.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class SdcStateEngine {
 public:
  /// WAL record types (store/wal payload tags). Tags 1 and 4 are retired:
  /// replay rejects them as unknown types.
  static constexpr std::uint8_t kRecSerial = 2;   ///< serial floor reservation
  static constexpr std::uint8_t kRecExhaust = 3;  ///< shard-local exhausted set
                                                  ///< for one block (§3.8)
  static constexpr std::uint8_t kRecPuFold = 5;   ///< u8 reset | one shard's
                                                  ///< PuDeltaMsg slice

  /// Initializes Ñ from the public matrix E (deterministic encryption, tail
  /// slots seeded with 1 — see SdcServer) and, when durability is enabled,
  /// immediately recovers from cfg.durability.dir: per shard, load the
  /// sealed snapshot (if any), replay its epoch's WAL over it, drop any
  /// torn tail and stale-epoch logs. Throws std::runtime_error when the
  /// durable state was written under a different configuration (shape,
  /// packing, shard count or group key).
  /// `filter_key` keys the §3.8 cuckoo prefilter fingerprints; it is only
  /// read when cfg.denial_filter.enabled (pass {} otherwise).
  SdcStateEngine(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
                 watch::QMatrix e_matrix,
                 const std::array<std::uint8_t, 32>& filter_key = {});

  /// Shard lanes (nullptr = sequential). With one shard a full column's
  /// cell work runs on the pool; with more, the pool runs one lane per
  /// shard and the fold inside each lane goes sequential.
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  const CipherMatrix& budget() const { return budget_; }
  crypto::PaillierCiphertext& budget_at(std::uint32_t group, std::uint32_t block);
  const ShardMap& shard_map() const { return map_; }

  /// Reset fold of one PU column: journal the per-shard slices, retract
  /// the PU's whole stored contribution, add the column's cells.
  /// Idempotent under re-delivery. Returns every block whose cells the fold
  /// retracted or added: the column's block first, then the rest ascending.
  std::vector<std::uint32_t> apply_pu_update(const PuUpdateMsg& update);

  /// Fold an incremental PU delta (§3.9): each cell multiplies one budget
  /// entry — O(cells) work instead of O(groups × touched blocks). Per-shard
  /// delta sequence numbers turn at-least-once ordered delivery into
  /// exactly-once application: a shard applies a delta iff its
  /// `delta_seq` exceeds the last one it journaled for that PU (a reset
  /// leaves that guard alone), so a crash-torn delta (applied by some
  /// shards, lost by others) heals on re-delivery without double-folding
  /// anywhere. Throws on out-of-range cell coordinates, duplicate cells, an
  /// empty cell list or a zero seq.
  void apply_pu_delta(const PuDeltaMsg& delta);

  /// Cell key for contribution/dirty bookkeeping: (group, block) packed
  /// into one word, ordered group-major.
  static std::uint64_t cell_key(std::uint32_t group, std::uint32_t block) {
    return (static_cast<std::uint64_t>(group) << 32) | block;
  }

  /// Rebuild Ñ from Ẽ and every stored PU contribution (the paper's literal
  /// eq. (9)/(10) aggregation). Derivable state — nothing is journaled.
  void recompute();

  /// Next license serial. Durable mode reserves serials from the WAL in
  /// chunks (DurabilityConfig::serial_reserve) so serials stay strictly
  /// monotonic across crash/recovery at one tiny record per chunk.
  std::uint64_t next_serial();
  std::uint64_t serial() const { return serial_; }

  /// Compact every shard now: sealed snapshot of its current slice, fresh
  /// WAL, old log removed. No-op when durability is off.
  void checkpoint();

  /// PUs with a stored contribution in any shard.
  std::size_t pu_count() const;

  // ── §3.8 denial prefilter ─────────────────────────────────────────────
  //
  // Each shard keeps an exact exhausted map {block → sorted group set} for
  // its own channel-group rows, mirrored into a keyed cuckoo filter. The
  // request path asks the filter first (cheap, keyed-hash lookups); only a
  // cuckoo hit pays the exact-set probe, and only an exact-set confirmation
  // may deny — cuckoo false positives can never cause a false denial.

  bool filter_enabled() const { return filter_on_; }

  /// Result of one (group, block) prefilter lookup.
  struct FilterProbe {
    bool cuckoo_hit = false;  ///< keyed filter said "maybe exhausted"
    bool confirmed = false;   ///< exact set agrees — denial is provable
  };
  FilterProbe probe_exhausted(std::uint32_t group, std::uint32_t block) const;

  /// Install re-probe evidence for `block`: only the groups in `probed`
  /// were re-evaluated, so only their membership may change — groups
  /// outside `probed` keep their recorded state (their budget cells did not
  /// move). New set = (current − probed) ∪ (probed ∩ exhausted); an empty
  /// `exhausted` is the conservative invalidation a fold starts with.
  /// Journals a kRecExhaust diff per shard whose set actually changed, so
  /// WAL replay rebuilds the filter byte-identically. Exact sets match
  /// across fold paths (exhausted_state_bytes is the cross-path oracle);
  /// raw cuckoo table bytes may differ — paths erase/insert in different
  /// orders.
  void update_block_exhaustion(std::uint32_t block,
                               const std::vector<std::uint32_t>& probed,
                               const std::vector<std::uint32_t>& exhausted);

  /// Live (group, block) exhausted cells across all shards.
  std::size_t exhausted_entries() const;

  /// Serialized filter + exhausted-set state of every shard, in shard
  /// order — the byte-identity oracle for the recovery tests.
  std::vector<std::uint8_t> filter_state_bytes() const;

  /// Exact exhausted sets only, no cuckoo table bytes — the cross-path
  /// equivalence oracle (§3.9). Decisions depend solely on the exact sets
  /// (a denial needs a cuckoo hit *and* exact-set confirmation, and the
  /// filter has no false negatives for recorded cells), while the table's
  /// raw bytes are insert/erase-history-dependent and may differ between
  /// the delta path and a full-rebuild oracle.
  std::vector<std::uint8_t> exhausted_state_bytes() const;

  /// TEST ONLY: plant (group, block) in the owning shard's cuckoo table
  /// without touching the exact set — manufactures a false positive so the
  /// fallback path can be exercised deterministically.
  void test_inject_filter_collision(std::uint32_t group, std::uint32_t block);

  bool durable() const { return !shards_.front().store ? false : true; }

  struct RecoveryStats {
    bool ran = false;            ///< durability was on and recover executed
    bool from_snapshot = false;  ///< at least one shard loaded a snapshot
    std::uint64_t wal_records_replayed = 0;
    std::uint64_t torn_tails_dropped = 0;
    std::uint64_t stale_logs_removed = 0;
    double recover_ms = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_; }

  /// Live WAL records across all shards (since their last compaction).
  std::uint64_t wal_records() const;
  std::uint64_t wal_bytes() const;
  std::uint64_t snapshots_written() const;

  // ── §3.9 dirty-pack tracking ──────────────────────────────────────────
  //
  // Each shard records the (group, block) budget cells touched since its
  // last compaction — every cell a live fold retracted or added. The set
  // is what makes WAL volume and exhaustion re-probes diff-proportional,
  // and the bench reads it to report delta cells per tick.

  /// Dirty budget cells across all shards since their last compaction.
  std::size_t dirty_cells() const;
  /// One shard's dirty cell keys (cell_key order) — test introspection.
  std::vector<std::uint64_t> dirty_cells(std::size_t shard) const;
  /// Total delta cells folded by apply_pu_delta since construction
  /// (live applies only; recovery replay does not count).
  std::uint64_t delta_cells_folded() const;

 private:
  /// One PU's stored share of Ñ within one shard: the net ciphertext it
  /// folded into each of the shard's budget cells (its last column's cells
  /// plus every delta since), and the last delta_seq this shard applied.
  struct Contribution {
    std::map<std::uint64_t, crypto::PaillierCiphertext> cells;  // cell_key
    std::uint64_t delta_seq = 0;
  };
  struct Shard {
    std::map<std::uint32_t, Contribution> pus;
    std::unique_ptr<store::ShardStore> store;  ///< null when durability is off
    /// §3.8: exact exhausted cells {block → sorted groups} for this shard's
    /// rows, and the keyed cuckoo mirror (null when the filter is off).
    std::map<std::uint32_t, std::set<std::uint32_t>> exhausted;
    std::unique_ptr<crypto::CuckooFilter> filter;
    /// Budget cells touched since the last compaction.
    std::set<std::uint64_t> dirty;
    std::uint64_t delta_cells_folded = 0;
  };

  exec::ThreadPool* pool() const { return exec_.get(); }
  /// Slice a validated message across the shard lanes, fold each slice,
  /// then compact where due. Returns the blocks the folds moved.
  std::set<std::uint32_t> fold_lanes(const PuDeltaMsg& msg, bool reset);
  /// Fold one shard's slice (cells restricted to its rows, non-empty):
  /// seq-check a delta, journal, retract the PU's contribution when
  /// `reset`, add the cells to the budget and to the contribution, mark
  /// dirty. `live` is false during WAL replay: the record is already on
  /// disk and the dirty/fold counters describe live traffic only. `inner`
  /// runs the cells' Paillier work (non-null only on the single-shard
  /// path). Returns the blocks whose cells it retracted or added.
  std::set<std::uint32_t> fold(std::size_t s, const PuDeltaMsg& slice,
                               bool reset, bool live, exec::ThreadPool* inner);
  /// Journal + apply a shard's new exhausted set for `block` when it
  /// differs from the recorded one. `mine` must be sorted, deduped and
  /// restricted to the shard's rows.
  void replace_block_exhaustion(std::size_t s, std::uint32_t block,
                                const std::vector<std::uint32_t>& mine);
  /// Apply one shard's exhausted-set replacement for `block` (the journaled
  /// kRecExhaust operation): erase departed groups from the cuckoo table in
  /// ascending order, insert new ones in ascending order, store the set.
  void apply_exhaust(std::size_t s, std::uint32_t block,
                     const std::vector<std::uint32_t>& groups);
  static std::uint64_t filter_item(std::uint32_t group, std::uint32_t block) {
    return cell_key(group, block);
  }
  void maybe_compact(std::size_t s);
  void compact_shard(std::size_t s);
  std::vector<std::uint8_t> snapshot_payload(std::size_t s) const;
  void restore_snapshot(std::size_t s, const std::vector<std::uint8_t>& payload);
  void replay_record(std::size_t s, const store::WalRecord& rec);
  void recover();

  PisaConfig cfg_;
  crypto::SlotCodec codec_;
  crypto::PaillierPublicKey pk_;
  watch::QMatrix e_matrix_;
  ShardMap map_;
  std::size_t ct_width_;
  std::shared_ptr<exec::ThreadPool> exec_;

  bool filter_on_ = false;
  std::array<std::uint8_t, 32> filter_key_{};

  CipherMatrix budget_;  // Ñ — shards write disjoint row ranges
  std::vector<Shard> shards_;
  std::uint64_t serial_ = 0;
  std::uint64_t reserved_floor_ = 0;  // serials journaled as issued-or-skipped
  RecoveryStats recovery_;
};

}  // namespace pisa::core
