#include "core/sdc_state.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "crypto/key_codec.hpp"
#include "exec/thread_pool.hpp"
#include "net/codec.hpp"

namespace pisa::core {

namespace {

using Clock = std::chrono::steady_clock;

/// §3.8 filter false-positive target: a sizing choice only — the exact set
/// vetoes every false positive, so it never changes a decision.
constexpr double kFilterFpp = 1.0 / 1024.0;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

SdcStateEngine::SdcStateEngine(const PisaConfig& cfg,
                               crypto::PaillierPublicKey group_pk,
                               watch::QMatrix e_matrix,
                               const std::array<std::uint8_t, 32>& filter_key)
    : cfg_(cfg), codec_(cfg.slot_bits(), cfg.pack_slots),
      pk_(std::move(group_pk)), e_matrix_(std::move(e_matrix)),
      map_(cfg.channel_groups(), cfg.num_shards),
      ct_width_(pk_.ciphertext_bytes()),
      filter_on_(cfg.denial_filter.enabled), filter_key_(filter_key) {
  cfg_.validate();
  std::size_t blocks = cfg_.watch.grid_rows * cfg_.watch.grid_cols;
  if (e_matrix_.channels() != cfg_.watch.channels || e_matrix_.blocks() != blocks)
    throw std::invalid_argument("SdcStateEngine: E matrix shape mismatch");
  for (std::size_t i = 0; i < e_matrix_.size(); ++i) {
    if (e_matrix_[i] < 0)
      throw std::invalid_argument("SdcStateEngine: E entries must be >= 0");
  }
  budget_ = encrypt_matrix_packed_deterministic(e_matrix_, pk_, codec_,
                                                /*tail_fill=*/1, nullptr);
  shards_.resize(map_.shards());
  if (filter_on_) {
    // Per-shard filters so recovery replays each shard's own kRecExhaust
    // stream against its own table — a global filter would interleave
    // shard mutations and lose byte-identical replay.
    // Each filter is sized for its shard's whole group-range × blocks grid,
    // so it can always hold every cell at once.
    crypto::CuckooParams params;
    params.fingerprint_bits = crypto::cuckoo_fingerprint_bits(kFilterFpp);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      params.capacity = map_.size(s) * blocks;
      shards_[s].filter =
          std::make_unique<crypto::CuckooFilter>(filter_key_, params);
    }
  }
  if (cfg_.durability.enabled) recover();
}

void SdcStateEngine::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

crypto::PaillierCiphertext& SdcStateEngine::budget_at(std::uint32_t group,
                                                      std::uint32_t block) {
  return budget_.at(radio::ChannelId{group}, radio::BlockId{block});
}

std::vector<std::uint32_t> SdcStateEngine::apply_pu_update(
    const PuUpdateMsg& update) {
  if (update.w_column.size() != map_.groups())
    throw std::invalid_argument(
        "SdcStateEngine: W column must have one ciphertext per channel group");
  if (update.block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: PU block outside the service area");
  // The column as cells. A reset ignores the seq; PuDeltaMsg's codec only
  // asks that the journaled one be nonzero.
  PuDeltaMsg column{update.pu_id, /*delta_seq=*/1, {}};
  for (std::uint32_t g = 0; g < map_.groups(); ++g)
    column.cells.push_back({g, update.block, update.w_column[g]});
  auto moved = fold_lanes(column, /*reset=*/true);
  moved.erase(update.block);
  std::vector<std::uint32_t> blocks{update.block};
  blocks.insert(blocks.end(), moved.begin(), moved.end());
  return blocks;
}

void SdcStateEngine::apply_pu_delta(const PuDeltaMsg& delta) {
  if (delta.cells.empty())
    throw std::invalid_argument("SdcStateEngine: empty delta");
  if (delta.delta_seq == 0)
    throw std::invalid_argument("SdcStateEngine: zero delta_seq");
  std::set<std::uint64_t> seen;
  for (const auto& cell : delta.cells) {
    if (cell.group >= map_.groups())
      throw std::invalid_argument(
          "SdcStateEngine: delta cell group out of range");
    if (cell.block >= budget_.blocks())
      throw std::out_of_range("SdcStateEngine: delta cell block out of range");
    if (!seen.insert(cell_key(cell.group, cell.block)).second)
      throw std::invalid_argument("SdcStateEngine: duplicate delta cell");
  }
  fold_lanes(delta, /*reset=*/false);
}

std::set<std::uint32_t> SdcStateEngine::fold_lanes(const PuDeltaMsg& msg,
                                                   bool reset) {
  std::vector<std::set<std::uint32_t>> moved(map_.shards());
  if (map_.shards() == 1) {
    // Single lane: a column's ⌈C/k⌉ cells take the pool, as the unsharded
    // server's column kernels did; a delta's few cells stay sequential.
    moved[0] = fold(0, msg, reset, /*live=*/true, reset ? pool() : nullptr);
  } else {
    // One lane per shard; each writes only its own contiguous row range of
    // budget_, its own WAL and its own contribution map, so lanes share
    // nothing. A shard with no cells in a delta does nothing — its seq
    // guard stays behind, which is safe because a seq only orders the
    // deltas that carry cells for that shard (delivery is ordered per PU).
    exec::parallel_for(pool(), 0, map_.shards(), [&](std::size_t s) {
      PuDeltaMsg slice{msg.pu_id, msg.delta_seq, {}};
      for (const auto& cell : msg.cells)
        if (map_.shard_of(cell.group) == s) slice.cells.push_back(cell);
      if (!slice.cells.empty())
        moved[s] = fold(s, slice, reset, /*live=*/true, nullptr);
    });
  }
  std::set<std::uint32_t> all;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    maybe_compact(s);
    all.merge(moved[s]);
  }
  return all;
}

std::set<std::uint32_t> SdcStateEngine::fold(std::size_t s,
                                             const PuDeltaMsg& slice,
                                             bool reset, bool live,
                                             exec::ThreadPool* inner) {
  auto& sh = shards_[s];
  auto& pu = sh.pus[slice.pu_id];
  // Exactly-once under ordered at-least-once delivery: a re-delivered (or
  // crash-torn, partially applied) delta is rejected by exactly the shards
  // that already journaled it and applied by the rest. A reset needs no
  // guard — re-applying it retracts and re-adds identical cells — and
  // leaves the guard where it was.
  if (!reset && slice.delta_seq <= pu.delta_seq) return {};

  // Journal before apply: once the record is on disk the fold counts as
  // applied — recovery replays it, and a crash between this append and the
  // fold below cannot lose or double-count it.
  if (live && sh.store) {
    net::Encoder enc;
    enc.put_u8(reset ? 1 : 0);
    enc.put_raw(slice.encode(ct_width_));
    sh.store->append(kRecPuFold, enc.take());
  }

  const std::size_t blocks = budget_.blocks();
  auto entry = [&](std::uint64_t key) -> crypto::PaillierCiphertext& {
    return budget_[(key >> 32) * blocks + (key & 0xffffffffu)];
  };
  std::set<std::uint32_t> moved;
  auto touch = [&](std::uint64_t key) {
    moved.insert(static_cast<std::uint32_t>(key & 0xffffffffu));
    if (live) sh.dirty.insert(key);
  };
  if (reset) {
    std::vector<const std::pair<const std::uint64_t, crypto::PaillierCiphertext>*>
        old;
    for (const auto& kv : pu.cells) old.push_back(&kv);
    exec::parallel_for(inner, 0, old.size(), [&](std::size_t i) {
      auto& e = entry(old[i]->first);
      e = pk_.sub(e, old[i]->second);
    });
    for (const auto* kv : old) touch(kv->first);
    pu.cells.clear();
  }
  // Cells within one slice are distinct (validated), so the adds are
  // entry-independent.
  exec::parallel_for(inner, 0, slice.cells.size(), [&](std::size_t i) {
    const auto& cell = slice.cells[i];
    auto& e = entry(cell_key(cell.group, cell.block));
    e = pk_.add(e, cell.delta);
  });
  for (const auto& cell : slice.cells) {
    const std::uint64_t key = cell_key(cell.group, cell.block);
    auto [pos, fresh] = pu.cells.try_emplace(key, cell.delta);
    if (!fresh) pos->second = pk_.add(pos->second, cell.delta);
    touch(key);
  }
  if (!reset) {
    pu.delta_seq = slice.delta_seq;
    if (live) sh.delta_cells_folded += slice.cells.size();
  }
  return moved;
}

void SdcStateEngine::recompute() {
  budget_ = encrypt_matrix_packed_deterministic(e_matrix_, pk_, codec_,
                                                /*tail_fill=*/1, pool());
  // One lane per channel-group row: rows are disjoint, and Paillier
  // addition is commutative over canonical residues, so neither the lane
  // split nor the PU order can change bytes.
  const std::size_t blocks = budget_.blocks();
  exec::parallel_for(pool(), 0, map_.groups(), [&](std::size_t g) {
    const auto row = cell_key(static_cast<std::uint32_t>(g), 0);
    for (const auto& [id, pu] : shards_[map_.shard_of(g)].pus) {
      for (auto it = pu.cells.lower_bound(row);
           it != pu.cells.end() && (it->first >> 32) == g; ++it) {
        auto& e = budget_[g * blocks + (it->first & 0xffffffffu)];
        e = pk_.add(e, it->second);
      }
    }
  });
}

std::uint64_t SdcStateEngine::next_serial() {
  ++serial_;
  if (durable() && serial_ > reserved_floor_) {
    do {
      reserved_floor_ += cfg_.durability.serial_reserve;
    } while (reserved_floor_ < serial_);
    net::Encoder enc;
    enc.put_u64(reserved_floor_);
    // Shard 0 is the serial authority; a recovered engine resumes at the
    // floor, skipping at most the unissued tail of the last chunk.
    shards_[0].store->append(kRecSerial, enc.take());
  }
  return serial_;
}

std::size_t SdcStateEngine::pu_count() const {
  std::set<std::uint32_t> ids;
  for (const auto& sh : shards_)
    for (const auto& [id, pu] : sh.pus) ids.insert(id);
  return ids.size();
}

SdcStateEngine::FilterProbe SdcStateEngine::probe_exhausted(
    std::uint32_t group, std::uint32_t block) const {
  FilterProbe probe;
  if (!filter_on_ || group >= map_.groups()) return probe;
  const auto& sh = shards_[map_.shard_of(group)];
  if (!sh.filter->contains(filter_item(group, block))) return probe;
  probe.cuckoo_hit = true;
  auto it = sh.exhausted.find(block);
  probe.confirmed = it != sh.exhausted.end() && it->second.contains(group);
  return probe;
}

void SdcStateEngine::update_block_exhaustion(
    std::uint32_t block, const std::vector<std::uint32_t>& probed,
    const std::vector<std::uint32_t>& exhausted) {
  if (!filter_on_) return;
  if (block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: exhaustion block out of range");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& sh = shards_[s];
    const std::size_t g0 = map_.begin(s), g1 = map_.end(s);
    // Start from the recorded set; only probed groups may change state.
    std::set<std::uint32_t> next;
    if (auto it = sh.exhausted.find(block); it != sh.exhausted.end())
      next = it->second;
    for (std::uint32_t g : probed)
      if (g >= g0 && g < g1) next.erase(g);
    for (std::uint32_t g : exhausted)
      if (g >= g0 && g < g1) next.insert(g);
    replace_block_exhaustion(
        s, block, std::vector<std::uint32_t>(next.begin(), next.end()));
  }
}

void SdcStateEngine::replace_block_exhaustion(
    std::size_t s, std::uint32_t block,
    const std::vector<std::uint32_t>& mine) {
  auto& sh = shards_[s];
  auto it = sh.exhausted.find(block);
  const bool unchanged =
      it == sh.exhausted.end()
          ? mine.empty()
          : std::equal(mine.begin(), mine.end(), it->second.begin(),
                       it->second.end());
  if (unchanged) return;

  // Journal before apply, like the PU folds: the record carries the full
  // new set so replay applies the identical erase/insert diff in the
  // identical order against the same prior table.
  if (sh.store) {
    net::Encoder enc;
    enc.put_u32(block);
    enc.put_u32(static_cast<std::uint32_t>(mine.size()));
    for (std::uint32_t g : mine) enc.put_u32(g);
    sh.store->append(kRecExhaust, enc.take());
  }
  apply_exhaust(s, block, mine);
  maybe_compact(s);
}

void SdcStateEngine::apply_exhaust(std::size_t s, std::uint32_t block,
                                   const std::vector<std::uint32_t>& groups) {
  auto& sh = shards_[s];
  auto& cur = sh.exhausted[block];
  const std::set<std::uint32_t> next(groups.begin(), groups.end());
  for (std::uint32_t g : cur) {
    if (!next.contains(g) && !sh.filter->erase(filter_item(g, block)))
      throw std::runtime_error("SdcStateEngine: filter erase of a live cell failed");
  }
  for (std::uint32_t g : next) {
    if (!cur.contains(g) && !sh.filter->insert(filter_item(g, block)))
      throw std::runtime_error(
          "SdcStateEngine: cuckoo filter saturated below its whole-grid "
          "capacity");
  }
  if (next.empty())
    sh.exhausted.erase(block);
  else
    cur = next;
}

std::size_t SdcStateEngine::exhausted_entries() const {
  std::size_t total = 0;
  for (const auto& sh : shards_)
    for (const auto& [block, groups] : sh.exhausted) total += groups.size();
  return total;
}

std::vector<std::uint8_t> SdcStateEngine::filter_state_bytes() const {
  net::Encoder enc;
  enc.put_u8(filter_on_ ? 1 : 0);
  if (!filter_on_) return enc.take();
  for (const auto& sh : shards_) {
    enc.put_u32(static_cast<std::uint32_t>(sh.exhausted.size()));
    for (const auto& [block, groups] : sh.exhausted) {
      enc.put_u32(block);
      enc.put_u32(static_cast<std::uint32_t>(groups.size()));
      for (std::uint32_t g : groups) enc.put_u32(g);
    }
    auto table = sh.filter->serialize();
    enc.put_bytes(std::span<const std::uint8_t>(table.data(), table.size()));
  }
  return enc.take();
}

std::vector<std::uint8_t> SdcStateEngine::exhausted_state_bytes() const {
  net::Encoder enc;
  enc.put_u8(filter_on_ ? 1 : 0);
  if (!filter_on_) return enc.take();
  for (const auto& sh : shards_) {
    enc.put_u32(static_cast<std::uint32_t>(sh.exhausted.size()));
    for (const auto& [block, groups] : sh.exhausted) {
      enc.put_u32(block);
      enc.put_u32(static_cast<std::uint32_t>(groups.size()));
      for (std::uint32_t g : groups) enc.put_u32(g);
    }
  }
  return enc.take();
}

void SdcStateEngine::test_inject_filter_collision(std::uint32_t group,
                                                  std::uint32_t block) {
  if (!filter_on_) throw std::logic_error("denial filter is off");
  auto& sh = shards_[map_.shard_of(group)];
  if (!sh.filter->insert(filter_item(group, block)))
    throw std::runtime_error("test collision insert failed");
}

void SdcStateEngine::checkpoint() {
  if (!durable()) return;
  exec::parallel_for(pool(), 0, shards_.size(),
                     [&](std::size_t s) { compact_shard(s); });
}

void SdcStateEngine::maybe_compact(std::size_t s) {
  const auto every = cfg_.durability.snapshot_every;
  if (every == 0 || !shards_[s].store) return;
  if (shards_[s].store->wal_records() >= every) compact_shard(s);
}

void SdcStateEngine::compact_shard(std::size_t s) {
  shards_[s].store->compact(snapshot_payload(s));
  // Everything dirty is now inside the sealed snapshot.
  shards_[s].dirty.clear();
}

std::vector<std::uint8_t> SdcStateEngine::snapshot_payload(std::size_t s) const {
  const auto& sh = shards_[s];
  const std::size_t g0 = map_.begin(s), n = map_.size(s);
  const std::size_t blocks = budget_.blocks();

  net::Encoder enc;
  // Configuration fingerprint: durable state is only valid under the exact
  // shape/packing/sharding/key it was written with.
  enc.put_u32(static_cast<std::uint32_t>(s));
  enc.put_u32(static_cast<std::uint32_t>(map_.shards()));
  enc.put_u32(static_cast<std::uint32_t>(map_.groups()));
  enc.put_u32(static_cast<std::uint32_t>(blocks));
  enc.put_u32(static_cast<std::uint32_t>(codec_.slots()));
  enc.put_u32(static_cast<std::uint32_t>(codec_.slot_bits()));
  enc.put_u32(static_cast<std::uint32_t>(ct_width_));
  enc.put_u64(crypto::key_fingerprint(pk_));
  enc.put_u64(reserved_floor_);

  std::vector<crypto::PaillierCiphertext> rows;
  rows.reserve(n * blocks);
  for (std::size_t g = g0; g < g0 + n; ++g)
    for (std::size_t b = 0; b < blocks; ++b)
      rows.push_back(budget_[g * blocks + b]);
  put_ciphertexts(enc, rows, ct_width_);

  // Per PU: the delta_seq guard (it must survive compaction, resets
  // included) and the contribution's cells.
  enc.put_u32(static_cast<std::uint32_t>(sh.pus.size()));
  for (const auto& [id, pu] : sh.pus) {
    enc.put_u32(id);
    enc.put_u64(pu.delta_seq);
    enc.put_u32(static_cast<std::uint32_t>(pu.cells.size()));
    for (const auto& [key, ct] : pu.cells) {
      enc.put_u64(key);
      enc.put_raw(ct.value.to_bytes_be(ct_width_));
    }
  }

  // §3.8 prefilter state: the exact exhausted map plus the cuckoo table
  // verbatim, so a recovered shard resumes with byte-identical filter bytes
  // (not merely an equivalent set — the kick history matters).
  enc.put_u8(filter_on_ ? 1 : 0);
  if (filter_on_) {
    enc.put_u32(static_cast<std::uint32_t>(sh.exhausted.size()));
    for (const auto& [block, groups] : sh.exhausted) {
      enc.put_u32(block);
      enc.put_u32(static_cast<std::uint32_t>(groups.size()));
      for (std::uint32_t g : groups) enc.put_u32(g);
    }
    auto table = sh.filter->serialize();
    enc.put_bytes(std::span<const std::uint8_t>(table.data(), table.size()));
  }
  return enc.take();
}

void SdcStateEngine::restore_snapshot(std::size_t s,
                                      const std::vector<std::uint8_t>& payload) {
  auto& sh = shards_[s];
  const std::size_t g0 = map_.begin(s), n = map_.size(s);
  const std::size_t blocks = budget_.blocks();

  net::Decoder dec{payload};
  bool ok = dec.get_u32() == s && dec.get_u32() == map_.shards() &&
            dec.get_u32() == map_.groups() && dec.get_u32() == blocks &&
            dec.get_u32() == codec_.slots() &&
            dec.get_u32() == codec_.slot_bits() && dec.get_u32() == ct_width_ &&
            dec.get_u64() == crypto::key_fingerprint(pk_);
  if (!ok)
    throw std::runtime_error(
        "SdcStateEngine: durable state was written under a different "
        "configuration (shape, packing, shard count or group key)");
  std::uint64_t floor = dec.get_u64();
  if (floor > serial_) serial_ = floor;
  if (floor > reserved_floor_) reserved_floor_ = floor;

  auto rows = get_ciphertexts(dec);
  if (rows.size() != n * blocks)
    throw std::runtime_error("SdcStateEngine: snapshot row count mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i)
    budget_[(g0 + i / blocks) * blocks + (i % blocks)] = std::move(rows[i]);

  sh.pus.clear();
  std::uint32_t npus = dec.get_u32();
  for (std::uint32_t i = 0; i < npus; ++i) {
    auto& pu = sh.pus[dec.get_u32()];
    pu.delta_seq = dec.get_u64();
    std::uint32_t ncells = dec.get_u32();
    for (std::uint32_t j = 0; j < ncells; ++j) {
      std::uint64_t key = dec.get_u64();
      const std::size_t g = key >> 32, b = key & 0xffffffffu;
      if (g < g0 || g >= g0 + n || b >= blocks)
        throw std::runtime_error(
            "SdcStateEngine: snapshot cell out of shard range");
      pu.cells[key] = {bn::BigUint::from_bytes_be(dec.get_raw(ct_width_))};
    }
  }

  if ((dec.get_u8() != 0) != filter_on_)
    throw std::runtime_error(
        "SdcStateEngine: durable state was written with a different "
        "denial_filter setting");
  if (filter_on_) {
    sh.exhausted.clear();
    std::uint32_t nblocks = dec.get_u32();
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      std::uint32_t block = dec.get_u32();
      std::uint32_t ngroups = dec.get_u32();
      auto& groups = sh.exhausted[block];
      for (std::uint32_t j = 0; j < ngroups; ++j) groups.insert(dec.get_u32());
    }
    auto table = dec.get_bytes();
    sh.filter->deserialize(table);
  }
  dec.expect_done();
}

void SdcStateEngine::replay_record(std::size_t s, const store::WalRecord& rec) {
  const std::size_t g0 = map_.begin(s), n = map_.size(s);
  if (rec.type == kRecPuFold) {
    if (rec.payload.empty() || rec.payload[0] > 1)
      throw std::runtime_error("SdcStateEngine: WAL fold flag mismatch");
    auto slice = PuDeltaMsg::decode(
        std::vector<std::uint8_t>(rec.payload.begin() + 1, rec.payload.end()));
    for (const auto& cell : slice.cells) {
      if (cell.group < g0 || cell.group >= g0 + n ||
          cell.block >= budget_.blocks())
        throw std::runtime_error("SdcStateEngine: WAL fold cell mismatch");
    }
    fold(s, slice, rec.payload[0] != 0, /*live=*/false, nullptr);
  } else if (rec.type == kRecExhaust) {
    if (!filter_on_)
      throw std::runtime_error(
          "SdcStateEngine: exhaustion WAL record but denial_filter is off");
    net::Decoder dec{rec.payload};
    std::uint32_t block = dec.get_u32();
    std::uint32_t count = dec.get_u32();
    std::vector<std::uint32_t> groups(count);
    for (auto& g : groups) g = dec.get_u32();
    dec.expect_done();
    if (block >= budget_.blocks())
      throw std::runtime_error("SdcStateEngine: WAL exhaustion block mismatch");
    apply_exhaust(s, block, groups);
  } else if (rec.type == kRecSerial) {
    net::Decoder dec{rec.payload};
    std::uint64_t floor = dec.get_u64();
    dec.expect_done();
    if (floor > serial_) serial_ = floor;
    if (floor > reserved_floor_) reserved_floor_ = floor;
  } else {
    throw std::runtime_error("SdcStateEngine: unknown WAL record type " +
                             std::to_string(rec.type));
  }
}

void SdcStateEngine::recover() {
  auto t0 = Clock::now();
  recovery_.ran = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& sh = shards_[s];
    sh.store = std::make_unique<store::ShardStore>(
        std::filesystem::path(cfg_.durability.dir), s);
    auto rec = sh.store->open();
    if (rec.snapshot) {
      recovery_.from_snapshot = true;
      restore_snapshot(s, *rec.snapshot);
    }
    for (const auto& r : rec.wal) replay_record(s, r);
    recovery_.wal_records_replayed += rec.wal.size();
    recovery_.torn_tails_dropped += rec.torn_tail_dropped ? 1 : 0;
    recovery_.stale_logs_removed += rec.stale_logs_removed;
  }
  recovery_.recover_ms = ms_since(t0);
}

std::uint64_t SdcStateEngine::wal_records() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_)
    if (sh.store) total += sh.store->wal_records();
  return total;
}

std::uint64_t SdcStateEngine::wal_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_)
    if (sh.store) total += sh.store->wal_bytes();
  return total;
}

std::uint64_t SdcStateEngine::snapshots_written() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_)
    if (sh.store) total += sh.store->snapshots_written();
  return total;
}

std::size_t SdcStateEngine::dirty_cells() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh.dirty.size();
  return total;
}

std::vector<std::uint64_t> SdcStateEngine::dirty_cells(std::size_t shard) const {
  const auto& d = shards_.at(shard).dirty;
  return {d.begin(), d.end()};
}

std::uint64_t SdcStateEngine::delta_cells_folded() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh.delta_cells_folded;
  return total;
}

}  // namespace pisa::core
