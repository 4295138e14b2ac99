#include "crypto/randomizer_pool.hpp"

#include <algorithm>
#include <iterator>

#include "bigint/prime.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::crypto {

RandomizerPool::RandomizerPool(PaillierPublicKey pk, ChaChaRng stream, bool fast)
    : pk_(std::move(pk)), stream_(std::move(stream)) {
  if (fast) use_fast_base();
}

void RandomizerPool::use_fast_base() {
  if (fast_) return;
  trim(0);
  fast_.emplace(pk_, stream_);
}

bn::BigUint RandomizerPool::draw() {
  return fast_ ? bn::random_bits(stream_, FastRandomizerBase::kExponentBits)
               : bn::random_coprime(stream_, pk_.n());
}

RandomizerPool::Draw RandomizerPool::next() {
  if (ready_.empty() && partial_) finish_partial();
  if (ready_.empty()) return {draw(), false};
  Draw d{std::move(ready_.front().factor), true};
  ready_.pop_front();
  return d;
}

void RandomizerPool::finish_partial() {
  partial_->pow.step(SIZE_MAX);
  ready_.push_back({partial_->pow.result(), std::move(partial_->before)});
  partial_.reset();
}

bn::BigUint RandomizerPool::finish(Draw d) const {
  if (d.ready) return std::move(d.value);
  return fast_ ? fast_->from_exponent(d.value)
               : pk_.mont_n2().pow(d.value, pk_.n());
}

void RandomizerPool::fill(std::size_t depth, exec::ThreadPool* pool) {
  if (ready_.size() >= depth) return;
  if (partial_) finish_partial();
  const std::size_t base = ready_.size();
  std::vector<bn::BigUint> draws;
  while (base + draws.size() < depth) {
    ready_.push_back({bn::BigUint{}, stream_});
    draws.push_back(draw());
  }
  exec::parallel_for(pool, 0, draws.size(), [&](std::size_t i) {
    ready_[base + i].factor = finish({std::move(draws[i]), false});
  });
}

void RandomizerPool::step(std::size_t budget) {
  if (fast_) {
    ChaChaRng before = stream_;
    ready_.push_back({fast_->from_exponent(draw()), std::move(before)});
    return;
  }
  if (!partial_) {
    ChaChaRng before = stream_;
    bn::BigUint r = draw();
    partial_.emplace(Partial{std::move(before),
                             bn::ResumablePow{pk_.mont_n2(), r, pk_.n()}});
  }
  if (partial_->pow.step(budget)) finish_partial();
}

void RandomizerPool::trim(std::size_t keep) {
  if (keep < ready_.size()) {
    stream_ = ready_[keep].before;
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(keep), ready_.end());
  } else if (partial_) {
    stream_ = partial_->before;
  }
  partial_.reset();
}

// --- per-SU reserves -----------------------------------------------------------

RandomizerReserves::RandomizerReserves(bn::RandomSource& rng, bool fast)
    : secret_(rng), fast_(fast) {}

RandomizerPool& RandomizerReserves::pool_for(std::uint32_t su_id, Slot& slot,
                                             const PaillierPublicKey& pk) {
  if (slot.pool && slot.pool->public_key() == pk) return *slot.pool;
  if (slot.pool) {
    ++slot.generation;
    queued_ -= slot.pool->available();
  }
  // Stream id = (generation, su_id): one independent ChaCha stream per SU
  // and key, all under the entity's secret.
  const std::uint64_t id = (std::uint64_t{slot.generation} << 32) | su_id;
  slot.pool.emplace(pk, secret_.stream(id), /*fast=*/false);
  return *slot.pool;
}

std::size_t RandomizerReserves::depth(const Slot& slot) {
  const std::uint64_t returns = slot.requests > 0 ? slot.requests - 1 : 0;
  return std::max(slot.floor,
                  static_cast<std::size_t>(std::min<std::uint64_t>(returns, 2)) *
                      slot.largest);
}

void RandomizerReserves::reindex(std::uint32_t su_id, Slot& slot) {
  if (slot.need) needy_.erase({*slot.need, su_id});
  slot.need.reset();
  const std::size_t want = depth(slot);
  if (!slot.pool || slot.pool->available() >= want) return;
  slot.need = static_cast<double>(slot.pool->available()) /
              static_cast<double>(want);
  needy_.emplace(*slot.need, su_id);
}

void RandomizerReserves::expire() {
  while (!recent_.empty()) {
    const std::uint32_t id = recent_.front();
    Slot& slot = slots_.at(id);
    if (slot.last + kIdleHorizon >= tick_) return;
    recent_.pop_front();
    slot.recent.reset();
    slot.requests = 0;
    slot.largest = 0;
    if (slot.pool) {
      const std::size_t before = slot.pool->available();
      slot.pool->trim(slot.floor);
      queued_ -= before - slot.pool->available();
    }
    reindex(id, slot);
  }
}

RandomizerReserves::Taken RandomizerReserves::take(std::uint32_t su_id,
                                                   const PaillierPublicKey& pk,
                                                   std::size_t count) {
  Slot& slot = slots_[su_id];
  RandomizerPool& pool = pool_for(su_id, slot, pk);
  const std::size_t before = pool.available();
  Taken out{&pool, {}};
  out.draws.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.draws.push_back(pool.next());
  queued_ -= before - pool.available();

  slot.last = ++tick_;
  ++slot.requests;
  slot.largest = std::max(slot.largest, count);
  if (slot.recent) recent_.erase(*slot.recent);
  slot.recent = recent_.insert(recent_.end(), su_id);
  reindex(su_id, slot);
  expire();
  return out;
}

void RandomizerReserves::provision(std::uint32_t su_id, const PaillierPublicKey& pk,
                                   std::size_t count, exec::ThreadPool* pool) {
  Slot& slot = slots_[su_id];
  RandomizerPool& p = pool_for(su_id, slot, pk);
  queued_ -= p.available();
  if (fast_) p.use_fast_base();
  p.fill(count, pool);
  queued_ += p.available();
  slot.floor = std::max(slot.floor, count);
  reindex(su_id, slot);
}

void RandomizerReserves::refill_floors(exec::ThreadPool* pool) {
  for (auto& [id, slot] : slots_) {
    if (!slot.pool || slot.floor == 0) continue;
    queued_ -= slot.pool->available();
    slot.pool->fill(slot.floor, pool);
    queued_ += slot.pool->available();
    reindex(id, slot);
  }
}

std::optional<double> RandomizerReserves::neediest() const {
  if (needy_.empty() || queued_ >= kMaxIdleFactors) return std::nullopt;
  return needy_.begin()->first;
}

bool RandomizerReserves::step(std::size_t budget) {
  if (!neediest()) return false;
  const std::uint32_t id = needy_.begin()->second;
  Slot& slot = slots_.at(id);
  const std::size_t before = slot.pool->available();
  slot.pool->step(budget);
  queued_ += slot.pool->available() - before;
  reindex(id, slot);
  return true;
}

const RandomizerPool* RandomizerReserves::find(std::uint32_t su_id) const {
  auto it = slots_.find(su_id);
  return it == slots_.end() || !it->second.pool ? nullptr : &*it->second.pool;
}

std::size_t RandomizerReserves::available(std::uint32_t su_id) const {
  const RandomizerPool* p = find(su_id);
  return p == nullptr ? 0 : p->available();
}

}  // namespace pisa::crypto
