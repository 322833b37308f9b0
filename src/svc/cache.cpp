#include "svc/cache.hpp"

#include <span>
#include <utility>

#include "common/hash.hpp"

namespace hermes::svc {

void FlowCache::attach_injector(fault::FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mutex_);
  injector_ = injector;
  if (injector_ != nullptr) {
    rot_point_ = injector_->register_point("svc.cache.entry.rot");
    storm_point_ = injector_->register_point("svc.cache.evict.storm");
  } else {
    rot_point_ = fault::kNoFaultPoint;
    storm_point_ = fault::kNoFaultPoint;
  }
}

std::uint64_t FlowCache::slot_of(Stage stage, std::uint64_t key) {
  // Stage keys are already domain-tagged (job.cpp); folding the stage again
  // is belt-and-braces against a caller reusing one key across stages.
  return KeyBuilder(static_cast<std::uint64_t>(stage) + 1).u64(key).digest();
}

std::shared_ptr<const void> FlowCache::get_or_compute_erased(
    Stage stage, std::uint64_t key,
    const std::function<std::shared_ptr<const void>()>& compute,
    const std::function<std::vector<std::uint8_t>(const void*)>& image_of,
    bool* was_hit, bool* was_waiter) {
  if (was_hit != nullptr) *was_hit = false;
  if (was_waiter != nullptr) *was_waiter = false;
  const std::uint64_t slot = slot_of(stage, key);

  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (auto it = entries_.find(slot); it != entries_.end()) {
      Entry& entry = it->second;
      // One rot opportunity per lookup of this entry. The injector flips
      // bits in the stored image — the storage medium, not the object — and
      // the check below must catch it before anything is served.
      if (injector_ != nullptr && rot_point_ != fault::kNoFaultPoint &&
          injector_->should_fire(rot_point_)) {
        injector_->mutate_bytes(rot_point_,
                                std::span<std::uint8_t>(entry.image));
      }
      if (Fnv64().bytes(entry.image).digest() == entry.check) {
        ++stats_.hits;
        entry.tick = ++tick_;
        if (was_hit != nullptr) *was_hit = true;
        return entry.object;
      }
      // Integrity breach: drop the entry and recompile. Never served. Not
      // counted as an eviction — rot drops and capacity sheds are distinct.
      ++stats_.rot_detected;
      stats_.bytes_in_use -= entry.image.size();
      entries_.erase(it);
    }
    if (auto it = inflight_.find(slot); it != inflight_.end()) {
      ++stats_.inflight_waits;
      flight = it->second;
    } else {
      // This caller is the elected compiler for the digest.
      ++stats_.misses;
      inflight_[slot] = std::make_shared<Inflight>();
    }
    if (flight != nullptr) {
      lock.unlock();
      std::unique_lock<std::mutex> parked(flight->mutex);
      flight->cv.wait(parked, [&] { return flight->done; });
      if (flight->value != nullptr) {
        if (was_hit != nullptr) *was_hit = true;
        return flight->value;
      }
      // The compiler failed or was cancelled mid-stage; tell the caller to
      // fall back to an inline compute of its own.
      if (was_waiter != nullptr) *was_waiter = true;
      return nullptr;
    }
  }

  // Elected compiler: run outside the lock so distinct keys overlap.
  std::shared_ptr<const void> value = compute();
  std::vector<std::uint8_t> image;
  if (value != nullptr) image = image_of(value.get());

  std::shared_ptr<Inflight> mine;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(slot);
    mine = it->second;
    inflight_.erase(it);
    if (value != nullptr) {
      ++stats_.computes;
      Entry entry;
      entry.object = value;
      entry.check = Fnv64().bytes(image).digest();
      stats_.bytes_in_use += image.size();
      entry.image = std::move(image);
      entry.tick = ++tick_;
      entry.stage = stage;
      entries_[slot] = std::move(entry);
      // Injected eviction storm: spuriously shed the LRU half. Correctness
      // must not depend on residency — storms only cost recompiles.
      if (injector_ != nullptr && storm_point_ != fault::kNoFaultPoint &&
          injector_->should_fire(storm_point_)) {
        ++stats_.evict_storms;
        const std::size_t survivors = (entries_.size() + 1) / 2;
        while (entries_.size() > survivors) evict_lru_locked();
      }
      while (stats_.bytes_in_use > byte_budget_ && entries_.size() > 1) {
        evict_lru_locked();
      }
    }
  }
  {
    std::lock_guard<std::mutex> parked(mine->mutex);
    mine->value = value;
    mine->done = true;
  }
  mine->cv.notify_all();
  return value;
}

void FlowCache::evict_lru_locked() {
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.tick < victim->second.tick) victim = it;
  }
  erase_locked(victim->first);
}

void FlowCache::erase_locked(std::uint64_t slot) {
  auto it = entries_.find(slot);
  if (it == entries_.end()) return;
  stats_.bytes_in_use -= it->second.image.size();
  stats_.bytes_evicted += it->second.image.size();
  ++stats_.evictions;
  entries_.erase(it);
}

bool FlowCache::contains(Stage stage, std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(slot_of(stage, key)) != entries_.end();
}

void FlowCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_.bytes_in_use = 0;
}

void FlowCache::set_byte_budget(std::size_t byte_budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  byte_budget_ = byte_budget == 0 ? 1 : byte_budget;
  while (stats_.bytes_in_use > byte_budget_ && entries_.size() > 1) {
    evict_lru_locked();
  }
}

std::size_t FlowCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

FlowCacheStats FlowCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FlowCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t in_use = stats_.bytes_in_use;
  stats_ = FlowCacheStats{};
  stats_.bytes_in_use = in_use;
}

}  // namespace hermes::svc
