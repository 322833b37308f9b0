#include "hw/jit/cache.hpp"

#include "hw/jit/exec_memory.hpp"

namespace hermes::hw::jit {

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

std::shared_ptr<const JitKernel> KernelCache::get_or_compile(
    std::uint64_t digest, const CompiledNetlist& net) {
  // Availability is checked before any bookkeeping: a disabled JIT is a
  // silent fallback, not a cache miss.
  if (!jit_available()) return nullptr;

  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = entries_.find(digest); it != entries_.end()) {
    ++stats_.hits;
    it->second.tick = ++tick_;
    return it->second.kernel;
  }
  ++stats_.misses;
  std::shared_ptr<const JitKernel> kernel = JitKernel::compile(net);
  if (kernel == nullptr) return nullptr;  // encode/map failure: not cached
  ++stats_.compiles;
  stats_.compile_ns += kernel->stats().compile_ns;
  entries_[digest] = Entry{kernel, ++tick_};
  evict_locked();
  return kernel;
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

void KernelCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  evict_locked();
}

std::size_t KernelCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void KernelCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = KernelCacheStats{};
}

void KernelCache::evict_locked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.tick < victim->second.tick) victim = it;
    }
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace hermes::hw::jit
