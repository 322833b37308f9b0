// Process-wide content-addressed kernel cache.
//
// Keyed by Module::digest() — a structural hash over widths, connectivity,
// cell kinds/params and memory images — so every simulator of a structurally
// identical netlist (SEU campaign replicas, forked SoC copies, repeated test
// constructions) shares one compiled kernel and pays the compile cost once.
// Bounded LRU: evicted kernels stay alive as long as any simulator still
// holds its shared_ptr.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "hw/jit/kernel.hpp"

namespace hermes::hw::jit {

struct KernelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compiles = 0;    ///< successful compiles (== inserts)
  std::uint64_t evictions = 0;
  std::uint64_t compile_ns = 0;  ///< total wall-clock spent compiling
};

class KernelCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  /// The process-wide instance every Simulator consults.
  static KernelCache& global();

  /// Returns the cached kernel for `digest`, compiling and inserting on miss.
  /// Null (and no stats movement) when JIT execution is unavailable; null
  /// after a miss when compilation fails.
  std::shared_ptr<const JitKernel> get_or_compile(std::uint64_t digest,
                                                  const CompiledNetlist& net);

  void clear();
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] KernelCacheStats stats() const;
  void reset_stats();

 private:
  void evict_locked();

  struct Entry {
    std::shared_ptr<const JitKernel> kernel;
    std::uint64_t tick = 0;  ///< last-use stamp for LRU
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  KernelCacheStats stats_;
};

}  // namespace hermes::hw::jit
