// Content-addressed flow-artifact cache with an LRU byte budget, integrity
// checking, and in-flight compile deduplication.
//
// This scales the hw::jit::KernelCache idiom (Module::digest() ->
// compiled kernel) up to whole flow stages: Eucalyptus characterizations,
// scheduled CDFGs, mapped netlists and packed bitstreams, each keyed by an
// FNV digest of everything that can change it (see svc/job.hpp).
//
// Integrity invariant — never serve rot silently: every entry stores a
// canonical byte image of its artifact plus the FNV-1a byte fold of that
// image (Fnv64::bytes, common/hash.hpp), captured at insert. Every lookup
// re-hashes the image before serving; a mismatch (storage rot, modeled by
// the `svc.cache.entry.rot` injection point) counts as rot_detected, evicts
// the entry, and falls through to a recompile. `rot_served` is pinned to
// zero by construction and asserted in the soak suite.
//
// Dedup invariant — one compile per digest: concurrent requesters of the
// same (stage, key) elect one compiler; the rest park on a latch and share
// the result. Unlike KernelCache (compile-under-lock), computes here run
// outside the table mutex, so *distinct* keys compile in parallel — the
// compile-farm case.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fault/injector.hpp"
#include "svc/job.hpp"

namespace hermes::svc {

struct FlowCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< lookups that elected this caller to compute
  std::uint64_t computes = 0;  ///< successful computes (== inserts)
  std::uint64_t evictions = 0;         ///< LRU + storm evictions
  std::uint64_t inflight_waits = 0;    ///< requests that parked on a latch
  std::uint64_t rot_detected = 0;      ///< image check failed; entry dropped
  std::uint64_t rot_served = 0;        ///< MUST stay 0 (soak-asserted)
  std::uint64_t evict_storms = 0;      ///< injected mass evictions
  std::uint64_t bytes_in_use = 0;      ///< current image bytes held
  std::uint64_t bytes_evicted = 0;     ///< cumulative image bytes shed
};

class FlowCache {
 public:
  static constexpr std::size_t kDefaultByteBudget = 256ull << 20;

  explicit FlowCache(std::size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget == 0 ? 1 : byte_budget) {}

  /// Registers the svc.cache.* points. All injector traffic happens under
  /// the cache mutex, honoring the injector's single-thread contract.
  void attach_injector(fault::FaultInjector* injector);

  /// Returns the cached artifact for (stage, key), computing and inserting
  /// on miss. `compute` may return null (stage failed / job cancelled):
  /// nothing is inserted and null is returned — including to latch waiters,
  /// who should fall back to computing inline (`was_waiter` tells them so).
  /// `image_of` renders the canonical integrity image stored with the entry.
  template <typename T>
  std::shared_ptr<const T> get_or_compute(
      Stage stage, std::uint64_t key,
      const std::function<std::shared_ptr<const T>()>& compute,
      const std::function<std::vector<std::uint8_t>(const T&)>& image_of,
      bool* was_hit = nullptr, bool* was_waiter = nullptr) {
    auto erased = get_or_compute_erased(
        stage, key,
        [&]() -> std::shared_ptr<const void> { return compute(); },
        [&](const void* value) {
          return image_of(*static_cast<const T*>(value));
        },
        was_hit, was_waiter);
    return std::static_pointer_cast<const T>(erased);
  }

  [[nodiscard]] bool contains(Stage stage, std::uint64_t key) const;
  void clear();
  void set_byte_budget(std::size_t byte_budget);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] FlowCacheStats stats() const;
  void reset_stats();

 private:
  struct Entry {
    std::shared_ptr<const void> object;
    std::vector<std::uint8_t> image;  ///< canonical bytes; integrity carrier
    std::uint64_t check = 0;          ///< Fnv64::bytes of image at insert
    std::uint64_t tick = 0;           ///< last-use stamp for LRU
    Stage stage = Stage::kCharacterize;
  };
  /// Latch shared by concurrent requesters of one in-flight compute.
  struct Inflight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const void> value;
  };

  std::shared_ptr<const void> get_or_compute_erased(
      Stage stage, std::uint64_t key,
      const std::function<std::shared_ptr<const void>()>& compute,
      const std::function<std::vector<std::uint8_t>(const void*)>& image_of,
      bool* was_hit, bool* was_waiter);

  void evict_lru_locked();                 ///< shed LRU entries over budget
  void erase_locked(std::uint64_t slot);   ///< drop one entry, byte-accounted

  static std::uint64_t slot_of(Stage stage, std::uint64_t key);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  std::uint64_t tick_ = 0;
  std::size_t byte_budget_;
  FlowCacheStats stats_;
  fault::FaultInjector* injector_ = nullptr;
  fault::PointId rot_point_ = fault::kNoFaultPoint;
  fault::PointId storm_point_ = fault::kNoFaultPoint;
};

}  // namespace hermes::svc
