// Compile-service job vocabulary: requests, outcomes, stage keys and the
// deterministic cycle-cost model.
//
// The HLS+NXmap flow is recast as a four-stage pipeline —
//   characterize -> schedule -> map -> bitstream
// — where every stage's product is content-addressed by an FNV-1a digest
// (KeyBuilder below) of everything that can change it (source bytes,
// constraint fields, target model, backend options, upstream netlist
// digest). Key derivation is deliberately field-by-field: adding a knob to
// FlowOptions/BackendOptions without hashing it here would silently serve
// stale artifacts, which is why test_svc_cache mutates every field one at a
// time and asserts the key moves.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "hls/eucalyptus.hpp"
#include "hls/flow.hpp"
#include "hw/netlist.hpp"
#include "nxmap/flow.hpp"

namespace hermes::svc {

/// The stage pipeline, in execution order. A warm prefix (every stage up to
/// some point cached) skips straight to the first cold stage.
enum class Stage {
  kCharacterize = 0,  ///< Eucalyptus sweep for the target (shared per target)
  kSchedule,          ///< front-end + middle-end + scheduled/bound CDFG + FSMD
  kMap,               ///< techmap + place + route + STA + power
  kBitstream,         ///< packed, self-verified programming image
  kCount,
};

const char* to_string(Stage stage);

/// Stage-key builder over a common/hash.hpp Fnv64: folds every integer as
/// its 8 little-endian bytes (Fnv64::le64) after a domain tag, and
/// length-prefixes strings before their raw bytes (Fnv64::bytes) so
/// concatenations cannot alias ("ab"+"c" vs "a"+"bc").
class KeyBuilder {
 public:
  explicit KeyBuilder(std::uint64_t domain_tag) { u64(domain_tag); }

  KeyBuilder& u64(std::uint64_t value) {
    hash_.le64(value);
    return *this;
  }
  KeyBuilder& f64(double value) {
    return u64(std::bit_cast<std::uint64_t>(value));
  }
  KeyBuilder& str(std::string_view text) {
    u64(text.size());
    hash_.bytes(text);
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const { return hash_.digest(); }

 private:
  Fnv64 hash_;
};

/// One compile job. Source-level jobs carry a C kernel through the full
/// flow; netlist-level jobs (source empty, module set) enter at the map
/// stage — the shape DSE drivers and the fuzz oracles use.
struct CompileRequest {
  std::string tenant = "default";
  std::string source;
  std::shared_ptr<const hw::Module> module;  ///< netlist-level entry point
  hls::FlowOptions flow;                     ///< top/constraints/target
  nx::BackendOptions backend;
  bool characterize = true;  ///< run (and cache) the Eucalyptus stage
  /// Deterministic cost budget; the job returns kDeadlineExceeded with
  /// partial stats once the charged cycles reach it.
  std::uint64_t cycle_budget = ~0ULL;
};

/// What one stage of one job did (audit trail; `cycles` is what the stage
/// charged against the budget — kHitCycles when it was served from cache).
struct StageTrace {
  Stage stage = Stage::kCharacterize;
  std::uint64_t key = 0;
  bool hit = false;
  std::uint64_t cycles = 0;
};

struct CompileOutcome {
  Status status;
  std::string tenant;
  std::uint64_t job_id = 0;
  /// Global dispatch slot assigned by the weighted-fair queue. Deterministic
  /// for a fixed submission set regardless of worker count.
  unsigned dispatch_index = 0;
  std::vector<StageTrace> stages;
  std::uint64_t cycles_charged = 0;

  // ---- artifacts (identical warm or cold — the cache-oracle invariant) ----
  std::size_t characterization_points = 0;
  std::uint64_t netlist_digest = 0;  ///< hw::Module::digest() of the design
  unsigned fsm_states = 0;
  nx::TimingReport timing;
  double power_total_mw = 0.0;
  std::vector<std::uint8_t> bitstream;

  /// KeyBuilder fingerprint over the semantic artifacts only (status code,
  /// netlist digest, FSM states, timing/power bits, bitstream bytes) — never
  /// over stats, cycles or hit flags, so a warm run fingerprints identically
  /// to its cold oracle and a pooled run to its serial one.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

// ---- stage-key derivation -------------------------------------------------

std::uint64_t characterize_key(const hls::FpgaTarget& target,
                               const hls::SweepConfig& sweep);
std::uint64_t schedule_key(std::string_view source,
                           const hls::FlowOptions& options);
std::uint64_t map_key(std::uint64_t module_digest,
                      const hls::FpgaTarget& target,
                      const nx::BackendOptions& options);
std::uint64_t bitstream_key(std::uint64_t map_stage_key);

// ---- deterministic cycle-cost model ---------------------------------------
//
// Cycle costs are derived from artifact sizes, never wall clock, so budgets
// behave identically serial vs pooled and across machines.

namespace cost {

inline constexpr std::uint64_t kHitCycles = 1;  ///< cache hit, any stage

std::uint64_t characterize(std::size_t grid_points);
std::uint64_t schedule(std::size_t source_bytes, const hls::FlowResult& flow);
std::uint64_t map(const nx::MapResult& map);
std::uint64_t bitstream(std::size_t image_bytes);

}  // namespace cost

}  // namespace hermes::svc
