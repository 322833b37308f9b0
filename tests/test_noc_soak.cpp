// NoC chaos soak: seeded random fault plans thrown at the canonical
// contention scenario (4 ports in 2 QoS classes, 6 endpoints over 3
// containment domains, camera + codec + packet streams), every family run
// twice per seed with the fabric fingerprint as the equality witness.
//
// Families:
//   * arbitration-stall storm — grants withheld + credits leaking, the
//     fabric must absorb both without losing a beat;
//   * dropped/corrupt-beat storm — the timeout/retry and CRC/NAK ladders
//     under sustained fire, never a silent corruption;
//   * endpoint-wedge quarantine — wedged endpoints trip the progress
//     watchdog, their domains are drained and parked, other domains flow;
//   * full-catalog bedlam — every noc.* point armed at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "common/hash.hpp"
#include "fault/injector.hpp"
#include "noc/noc.hpp"
#include "noc/workload.hpp"

namespace hermes::noc {
namespace {

constexpr std::uint64_t kStallSeeds = 40;
constexpr std::uint64_t kDropSeeds = 40;
constexpr std::uint64_t kWedgeSeeds = 24;
constexpr std::uint64_t kBedlamSeeds = 24;
static_assert(kStallSeeds + kDropSeeds + kWedgeSeeds + kBedlamSeeds >= 128,
              "the NoC soak must cover at least 128 fault plans");

/// Runs one family member twice and folds the per-seed fingerprints into a
/// family hash; every run must replay bit-identically and stay silent-free.
std::uint64_t soak_family(std::uint64_t first_seed, std::uint64_t seeds,
                          std::span<const std::string_view> points) {
  Fnv64 family_hash;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    std::uint64_t silent_a = ~0ULL;
    std::uint64_t silent_b = ~0ULL;
    const std::uint64_t a = run_noc_chaos_once(seed, points, &silent_a);
    const std::uint64_t b = run_noc_chaos_once(seed, points, &silent_b);
    EXPECT_EQ(a, b) << "seed " << seed << " did not replay bit-identically";
    EXPECT_EQ(silent_a, 0u) << "seed " << seed << " corrupted silently";
    EXPECT_EQ(silent_b, silent_a);
    family_hash.word(a);
  }
  return family_hash.digest();
}

TEST(NocSoak, ArbitrationStallStormIsDeterministic) {
  constexpr std::string_view kPoints[] = {"noc.arb.stall", "noc.credit.leak"};
  const std::uint64_t hash = soak_family(1, kStallSeeds, kPoints);
  EXPECT_NE(hash, Fnv64::kBasis);
}

TEST(NocSoak, DroppedAndCorruptBeatStormIsDeterministic) {
  constexpr std::string_view kPoints[] = {"noc.beat.drop", "noc.beat.corrupt"};
  const std::uint64_t hash = soak_family(101, kDropSeeds, kPoints);
  EXPECT_NE(hash, Fnv64::kBasis);
}

TEST(NocSoak, EndpointWedgeQuarantineIsDeterministic) {
  constexpr std::string_view kPoints[] = {"noc.endpoint.wedge"};
  const std::uint64_t hash = soak_family(201, kWedgeSeeds, kPoints);
  EXPECT_NE(hash, Fnv64::kBasis);
}

TEST(NocSoak, FullCatalogBedlamIsDeterministic) {
  const std::uint64_t hash =
      soak_family(301, kBedlamSeeds, noc_point_catalog());
  EXPECT_NE(hash, Fnv64::kBasis);
}

/// Under a wedge storm, quarantine must contain the damage: every domain the
/// wedge did not hit completes its traffic in full.
TEST(NocSoak, WedgeQuarantineLeavesHealthyDomainsComplete) {
  for (std::uint64_t seed = 401; seed < 401 + kWedgeSeeds; ++seed) {
    ContentionScenario scenario = make_contention_scenario(seed);
    Crossbar fabric(scenario.fabric, scenario.ports, scenario.endpoints);
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.points.push_back(
        {"noc.endpoint.wedge",
         {.probability = 0.25, .max_fires = 1 + seed % 3}});
    fault::FaultInjector injector(plan);
    fabric.attach_injector(&injector);
    for (PortTraffic& t : scenario.traffic) {
      fabric.bind_workload(t.port, t.beats);
    }
    const FabricResult result = fabric.run();
    ASSERT_TRUE(result.status.ok())
        << "seed " << seed << ": " << result.status.to_string();
    EXPECT_EQ(result.silent, 0u) << "seed " << seed;
    for (unsigned domain = 0; domain < fabric.num_domains(); ++domain) {
      if (fabric.domain_quarantined(domain)) continue;
      EXPECT_EQ(result.domains[domain].failed, 0u)
          << "seed " << seed << ": healthy domain " << domain
          << " lost beats";
    }
  }
}

}  // namespace
}  // namespace hermes::noc
