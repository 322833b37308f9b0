// Compile-service soak: serial-vs-pooled determinism over a large mixed
// corpus, run twice, plus fault-injection families over the svc.cache.*
// points.
//
// The determinism claim mirrors every other soak in the repo (soak_util.hpp
// style): fingerprint an entire run with FNV over its outcomes, run it again,
// require equality — and additionally require the pooled service to
// fingerprint identically to the serial reference. The fault families then
// assert the integrity invariant under storage rot and eviction storms:
// detected, recompiled, never served.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.hpp"
#include "fault/injector.hpp"
#include "svc/service.hpp"
#include "svc_corpus.hpp"

namespace hermes::svc {
namespace {

constexpr int kJobs = 132;  // >= 128 mixed jobs per run
constexpr std::uint64_t kCorpusSeed = 0x50AC;

hls::SweepConfig small_sweep() {
  hls::SweepConfig sweep;
  sweep.ops = {ir::Op::kAdd, ir::Op::kMul};
  sweep.widths = {8, 32};
  sweep.pipeline_stages = {0, 1};
  sweep.clock_periods_ns = {4.0, 8.0};
  return sweep;
}

ServiceOptions soak_options(unsigned workers) {
  ServiceOptions options;
  options.workers = workers;
  options.sweep = small_sweep();
  return options;
}

std::vector<CompileRequest> soak_corpus() {
  return corpus::mixed_corpus(kJobs, kCorpusSeed, {"alpha", "beta", "gamma"});
}

/// FNV fingerprint over the semantic artifacts of a full run. Stats, cycle
/// charges and dispatch slots are deliberately excluded — hit patterns and
/// dispatch counters differ between passes; artifacts may not.
std::uint64_t artifact_fingerprint(const std::vector<CompileOutcome>& outcomes) {
  Fnv64 hash;
  for (const CompileOutcome& outcome : outcomes) {
    hash.word(outcome.fingerprint());
    hash.word(static_cast<std::uint64_t>(outcome.status.code()));
  }
  return hash.digest();
}

/// Artifacts plus the WFQ dispatch order — the serial-vs-pooled contract.
/// Only comparable between FRESH services draining the same submission set
/// (a reused service continues its dispatch counter across drains).
std::uint64_t run_fingerprint(const std::vector<CompileOutcome>& outcomes) {
  Fnv64 hash(artifact_fingerprint(outcomes));
  for (const CompileOutcome& outcome : outcomes) {
    hash.word(outcome.dispatch_index);
  }
  return hash.digest();
}

std::vector<CompileOutcome> run_soak(unsigned workers,
                                     fault::FaultInjector* injector = nullptr) {
  ServiceOptions options = soak_options(workers);
  options.injector = injector;
  CompileService service(options);
  service.set_tenant_weight("alpha", 2);
  return service.run(soak_corpus());
}

fault::FaultPlan one_point_plan(std::string point, double probability,
                                std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::FaultSchedule schedule;
  schedule.probability = probability;
  plan.points.push_back({std::move(point), schedule});
  return plan;
}

// ---------------------------------------------------------------------------
// Serial vs pooled, run twice
// ---------------------------------------------------------------------------

TEST(SvcSoak, PooledRunsBitIdenticalToSerialRunTwice) {
  const std::vector<CompileOutcome> serial_a = run_soak(0);
  const std::vector<CompileOutcome> serial_b = run_soak(0);
  const std::vector<CompileOutcome> pooled_a = run_soak(4);
  const std::vector<CompileOutcome> pooled_b = run_soak(4);

  const std::uint64_t reference = run_fingerprint(serial_a);
  EXPECT_EQ(run_fingerprint(serial_b), reference) << "serial not repeatable";
  EXPECT_EQ(run_fingerprint(pooled_a), reference) << "pooled diverged";
  EXPECT_EQ(run_fingerprint(pooled_b), reference) << "pooled not repeatable";

  // Per-job drill-down so a divergence names the job, not just the run.
  for (std::size_t i = 0; i < serial_a.size(); ++i) {
    ASSERT_EQ(serial_a[i].fingerprint(), pooled_a[i].fingerprint())
        << "job " << i << " (" << serial_a[i].tenant << ")";
    ASSERT_EQ(serial_a[i].dispatch_index, pooled_a[i].dispatch_index)
        << "job " << i;
    ASSERT_EQ(serial_a[i].bitstream, pooled_a[i].bitstream) << "job " << i;
  }
}

TEST(SvcSoak, WarmSecondPassMatchesAndServesFromCache) {
  CompileService service(soak_options(0));
  const std::vector<CompileOutcome> cold = service.run(soak_corpus());
  service.cache().reset_stats();
  const std::vector<CompileOutcome> warm = service.run(soak_corpus());
  ASSERT_EQ(artifact_fingerprint(warm), artifact_fingerprint(cold));
  const FlowCacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.computes, 0u) << "warm pass recompiled something";
  EXPECT_GT(stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// Fault families over svc.cache.*
// ---------------------------------------------------------------------------

TEST(SvcSoak, RottedEntriesAreDetectedRecompiledNeverServed) {
  // Rot fires on lookups of resident entries (the injector flips bits in
  // the stored image); every detection must recompile and every outcome
  // must still match the uninjected oracle. Serial service: the injector's
  // firing stream is deterministic only single-threaded.
  const std::vector<CompileOutcome> oracle = run_soak(0);

  fault::FaultInjector injector(
      one_point_plan("svc.cache.entry.rot", 0.35, 0xD0D0));
  ServiceOptions options = soak_options(0);
  options.injector = &injector;
  CompileService service(options);
  service.set_tenant_weight("alpha", 2);
  const std::vector<CompileOutcome> rotted = service.run(soak_corpus());
  // Second pass over the same corpus: all-resident lookups, maximum rot
  // exposure.
  const std::vector<CompileOutcome> rotted_warm = service.run(soak_corpus());

  const FlowCacheStats stats = service.cache().stats();
  ASSERT_GT(stats.rot_detected, 0u) << "rot never fired; family is vacuous";
  EXPECT_EQ(stats.rot_served, 0u);
  EXPECT_EQ(run_fingerprint(rotted), run_fingerprint(oracle))
      << "a rotted artifact leaked into an outcome";
  EXPECT_EQ(artifact_fingerprint(rotted_warm), artifact_fingerprint(oracle))
      << "warm pass served a rotted artifact";

  const fault::PointId point = injector.find_point("svc.cache.entry.rot");
  ASSERT_NE(point, fault::kNoFaultPoint);
  EXPECT_EQ(injector.stats(point).fires, stats.rot_detected)
      << "every fired rot must be detected, none silently served";
}

TEST(SvcSoak, EvictionStormsCostOnlyRecompiles) {
  const std::vector<CompileOutcome> oracle = run_soak(0);

  fault::FaultInjector injector(
      one_point_plan("svc.cache.evict.storm", 0.2, 0xACE1));
  ServiceOptions options = soak_options(0);
  options.injector = &injector;
  CompileService service(options);
  service.set_tenant_weight("alpha", 2);
  const std::vector<CompileOutcome> stormed = service.run(soak_corpus());
  const std::vector<CompileOutcome> stormed_warm = service.run(soak_corpus());

  const FlowCacheStats stats = service.cache().stats();
  ASSERT_GT(stats.evict_storms, 0u) << "storm never fired; family is vacuous";
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.rot_served, 0u);
  EXPECT_EQ(run_fingerprint(stormed), run_fingerprint(oracle));
  EXPECT_EQ(artifact_fingerprint(stormed_warm), artifact_fingerprint(oracle))
      << "recompile after storm diverged from the oracle";
}

TEST(SvcSoak, TinyByteBudgetThrashesWithoutCorruption) {
  // Capacity pressure as a standing storm: a budget that can hold only a
  // few artifacts forces constant eviction + recompute, and the outcomes
  // must still be oracle-identical.
  const std::vector<CompileOutcome> oracle = run_soak(0);

  ServiceOptions options = soak_options(0);
  options.cache_bytes = 64 << 10;  // far below the corpus working set
  CompileService service(options);
  service.set_tenant_weight("alpha", 2);
  const std::vector<CompileOutcome> thrashed = service.run(soak_corpus());

  EXPECT_GT(service.cache().stats().evictions, 0u);
  EXPECT_EQ(run_fingerprint(thrashed), run_fingerprint(oracle));
  EXPECT_LE(service.cache().stats().bytes_in_use, std::uint64_t{64 << 10});
}

}  // namespace
}  // namespace hermes::svc
