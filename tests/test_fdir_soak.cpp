// FDIR chaos soak: seeded fault storms driven through the full
// detect → isolate → recover pipeline, each family run twice per seed with
// the supervisor report fingerprint as the equality witness. The soak proves
// the two properties the tier-1 tests cannot: the pipeline is deterministic
// under sustained storms (rollbacks, re-armed injectors and all), and no
// storm ever produces a silent corruption.
//
// Families:
//   * rollback storm            — persistent configuration rot forces the
//                                 ladder through repeated rollbacks;
//   * quarantine under load     — programming-path upsets + a faulted
//                                 dataflow mission publish onto one bus, the
//                                 supervisor isolates per layer;
//   * checkpoint-ring exhaustion — checkpoints refused under dirt plus a
//                                 starved ring drive the ladder cleanly into
//                                 safe mode instead of thrashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "boot/bl.hpp"
#include "common/hash.hpp"
#include "dataflow/taskgraph.hpp"
#include "fault/injector.hpp"
#include "fdir/supervisor.hpp"
#include "nxmap/bitstream.hpp"

namespace hermes::fdir {
namespace {

constexpr std::uint64_t kRollbackSeeds = 16;
constexpr std::uint64_t kQuarantineSeeds = 10;
constexpr std::uint64_t kRingSeeds = 16;

std::vector<std::uint8_t> soak_bitstream() {
  std::vector<nx::BitstreamFrame> frames(3);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].column = static_cast<std::uint32_t>(2 * f);
    for (std::size_t w = 0; w < 6 + f * 3; ++w) {
      frames[f].words.push_back(
          static_cast<std::uint32_t>((f << 24) ^ (w * 0x01000193u) ^ 0xC3));
    }
  }
  return nx::pack_raw_bitstream(/*device_id=*/0xE0E0, frames);
}

void stage_efpga_boot(boot::BootEnvironment& env) {
  std::vector<std::uint8_t> bl1(1024);
  for (std::size_t i = 0; i < bl1.size(); ++i) {
    bl1[i] = static_cast<std::uint8_t>(i * 11 + 3);
  }
  boot::LoadList list;
  boot::LoadEntry fpga;
  fpga.kind = boot::LoadKind::kBitstream;
  fpga.name = "matrix";
  fpga.dest_addr = boot::MemoryMap::kDdrBase + 0x10000;
  list.entries.push_back(fpga);
  boot::LoadEntry app;
  app.kind = boot::LoadKind::kBl2;
  app.name = "app";
  app.dest_addr = boot::MemoryMap::kDdrBase;
  list.entries.push_back(app);
  std::vector<std::vector<std::uint8_t>> images = {
      soak_bitstream(), std::vector<std::uint8_t>(2048, 0x5A)};
  boot::stage_boot_media(env, bl1, list, images);
}

/// Fingerprint of everything the supervised mission observed: the audit
/// trail, the surviving SoC, and the injection record.
std::uint64_t mission_fingerprint(const FdirSupervisor& supervisor,
                                  const boot::Soc& soc,
                                  const fault::FaultInjector& injector) {
  Fnv64 hash;
  hash.word(supervisor.report().fingerprint());
  hash.word(static_cast<std::uint64_t>(supervisor.mode()));
  hash.word(soc.efpga_config_digest());
  hash.word(soc.efpga_stats().scrub_passes);
  hash.word(soc.efpga_stats().scrub_corrected);
  hash.word(soc.efpga_stats().scrub_uncorrectable);
  hash.word(soc.efpga_stats().frames_reprogrammed);
  hash.word(injector.total_fires());
  return hash.digest();
}

// ---------------------------------------------------------------------------
// Family 1: rollback storm
// ---------------------------------------------------------------------------

std::uint64_t run_rollback_storm_once(const boot::SocSnapshot& base,
                                      std::uint64_t clean_digest,
                                      std::uint64_t seed) {
  fault::FaultPlan rot;
  rot.points.push_back({"efpga.config.rot", {.probability = 1.0}});
  fault::FaultInjector injector;
  boot::Soc soc = boot::Soc::fork(base, injector, rot, seed);

  FdirBus bus(4096);
  FdirConfig config;
  config.max_restart_attempts = 0;  // every trigger exercises the rollback rung
  config.max_rollbacks = 4;
  config.checkpoint_ring = 2;
  FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&soc, &injector, rot);
  EXPECT_TRUE(supervisor.checkpoint().ok());

  for (int pass = 0; pass < 24; ++pass) {
    (void)soc.scrub_efpga();
    supervisor.poll();
    if (supervisor.mode() == FdirMode::kSafe) break;
  }

  // No storm may rot the configuration silently, and every successful
  // rollback must land digest-identical on the checkpointed state.
  EXPECT_EQ(soc.efpga_stats().scrub_silent, 0u) << "seed " << seed;
  if (supervisor.mode() != FdirMode::kSafe &&
      supervisor.report().rollbacks > 0) {
    EXPECT_EQ(soc.efpga_config_digest(), clean_digest) << "seed " << seed;
  }
  return mission_fingerprint(supervisor, soc, injector);
}

TEST(FdirSoak, RollbackStormDeterministic) {
  boot::BootEnvironment env;
  stage_efpga_boot(env);
  ASSERT_TRUE(boot::run_boot_chain(env).status.ok());
  ASSERT_TRUE(env.soc.efpga_programmed);
  const boot::SocSnapshot base = env.soc.snapshot();
  const std::uint64_t clean_digest = env.soc.efpga_config_digest();

  std::uint64_t rollbacks_seen = 0;
  for (std::uint64_t seed = 1; seed <= kRollbackSeeds; ++seed) {
    const std::uint64_t a = run_rollback_storm_once(base, clean_digest, seed);
    const std::uint64_t b = run_rollback_storm_once(base, clean_digest, seed);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    rollbacks_seen += (a != Fnv64::kBasis) ? 1 : 0;
  }
  // The storm must be a real one: rot at probability 1.0 forces rollbacks on
  // every seed, so every fingerprint reflects a mission that recovered.
  EXPECT_EQ(rollbacks_seen, kRollbackSeeds);
}

// ---------------------------------------------------------------------------
// Family 2: quarantine under load
// ---------------------------------------------------------------------------

constexpr std::string_view kProgPoints[] = {
    "efpga.prog.header.corrupt", "efpga.prog.frame.corrupt",
    "efpga.prog.frame.drop", "efpga.config.rot"};
constexpr std::string_view kDfPoints[] = {
    "df.node.transient", "df.node.overrun", "df.node.permanent"};

std::uint64_t run_quarantine_once(std::uint64_t seed) {
  fault::FaultInjector boot_injector(
      fault::make_random_plan(seed, kProgPoints));
  boot::BootEnvironment env;
  env.attach_injector(&boot_injector);
  FdirBus bus(4096);
  // Wired before boot: the programming path publishes its whole ladder
  // (retries, exhaustion) while the chain runs; the supervisor consumes the
  // backlog afterwards, in arrival order.
  env.soc.attach_fdir(&bus);
  stage_efpga_boot(env);
  const boot::BootResult result = boot::run_boot_chain(env);
  EXPECT_TRUE(result.status.ok() || !result.status.to_string().empty());

  FdirConfig config;
  config.policy.rate_threshold = 12;
  FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&env.soc, &boot_injector,
                        fault::make_random_plan(seed, kProgPoints));
  supervisor.poll();

  // Degraded-mode load: a faulted dataflow mission publishing onto the same
  // bus. When the supervisor already degraded, it flies the shed subgraph —
  // the degraded mission keeps its critical pipeline.
  fault::FaultInjector df_injector(fault::make_random_plan(seed, kDfPoints));
  df::TaskGraph graph;
  const std::size_t src = graph.add_task({"src", 1 + seed % 3, 0, 2, 10});
  const std::size_t work = graph.add_task({"work", 3 + seed % 5, 0, 4, 50});
  const std::size_t sink = graph.add_task({"sink", 2, 0, 2, 10});
  df::Task diag{"diag", 4 + seed % 7, 0, 3, 30};
  diag.critical = false;
  const std::size_t d = graph.add_task(diag);
  graph.connect(src, work);
  graph.connect(work, sink);
  graph.connect(work, d);
  graph.sources = {src};
  graph.sinks = {sink, d};

  df::DataflowOptions options;
  options.injector = &df_injector;
  options.fdir = &bus;
  df::DataflowStats stats;
  options.stats_out = &stats;
  const df::TaskGraph mission = supervisor.mode() == FdirMode::kNominal
                                    ? graph
                                    : df::shed_non_critical(graph);
  const auto run = df::simulate_dataflow(mission, 4 + seed % 4, options);
  EXPECT_TRUE(run.ok() || !run.status().to_string().empty());
  supervisor.poll();

  EXPECT_EQ(env.soc.efpga_stats().scrub_silent, 0u) << "seed " << seed;
  Fnv64 hash(mission_fingerprint(supervisor, env.soc, boot_injector));
  hash.word(static_cast<std::uint64_t>(result.status.code()));
  hash.word(supervisor.efpga_quarantined() ? 1u : 0u);
  hash.word(mission.tasks.size());
  hash.word(run.ok() ? 0u : static_cast<std::uint64_t>(run.status().code()));
  hash.word(stats.makespan);
  hash.word(stats.node_retries);
  hash.word(stats.node_failures);
  hash.word(df_injector.total_fires());
  return hash.digest();
}

TEST(FdirSoak, QuarantineUnderLoadDeterministic) {
  for (std::uint64_t seed = 1; seed <= kQuarantineSeeds; ++seed) {
    const std::uint64_t a = run_quarantine_once(seed);
    const std::uint64_t b = run_quarantine_once(seed);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
  }
}

// ---------------------------------------------------------------------------
// Family 3: checkpoint-ring exhaustion
// ---------------------------------------------------------------------------

std::uint64_t run_ring_exhaustion_once(const boot::SocSnapshot& base,
                                       std::uint64_t seed, bool* reached_safe) {
  fault::FaultPlan rot;
  rot.points.push_back({"efpga.config.rot", {.probability = 1.0}});
  fault::FaultInjector injector;
  boot::Soc soc = boot::Soc::fork(base, injector, rot, seed);

  FdirBus bus(4096);
  FdirConfig config;
  config.max_restart_attempts = 0;
  config.max_rollbacks = 1;    // a single restore, then the ladder is out
  config.checkpoint_ring = 1;  // starved ring
  FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&soc, &injector, rot);
  EXPECT_TRUE(supervisor.checkpoint().ok());

  // Storm until the ladder exhausts: checkpoint attempts under dirt are
  // refused (never freezing rot into the ring), the rollback budget drains,
  // and the mission parks in safe mode instead of thrashing.
  for (int pass = 0; pass < 40 && supervisor.mode() != FdirMode::kSafe;
       ++pass) {
    (void)soc.scrub_efpga();
    (void)supervisor.checkpoint();  // mostly refused: the state is dirty
    supervisor.poll();
  }

  EXPECT_EQ(soc.efpga_stats().scrub_silent, 0u) << "seed " << seed;
  const FdirReport& report = supervisor.report();
  if (supervisor.mode() == FdirMode::kSafe) {
    *reached_safe = true;
    // Safe mode was a clean landing: exactly one entry, accelerator parked,
    // the final rollback decision recorded as failed (its ring was spent).
    EXPECT_EQ(report.safe_mode_entries, 1u) << "seed " << seed;
    EXPECT_TRUE(supervisor.efpga_quarantined()) << "seed " << seed;
    EXPECT_LE(report.rollbacks,
              static_cast<std::uint64_t>(config.max_rollbacks))
        << "seed " << seed;
  }
  Fnv64 hash(mission_fingerprint(supervisor, soc, injector));
  hash.word(supervisor.checkpoints().stats().refused);
  hash.word(supervisor.checkpoints().stats().taken);
  return hash.digest();
}

TEST(FdirSoak, CheckpointRingExhaustionLandsSafeDeterministically) {
  boot::BootEnvironment env;
  stage_efpga_boot(env);
  ASSERT_TRUE(boot::run_boot_chain(env).status.ok());
  const boot::SocSnapshot base = env.soc.snapshot();

  std::uint64_t safe_landings = 0;
  for (std::uint64_t seed = 1; seed <= kRingSeeds; ++seed) {
    bool safe_a = false, safe_b = false;
    const std::uint64_t a = run_ring_exhaustion_once(base, seed, &safe_a);
    const std::uint64_t b = run_ring_exhaustion_once(base, seed, &safe_b);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    ASSERT_EQ(safe_a, safe_b);
    safe_landings += safe_a ? 1 : 0;
  }
  // Rot at probability 1.0 with one rollback and a starved ring must drive
  // most seeds all the way down the ladder.
  EXPECT_GT(safe_landings, kRingSeeds / 2);
}

}  // namespace
}  // namespace hermes::fdir
