// Deterministic chaos soak: hundreds of seeded random fault plans thrown at
// the boot chain, the AXI-backed HLS accelerator, and a hypervisor mission.
// The invariant under every plan is the robustness contract of the stack:
// a clean Status (or a clean success) — never a hang, never a crash, never
// silent corruption — and bit-identical outcomes when a seed is replayed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "axi/hls_axi.hpp"
#include "axi/slave_memory.hpp"
#include "boot/bl.hpp"
#include "boot/loadlist.hpp"
#include "common/hash.hpp"
#include "dataflow/taskgraph.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "hls/flow.hpp"
#include "hv/hypervisor.hpp"
#include "nxmap/bitstream.hpp"

namespace hermes::fault {
namespace {

constexpr std::uint64_t kBootSeeds = 80;
constexpr std::uint64_t kAxiSeeds = 60;
constexpr std::uint64_t kHvSeeds = 80;
constexpr std::uint64_t kEfpgaSeeds = 40;
constexpr std::uint64_t kDataflowSeeds = 40;
constexpr std::uint64_t kSlicedSeeds = 24;
constexpr std::uint64_t kForkSeeds = 30;
static_assert(kBootSeeds + kAxiSeeds + kHvSeeds + kEfpgaSeeds +
                      kDataflowSeeds + kSlicedSeeds + kForkSeeds >= 280,
              "the soak must cover at least 280 fault plans");

constexpr std::string_view kBootPoints[] = {
    "flash.rot.replica", "flash.rot.voted", "spw.frame.corrupt",
    "spw.frame.drop"};
constexpr std::string_view kAxiPoints[] = {
    "axi.ar.stall", "axi.aw.stall", "axi.r.stall",
    "axi.r.corrupt", "axi.r.slverr", "axi.b.slverr"};
constexpr std::string_view kHvPoints[] = {"hv.job.overrun",
                                          "hv.partition.crash"};
constexpr std::string_view kEfpgaPoints[] = {
    "efpga.prog.header.corrupt", "efpga.prog.frame.corrupt",
    "efpga.prog.frame.drop", "efpga.config.rot"};
constexpr std::string_view kDataflowPoints[] = {
    "df.node.transient", "df.node.overrun", "df.node.permanent"};

// ---------------------------------------------------------------------------
// Boot-chain scenario
// ---------------------------------------------------------------------------

std::uint64_t run_boot_once(std::uint64_t seed, bool* survived) {
  FaultInjector injector(make_random_plan(seed, kBootPoints));
  boot::BootEnvironment env;
  env.attach_injector(&injector);

  std::vector<std::uint8_t> bl1(1024);
  for (std::size_t i = 0; i < bl1.size(); ++i) {
    bl1[i] = static_cast<std::uint8_t>(i * 7 + 13);
  }
  boot::LoadList list;
  boot::LoadEntry sw;
  sw.kind = boot::LoadKind::kSoftware;
  sw.name = "payload";
  sw.dest_addr = boot::MemoryMap::kDdrBase + 0x1000;
  list.entries.push_back(sw);
  boot::LoadEntry app;
  app.kind = boot::LoadKind::kBl2;
  app.name = "app";
  app.dest_addr = boot::MemoryMap::kDdrBase;
  list.entries.push_back(app);
  std::vector<std::vector<std::uint8_t>> images(2);
  images[0].assign(1536, 0x3C);
  images[1].assign(2048, 0xA5);
  boot::stage_boot_media(env, bl1, list, images);

  const boot::BootResult result = boot::run_boot_chain(env);

  // Robustness contract: success means the chain went all the way and every
  // deployed image passed its digest; failure must be a clean Status.
  if (result.status.ok()) {
    EXPECT_EQ(result.reached, boot::BootStage::kApplication);
  } else {
    EXPECT_NE(result.reached, boot::BootStage::kApplication);
    EXPECT_FALSE(result.status.to_string().empty());
  }
  *survived = result.status.ok();

  Fnv64 hash;
  hash.word(static_cast<std::uint64_t>(result.status.code()));
  hash.word(static_cast<std::uint64_t>(result.reached));
  hash.word(result.report.total_cycles);
  hash.word(result.report.flash_corrected_bytes);
  hash.word(result.report.spw_crc_errors);
  hash.word(result.report.integrity_retries);
  hash.word(result.report.spw_fallbacks);
  hash.word(result.report.steps.size());
  hash.word(injector.total_fires());
  return hash.digest();
}

TEST(ChaosSoak, BootChainUnderRandomFaultPlans) {
  std::uint64_t survivors = 0, armed = 0;
  for (std::uint64_t seed = 1; seed <= kBootSeeds; ++seed) {
    bool survived_a = false, survived_b = false;
    const std::uint64_t a = run_boot_once(seed, &survived_a);
    const std::uint64_t b = run_boot_once(seed, &survived_b);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    ASSERT_EQ(survived_a, survived_b);
    survivors += survived_a ? 1 : 0;
    armed += make_random_plan(seed, kBootPoints).points.size();
  }
  // The campaign must be a real one: faults armed on every seed, and the
  // recovery ladders must save a decent share of the missions.
  EXPECT_GE(armed, kBootSeeds);
  EXPECT_GT(survivors, kBootSeeds / 4);
}

// ---------------------------------------------------------------------------
// AXI-backed accelerator scenario
// ---------------------------------------------------------------------------

std::uint64_t run_axi_once(const hls::FlowResult& flow,
                           const axi::AxiMap& map, std::uint64_t seed,
                           bool* survived) {
  FaultInjector injector(make_random_plan(seed, kAxiPoints));
  axi::AxiSlaveMemory ddr(1 << 16, axi::MemoryTiming{});
  ddr.attach_injector(&injector);
  for (std::size_t i = 0; i < 32; ++i) {
    ddr.poke_word(map.base_addr.at(0) + i * 4, i * 5 + 2, 4);
  }
  axi::MasterConfig config;
  config.watchdog_cycles = 10'000;  // keep tripped-transaction cost bounded
  auto run = axi::run_with_axi(flow, {3}, ddr, map, axi::AxiMode::kDmaBurst,
                               {}, 2'000'000, config);

  Fnv64 hash;
  if (run.ok()) {
    // Corrupted-but-OKAY read beats (axi.r.corrupt) are invisible to the
    // protocol, so the end-to-end golden compare is the detector: a mismatch
    // is legal ONLY when that point actually fired, and it must be flagged
    // through `match` — never silent.
    if (!run.value().match) {
      const PointId corrupt = injector.find_point("axi.r.corrupt");
      const bool attributable =
          corrupt != kNoFaultPoint && injector.stats(corrupt).fires > 0;
      EXPECT_TRUE(attributable)
          << "silent corruption: " << run.value().mismatch;
    }
    hash.word(run.value().match ? 1u : 0u);
    hash.word(run.value().return_value);
    hash.word(run.value().total_cycles);
    hash.word(run.value().bus.retries);
    hash.word(run.value().bus.errors);
    hash.word(run.value().bus.watchdog_trips);
    for (std::size_t i = 0; i < 32; ++i) {
      hash.word(ddr.peek_word(map.base_addr.at(0) + i * 4, 4));
    }
  } else {
    // Failed clean: one of the error paths the master is allowed to take.
    const ErrorCode code = run.status().code();
    EXPECT_TRUE(code == ErrorCode::kInternal ||
                code == ErrorCode::kInvalidArgument ||
                code == ErrorCode::kDeadlineExceeded)
        << run.status().to_string();
    hash.word(static_cast<std::uint64_t>(code));
  }
  *survived = run.ok();
  hash.word(injector.total_fires());
  return hash.digest();
}

TEST(ChaosSoak, AxiAcceleratorUnderRandomFaultPlans) {
  const char* source = R"(
    void scale(int32_t data[32], int factor) {
      for (int i = 0; i < 32; i = i + 1) {
        data[i] = data[i] * factor + 1;
      }
    }
  )";
  hls::FlowOptions options;
  options.top = "scale";
  auto flow = hls::run_flow(source, options);
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();
  const axi::AxiMap map = axi::default_axi_map(flow.value().function);

  std::uint64_t survivors = 0;
  for (std::uint64_t seed = 1; seed <= kAxiSeeds; ++seed) {
    bool survived_a = false, survived_b = false;
    const std::uint64_t a = run_axi_once(flow.value(), map, seed, &survived_a);
    const std::uint64_t b = run_axi_once(flow.value(), map, seed, &survived_b);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    ASSERT_EQ(survived_a, survived_b);
    survivors += survived_a ? 1 : 0;
  }
  // Bounded retries must carry a decent share of transfers through.
  EXPECT_GT(survivors, kAxiSeeds / 4);
}

// ---------------------------------------------------------------------------
// eFPGA programming-upset scenario
// ---------------------------------------------------------------------------

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

std::uint64_t run_efpga_boot_once(std::uint64_t seed, bool arm, bool* survived,
                                  std::uint64_t* digest_out) {
  FaultInjector injector;  // unarmed unless a plan is loaded below
  if (arm) injector.load_plan(make_random_plan(seed, kEfpgaPoints));
  boot::BootEnvironment env;
  env.attach_injector(&injector);

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

  const boot::BootResult result = boot::run_boot_chain(env);
  // Keep the configuration under static-rot pressure past the boot-time pass.
  for (int pass = 0; pass < 3; ++pass) (void)env.soc.scrub_efpga();

  const boot::EfpgaStats& efpga = env.soc.efpga_stats();
  // The no-silent-corruption contract: every configuration upset is either
  // corrected, repaired by the frame re-program rung, or a clean failure —
  // the scrubber must never observe a miscorrection.
  EXPECT_EQ(efpga.scrub_silent, 0u) << "seed " << seed;
  if (result.status.ok()) {
    EXPECT_EQ(result.reached, boot::BootStage::kApplication);
    EXPECT_TRUE(env.soc.efpga_programmed);
  } else {
    EXPECT_FALSE(result.status.to_string().empty());
  }
  *survived = result.status.ok() && env.soc.efpga_programmed;
  *digest_out = env.soc.efpga_config_digest();

  Fnv64 hash;
  hash.word(static_cast<std::uint64_t>(result.status.code()));
  hash.word(static_cast<std::uint64_t>(result.reached));
  hash.word(result.report.total_cycles);
  hash.word(result.report.efpga_frame_rewrites);
  hash.word(result.report.efpga_scrub_corrections);
  hash.word(efpga.frames_programmed);
  hash.word(efpga.frame_crc_mismatches);
  hash.word(efpga.frame_rewrites);
  hash.word(efpga.header_rewrites);
  hash.word(efpga.prog_failures);
  hash.word(efpga.scrub_passes);
  hash.word(efpga.scrub_corrected);
  hash.word(efpga.scrub_uncorrectable);
  hash.word(efpga.frames_reprogrammed);
  hash.word(*digest_out);
  hash.word(injector.total_fires());
  return hash.digest();
}

TEST(ChaosSoak, EfpgaProgrammingUnderRandomFaultPlans) {
  // Reference: the configuration digest of an upset-free boot. Every soaked
  // boot that reports success must land on exactly this configuration — a
  // corrupt frame that slipped through the readback ladder would diverge.
  bool clean_ok = false;
  std::uint64_t clean_digest = 0;
  (void)run_efpga_boot_once(0, /*arm=*/false, &clean_ok, &clean_digest);
  ASSERT_TRUE(clean_ok);

  std::uint64_t survivors = 0;
  for (std::uint64_t seed = 1; seed <= kEfpgaSeeds; ++seed) {
    bool survived_a = false, survived_b = false;
    std::uint64_t digest_a = 0, digest_b = 0;
    const std::uint64_t a =
        run_efpga_boot_once(seed, /*arm=*/true, &survived_a, &digest_a);
    const std::uint64_t b =
        run_efpga_boot_once(seed, /*arm=*/true, &survived_b, &digest_b);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    ASSERT_EQ(survived_a, survived_b);
    if (survived_a) {
      EXPECT_EQ(digest_a, clean_digest)
          << "seed " << seed << ": a silently corrupt frame was accepted";
    }
    survivors += survived_a ? 1 : 0;
  }
  // The readback/re-write ladder must carry most programming runs through.
  EXPECT_GT(survivors, kEfpgaSeeds / 4);
}

// ---------------------------------------------------------------------------
// Dataflow node-retry scenario
// ---------------------------------------------------------------------------

std::uint64_t run_dataflow_once(std::uint64_t seed, bool* survived) {
  FaultInjector injector(make_random_plan(seed, kDataflowPoints));

  // Deterministic per-seed graph: a pipeline with a fork-join in the middle,
  // shaped by the seed only.
  df::TaskGraph graph;
  const unsigned workers = 2 + seed % 3;
  const std::size_t src = graph.add_task({"src", 1 + seed % 4, 0, 2, 10});
  const std::size_t join = graph.add_task({"join", 2 + seed % 5, 0, 2, 10});
  for (unsigned w = 0; w < workers; ++w) {
    const std::size_t worker = graph.add_task(
        {"w" + std::to_string(w), 3 + (seed + w) % 9, 0, 4, 50});
    graph.connect(src, worker, 2 + seed % 3);
    graph.connect(worker, join, 2);
  }
  graph.sources = {src};
  graph.sinks = {join};

  df::DataflowOptions options;
  options.injector = &injector;
  df::DataflowStats stats;
  options.stats_out = &stats;
  options.retry.max_retries = 3;
  options.retry.backoff_cycles = 4;
  auto run = df::simulate_dataflow(graph, 4 + seed % 8, options);

  if (!run.ok()) {
    // Clean failure set: a permanent node fault, an exhausted retry budget,
    // or the simulation deadline — never a hang or an unexpected code.
    const ErrorCode code = run.status().code();
    EXPECT_TRUE(code == ErrorCode::kInvalidArgument ||
                code == ErrorCode::kInternal ||
                code == ErrorCode::kDeadlineExceeded)
        << run.status().to_string();
  }
  *survived = run.ok();

  Fnv64 hash;
  hash.word(run.ok() ? 0u : static_cast<std::uint64_t>(run.status().code()));
  hash.word(stats.makespan);
  hash.word(stats.node_retries);
  hash.word(stats.node_failures);
  for (std::uint64_t retries : stats.retries_per_task) {
    hash.word(retries);
  }
  hash.word(injector.total_fires());
  return hash.digest();
}

TEST(ChaosSoak, DataflowRetryUnderRandomFaultPlans) {
  std::uint64_t survivors = 0;
  for (std::uint64_t seed = 1; seed <= kDataflowSeeds; ++seed) {
    bool survived_a = false, survived_b = false;
    const std::uint64_t a = run_dataflow_once(seed, &survived_a);
    const std::uint64_t b = run_dataflow_once(seed, &survived_b);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    ASSERT_EQ(survived_a, survived_b);
    survivors += survived_a ? 1 : 0;
  }
  // Bounded node re-execution must carry most graphs to completion.
  EXPECT_GT(survivors, kDataflowSeeds / 4);
}

// ---------------------------------------------------------------------------
// Hypervisor mission scenario
// ---------------------------------------------------------------------------

std::uint64_t run_hv_once(std::uint64_t seed) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 450, 0, 0}, {500, 450, 1, 0}};
  config.plan.per_core[1] = {{0, 900, 2, 0}};
  hv::PartitionConfig aocs;
  aocs.name = "aocs";
  aocs.region = {0x0000, 0x1000};
  aocs.profile = {1000, 0, 200};
  hv::PartitionConfig vbn;
  vbn.name = "vbn";
  vbn.region = {0x1000, 0x1000};
  vbn.profile = {1000, 0, 300};
  hv::PartitionConfig eor;
  eor.name = "eor";
  eor.region = {0x2000, 0x1000};
  eor.profile = {2000, 0, 400};
  config.partitions = {aocs, vbn, eor};
  config.restart_budget = 3;
  config.hm_table[hv::HmEvent::kBudgetOverrun] =
      hv::HmAction::kRestartPartition;

  FaultInjector injector(make_random_plan(seed, kHvPoints));
  hv::Hypervisor hv(config);
  hv.attach_injector(&injector);
  auto stats = hv.run(30'000);
  EXPECT_TRUE(stats.ok()) << stats.status().to_string();
  if (!stats.ok()) return 0;

  Fnv64 hash;
  const hv::RunStats& run = stats.value();
  for (const hv::PartitionStats& partition : run.partitions) {
    // The escalation ladder caps restarts; a partition is never left in an
    // inconsistent state.
    EXPECT_LE(partition.restarts, config.restart_budget);
    EXPECT_TRUE(partition.final_state == hv::PartitionState::kNormal ||
                partition.final_state == hv::PartitionState::kSuspended ||
                partition.final_state == hv::PartitionState::kHalted);
    hash.word(partition.jobs_completed);
    hash.word(partition.restarts);
    hash.word(partition.budget_overruns);
    hash.word(partition.deadline_misses);
    hash.word(static_cast<std::uint64_t>(partition.final_state));
  }
  hash.word(run.hm_log.size());
  for (const hv::HmLogEntry& entry : run.hm_log) {
    hash.word(entry.when);
    hash.word(static_cast<std::uint64_t>(entry.event));
    hash.word(static_cast<std::uint64_t>(entry.action));
  }
  hash.word(injector.total_fires());
  return hash.digest();
}

TEST(ChaosSoak, HypervisorMissionUnderRandomFaultPlans) {
  for (std::uint64_t seed = 1; seed <= kHvSeeds; ++seed) {
    const std::uint64_t a = run_hv_once(seed);
    const std::uint64_t b = run_hv_once(seed);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    ASSERT_NE(a, 0u);
  }
}

// ---------------------------------------------------------------------------
// Bit-sliced netlist SEU campaign scenario
// ---------------------------------------------------------------------------

TEST(ChaosSoak, SlicedCampaignDeterministicAndSerialIdentical) {
  hls::FlowOptions options;
  options.top = "dot";
  auto flow = hls::run_flow(R"(
    int dot(int a[16], int b[16]) {
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + a[i] * b[i]; }
      return acc;
    }
  )", options);
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();
  const hw::Module& module = flow.value().fsmd.module;

  for (std::uint64_t seed = 1; seed <= kSlicedSeeds; ++seed) {
    NetlistSeuPlan plan;
    plan.replicas = 30 + (seed * 7) % 40;  // straddles the 63-replica batch
    plan.cycles_before = 2 + seed % 5;
    plan.cycles_after = 20 + seed % 30;
    plan.base_seed = seed;
    plan.inputs = {{"start", 1}};

    // Run-twice determinism of the sliced engine, and bit-identity against
    // the serial oracle — the invariant that lets the benches trust the
    // 64-replica path.
    const std::uint64_t sliced_a =
        fingerprint(run_netlist_seu_campaign_sliced(module, plan));
    const std::uint64_t sliced_b =
        fingerprint(run_netlist_seu_campaign_sliced(module, plan));
    const std::uint64_t serial =
        fingerprint(run_netlist_seu_campaign(module, plan));
    ASSERT_EQ(sliced_a, sliced_b) << "seed " << seed << " is not deterministic";
    ASSERT_EQ(sliced_a, serial)
        << "seed " << seed << " sliced diverged from the serial oracle";
  }
}

// ---------------------------------------------------------------------------
// Forked-SoC scrub campaign scenario
// ---------------------------------------------------------------------------

TEST(ChaosSoak, ForkedScrubCampaignDeterministicAndIsolated) {
  // One booted, programmed SoC; every plan runs on a fork of its snapshot
  // instead of re-programming from scratch.
  boot::BootEnvironment env;
  {
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
    ASSERT_TRUE(boot::run_boot_chain(env).status.ok());
    ASSERT_TRUE(env.soc.efpga_programmed);
  }
  const boot::SocSnapshot snapshot = env.soc.snapshot();
  const std::uint64_t baseline_digest = env.soc.efpga_config_digest();

  // One plan shape, reseeded per replica — the forked-campaign idiom.
  const FaultPlan shape = make_random_plan(1, kEfpgaPoints);

  const auto run_fork_once = [&](std::uint64_t seed) {
    FaultInjector injector;
    boot::Soc fork = boot::Soc::fork(snapshot, injector, shape, seed);
    EXPECT_EQ(fork.efpga_config_digest(), baseline_digest);
    for (int pass = 0; pass < 4; ++pass) (void)fork.scrub_efpga();
    const boot::EfpgaStats& stats = fork.efpga_stats();
    EXPECT_EQ(stats.scrub_silent, 0u) << "seed " << seed;

    Fnv64 hash;
    hash.word(stats.scrub_passes);
    hash.word(stats.scrub_corrected);
    hash.word(stats.scrub_uncorrectable);
    hash.word(stats.frames_reprogrammed);
    hash.word(fork.efpga_config_digest());
    hash.word(injector.total_fires());
    return hash.digest();
  };

  for (std::uint64_t seed = 1; seed <= kForkSeeds; ++seed) {
    const std::uint64_t a = run_fork_once(seed);
    const std::uint64_t b = run_fork_once(seed);
    ASSERT_EQ(a, b) << "seed " << seed << " is not deterministic";
    // Fork isolation: no campaign may leak back into the snapshot source.
    ASSERT_EQ(env.soc.efpga_config_digest(), baseline_digest);
  }
}

}  // namespace
}  // namespace hermes::fault
