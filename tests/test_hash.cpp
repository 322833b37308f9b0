// Pinned hash values: every 64-bit digest, key, seed and fingerprint in the
// repo that is built from an FNV-1a fold or a SplitMix64 mix, recorded as a
// literal. Compile-service cache keys, JIT kernel-cache keys, soak
// fingerprints and benchmark oracles all compare these values across runs,
// so a change to any fold (its basis, its word split, its byte order) must
// show up here as a failure rather than as a silent cache miss or a
// "non-deterministic" soak.
//
// The checks go through each subsystem's public API only, so this file holds
// no hash code of its own: the standard FNV-1a-64 known answers are witnessed
// through the fault injector, which seeds each point's RNG stream with
// `plan.seed ^ fnv1a(point name)`.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "boot/bl.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "dataflow/taskgraph.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fdir/supervisor.hpp"
#include "hls/flow.hpp"
#include "netlist_fuzz.hpp"
#include "noc/noc.hpp"
#include "noc/workload.hpp"
#include "nxmap/bitstream.hpp"
#include "svc/service.hpp"
#include "svc_corpus.hpp"

namespace hermes {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const hw::Module& dot_module() {
  static const hls::FlowResult flow = [] {
    hls::FlowOptions options;
    options.top = "dot";
    auto result = hls::run_flow(R"(
      int dot(int a[8], int b[8]) {
        int acc = 0;
        for (int i = 0; i < 8; i = i + 1) { acc = acc + a[i] * b[i]; }
        return acc;
      }
    )", options);
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return std::move(result).value();
  }();
  return flow.fsmd.module;
}

/// Boots a full BL1 chain whose load list programs a fixed eFPGA bitstream.
void boot_programmed(boot::BootEnvironment& env) {
  std::vector<nx::BitstreamFrame> frames(3);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].column = static_cast<std::uint32_t>(2 * f);
    for (std::size_t w = 0; w < 6 + f * 3; ++w) {
      frames[f].words.push_back(
          static_cast<std::uint32_t>((f << 24) ^ (w * 0x01000193u) ^ 0xC3));
    }
  }
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
      nx::pack_raw_bitstream(/*device_id=*/0xE0E0, frames),
      std::vector<std::uint8_t>(2048, 0x5A)};
  boot::stage_boot_media(env, bl1, list, images);
  ASSERT_TRUE(boot::run_boot_chain(env).status.ok());
  ASSERT_TRUE(env.soc.efpga_programmed);
}

/// First draw of the RNG stream the injector gives point `name` under plan
/// seed 0: Rng(0 ^ fnv1a(name)).next_u64(), as long as that draw is nonzero.
std::uint64_t first_point_draw(const std::string& name) {
  fault::FaultPlan plan;
  plan.seed = 0;
  fault::FaultInjector injector(plan);
  const fault::PointId id = injector.register_point(name);
  return injector.mutate_word(id, 0);
}

// ---------------------------------------------------------------------------
// FNV-1a-64 known answers and the fault injector's point streams
// ---------------------------------------------------------------------------

TEST(HashPins, Fnv1aKnownAnswersSeedInjectorPointStreams) {
  // Published FNV-1a-64 vectors. The empty string hashes to the offset
  // basis itself; the digit separators keep the bare constant confined to
  // the one header that defines it.
  EXPECT_EQ(first_point_draw(""),
            Rng(0xcbf2'9ce4'8422'2325ULL).next_u64());
  EXPECT_EQ(first_point_draw("a"), Rng(0xaf63dc4c8601ec8cULL).next_u64());
  EXPECT_EQ(first_point_draw("foobar"),
            Rng(0x85944171f73967e8ULL).next_u64());
}

TEST(HashPins, FaultPlanFiringStamps) {
  fault::FaultSchedule schedule;
  schedule.probability = 0.2;
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.points = {{"axi.slave.slverr", schedule}, {"noc.beat.corrupt", schedule}};
  fault::FaultInjector injector(plan);
  std::vector<std::uint64_t> stamps;
  for (const auto& point : plan.points) {
    const fault::PointId id = injector.register_point(point.point);
    for (std::uint64_t op = 0; op < 48; ++op) {
      if (injector.should_fire(id)) stamps.push_back(op);
    }
    stamps.push_back(~0ULL);  // separator between the two points
  }
  const std::vector<std::uint64_t> expected = {
      8, 17, 18, 22, 23, 32, 38, 45, ~0ULL,
      0, 9, 19, 28, 31, 35, 36, 38, 40, 47, ~0ULL};
  EXPECT_EQ(stamps, expected);
}

// ---------------------------------------------------------------------------
// SplitMix64: RNG seeding, campaign replica seeds, the NoC transform
// ---------------------------------------------------------------------------

TEST(HashPins, RngFirstDraws) {
  Rng rng(42);
  std::array<std::uint64_t, 4> draws{};
  for (auto& draw : draws) draw = rng.next_u64();
  const std::array<std::uint64_t, 4> expected = {
      0x15780B2E0C2EC716ULL, 0x6104D9866D113A7EULL, 0xAE17533239E499A1ULL,
      0xECB8AD4703B360A1ULL};
  EXPECT_EQ(draws, expected);
}

TEST(HashPins, ReplicaSeeds) {
  EXPECT_EQ(fault::replica_seed(1, 0), 0x910A2DEC89025CC1ULL);
  EXPECT_EQ(fault::replica_seed(1, 1), 0xBEEB8DA1658EEC67ULL);
  EXPECT_EQ(fault::replica_seed(1, 2), 0xF893A2EEFB32555EULL);
  EXPECT_EQ(fault::replica_seed(1, 3), 0x71C18690EE42C90BULL);
}

TEST(HashPins, NocRespond) {
  static_assert(noc::respond(0, 0) == noc::respond(0, 0));
  EXPECT_EQ(noc::respond(0, 0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(noc::respond(3, 0x0123456789ABCDEFULL), 0x1A8FED80C5952760ULL);
  EXPECT_EQ(noc::respond(7, ~0ULL), 0xF99478F81DB91D39ULL);
}

// ---------------------------------------------------------------------------
// Netlist and compile-service digests
// ---------------------------------------------------------------------------

TEST(HashPins, ModuleDigests) {
  EXPECT_EQ(dot_module().digest(), 0x6F592B97E283E9D1ULL);
  Rng rng(0xD16E57);
  const hw::fuzz::RandomDesign design =
      hw::fuzz::make_random_design(rng, 3, "pin");
  EXPECT_EQ(design.module.digest(), 0xF4BB3EDD8E79C2B3ULL);
}

TEST(HashPins, CompileOutcomeAndStageKeys) {
  svc::ServiceOptions options;
  options.workers = 0;
  options.sweep.ops = {ir::Op::kAdd, ir::Op::kMul};
  options.sweep.widths = {8, 32};
  options.sweep.pipeline_stages = {0, 1};
  options.sweep.clock_periods_ns = {4.0, 8.0};
  svc::CompileService service(options);
  const svc::CompileOutcome outcome =
      service.run({svc::corpus::source_request(1)}).front();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();

  std::array<std::uint64_t, static_cast<std::size_t>(svc::Stage::kCount)>
      keys{};
  ASSERT_EQ(outcome.stages.size(), keys.size());
  for (const svc::StageTrace& trace : outcome.stages) {
    keys[static_cast<std::size_t>(trace.stage)] = trace.key;
  }
  const std::array<std::uint64_t, 4> expected_keys = {
      0xC8E10466C9A18426ULL,   // characterize
      0xA45F1CA72C3FECBEULL,   // schedule
      0xE50CCFDA30E4444EULL,   // map
      0xAD9A423567DA3AB6ULL};  // bitstream
  EXPECT_EQ(keys, expected_keys);
  EXPECT_EQ(outcome.netlist_digest, 0xDE35F16990990658ULL);
  EXPECT_EQ(outcome.fingerprint(), 0xF3EDBAA546A9721AULL);
}

// ---------------------------------------------------------------------------
// Campaign, NoC, boot and FDIR fingerprints
// ---------------------------------------------------------------------------

TEST(HashPins, NetlistSeuCampaignFingerprint) {
  fault::NetlistSeuPlan plan;
  plan.replicas = 12;
  plan.cycles_before = 4;
  plan.cycles_after = 24;
  plan.base_seed = 5;
  plan.inputs = {{"start", 1}};
  ThreadPool serial(0);
  const fault::NetlistSeuResult result =
      fault::run_netlist_seu_campaign(dot_module(), plan, &serial);
  EXPECT_EQ(result.diverged, 10u);
  EXPECT_EQ(fault::fingerprint(result), 0x1B0EC37DC63872E7ULL);
}

TEST(HashPins, NocFingerprints) {
  noc::ContentionScenario scenario = noc::make_contention_scenario(99);
  noc::Crossbar fabric(scenario.fabric, scenario.ports, scenario.endpoints);
  for (noc::PortTraffic& t : scenario.traffic) {
    fabric.bind_workload(t.port, t.beats);
  }
  const noc::FabricResult result = fabric.run();
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.fingerprint(), 0x4B27B5FD51FB4441ULL);

  // Chaos run: the workload generator's payload stream, the fabric digests
  // and the fold over the injector's fires.
  EXPECT_EQ(noc::run_noc_chaos_once(7, {}), 0x7E68666ED6287C74ULL);

  df::TaskGraph graph;
  const std::size_t cam = graph.add_task({"camera", 4, 2, 3, 10});
  const std::size_t net = graph.add_task({"net", 2, 0, 2, 6});
  const std::size_t sink = graph.add_task({"merge", 1, 0, 1, 4});
  graph.connect(cam, sink);
  graph.connect(net, sink);
  graph.sources = {cam, net};
  graph.sinks = {sink};
  std::uint64_t payloads = 0;
  for (const noc::PortTraffic& t :
       noc::workloads_from_taskgraph(graph, 16, 5, 2, 3)) {
    for (const noc::BeatRequest& beat : t.beats) payloads ^= beat.payload;
  }
  EXPECT_EQ(payloads, 0x0F79FF11237913B2ULL);
}

TEST(HashPins, EfpgaConfigDigestAfterBoot) {
  boot::BootEnvironment env;
  boot_programmed(env);
  EXPECT_EQ(env.soc.efpga_config_digest(), 0x461738B886C06E01ULL);
}

TEST(HashPins, FdirRollbackEpisodeFingerprint) {
  boot::BootEnvironment env;
  boot_programmed(env);
  fault::FaultPlan rot;
  rot.seed = 21;
  rot.points.push_back({"efpga.config.rot", {.probability = 1.0}});
  fault::FaultInjector injector(rot);
  env.soc.attach_injector(&injector);
  fdir::FdirBus bus(1024);
  fdir::FdirConfig config;
  config.max_restart_attempts = 0;
  config.policy.uncorrectable_threshold = 2;
  fdir::FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&env.soc, &injector, rot);
  ASSERT_TRUE(supervisor.checkpoint().ok());
  for (int pass = 0; pass < 32 && supervisor.report().rollbacks == 0; ++pass) {
    (void)env.soc.scrub_efpga();
    supervisor.poll();
  }
  ASSERT_EQ(supervisor.report().rollbacks, 1u);
  EXPECT_EQ(supervisor.report().fingerprint(), 0x8D955CFF77545AEBULL);
}

}  // namespace
}  // namespace hermes
