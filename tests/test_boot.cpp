// Tests for the boot substrate: flash TMR, SpaceWire protocol, load list,
// SoC bring-up rules, and the BL0 -> BL1 -> BL2 chain with fault injection.
#include <gtest/gtest.h>

#include <cstring>

#include "boot/bl.hpp"
#include "common/rng.hpp"
#include "hls/flow.hpp"
#include "nxmap/flow.hpp"

namespace hermes::boot {
namespace {

std::vector<std::uint8_t> pattern_image(std::size_t bytes, std::uint8_t seed) {
  std::vector<std::uint8_t> image(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    image[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return image;
}

/// A minimal staged environment: BL1 image + one software image + BL2.
struct Staged {
  BootEnvironment env;
  LoadList list;
  std::vector<std::vector<std::uint8_t>> images;

  explicit Staged(unsigned flash_replicas = 3, double ber = 0.0)
      : env(flash_replicas, ber) {
    const auto bl1 = pattern_image(4096, 0x11);
    images = {pattern_image(2048, 0x22), pattern_image(1024, 0x33)};
    LoadEntry sw;
    sw.kind = LoadKind::kSoftware;
    sw.name = "payload";
    sw.dest_addr = MemoryMap::kDdrBase + 0x1000;
    LoadEntry bl2;
    bl2.kind = LoadKind::kBl2;
    bl2.name = "bl2";
    bl2.dest_addr = MemoryMap::kDdrBase;
    list.entries = {sw, bl2};
    stage_boot_media(env, bl1, list, images);
  }
};

TEST(Flash, TmrBankCorrectsSingleDeviceCorruption) {
  FlashBank bank(4096, 3);
  const auto image = pattern_image(512, 0x42);
  bank.program(0, image);
  Rng rng(1);
  bank.device(1).inject_bitflips(200, rng);  // heavy damage, one replica
  std::vector<std::uint8_t> readback(512);
  const FlashBank::ReadResult result = bank.read(0, readback);
  EXPECT_EQ(readback, image);
  EXPECT_GT(result.corrected_bytes, 0u);
}

TEST(Flash, SingleBankHasNoProtection) {
  FlashBank bank(4096, 1);
  const auto image = pattern_image(512, 0x42);
  bank.program(0, image);
  Rng rng(2);
  bank.device(0).inject_bitflips(50, rng);
  std::vector<std::uint8_t> readback(512);
  bank.read(0, readback);
  EXPECT_NE(readback, image);
}

TEST(Flash, ReadChargesCycles) {
  FlashBank bank(4096, 3);
  std::vector<std::uint8_t> small(16), large(1024);
  const auto small_read = bank.read(0, small);
  const auto large_read = bank.read(0, large);
  EXPECT_GT(large_read.cycles, small_read.cycles);
}

TEST(SpaceWire, FetchHostedObject) {
  SpaceWireLink link;
  link.host_object("obj", pattern_image(1000, 0x55));
  std::uint64_t cycles = 0;
  auto fetched = link.fetch("obj", cycles);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), pattern_image(1000, 0x55));
  EXPECT_GT(cycles, 1000u);  // at least a cycle per byte at 10 cycles/byte
}

TEST(SpaceWire, UnknownObjectNacked) {
  SpaceWireLink link;
  std::uint64_t cycles = 0;
  EXPECT_FALSE(link.fetch("missing", cycles).ok());
}

TEST(SpaceWire, CrcRetriesRecoverNoisyLink) {
  // Moderate BER: chunks get corrupted but retries recover them.
  SpaceWireLink link(SpwTiming{}, 1e-5, 7);
  const auto object = pattern_image(8192, 0x77);
  link.host_object("big", object);
  std::uint64_t cycles = 0;
  auto fetched = link.fetch("big", cycles, 16);
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value(), object);
  EXPECT_GT(link.crc_errors_detected() + link.retries(), 0u);
}

TEST(LoadListFormat, RoundTrip) {
  LoadList list;
  const auto image = pattern_image(777, 3);
  list.entries.push_back(make_entry(LoadKind::kSoftware, "app", image, 0x100,
                                    MemoryMap::kDdrBase));
  list.entries.push_back(make_entry(LoadKind::kBitstream, "fpga", image, 0x800, 0));
  const auto bytes = serialize(list);
  auto parsed = parse_load_list(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  EXPECT_EQ(parsed.value().entries[0].name, "app");
  EXPECT_EQ(parsed.value().entries[0].size, 777u);
  EXPECT_EQ(parsed.value().entries[0].digest, sha256(image));
  EXPECT_EQ(parsed.value().entries[1].kind, LoadKind::kBitstream);
}

TEST(LoadListFormat, DetectsCorruption) {
  LoadList list;
  list.entries.push_back(make_entry(LoadKind::kSoftware, "app",
                                    pattern_image(64, 1), 0, 0));
  auto bytes = serialize(list);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    auto corrupted = bytes;
    corrupted[rng.next_below(corrupted.size())] ^= 0x40;
    EXPECT_FALSE(parse_load_list(corrupted).ok());
  }
  bytes.resize(bytes.size() - 6);
  EXPECT_FALSE(parse_load_list(bytes).ok());
}

TEST(Soc, RegionGating) {
  Soc soc;
  std::uint8_t byte = 0;
  // DDR before init fails, after init works.
  EXPECT_FALSE(soc.write_bytes(MemoryMap::kDdrBase, std::span(&byte, 1)).ok());
  soc.ddr_ready = true;
  EXPECT_TRUE(soc.write_bytes(MemoryMap::kDdrBase, std::span(&byte, 1)).ok());
  // TCM requires enablement.
  EXPECT_FALSE(soc.read_bytes(MemoryMap::kTcmBase, std::span(&byte, 1)).ok());
  soc.tcm_enabled = true;
  EXPECT_TRUE(soc.read_bytes(MemoryMap::kTcmBase, std::span(&byte, 1)).ok());
  // Unmapped address.
  EXPECT_FALSE(soc.read_bytes(0x5000'0000, std::span(&byte, 1)).ok());
}

TEST(Soc, MpuEnforcement) {
  Soc soc;
  soc.ddr_ready = true;
  soc.mpu = {{MemoryMap::kDdrBase, 0x1000, /*writable=*/false}};
  soc.mpu_enabled = true;
  std::uint8_t byte = 7;
  EXPECT_TRUE(soc.read_bytes(MemoryMap::kDdrBase, std::span(&byte, 1)).ok());
  const Status write = soc.write_bytes(MemoryMap::kDdrBase, std::span(&byte, 1));
  EXPECT_FALSE(write.ok());
  EXPECT_EQ(write.code(), ErrorCode::kIsolationFault);
  // Outside all regions: rejected even for reads.
  EXPECT_FALSE(
      soc.read_bytes(MemoryMap::kDdrBase + 0x2000, std::span(&byte, 1)).ok());
}

TEST(Soc, EfpgaRejectsBadBitstream) {
  Soc soc;
  std::vector<std::uint8_t> garbage(100, 0xAB);
  const Status status = soc.program_efpga(garbage);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(soc.efpga_programmed);
}

TEST(BootChain, HappyPathFromFlash) {
  Staged staged;
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
  EXPECT_EQ(staged.env.soc.cores_released, hv::kNumCores);
  EXPECT_TRUE(staged.env.soc.ddr_ready);
  EXPECT_TRUE(staged.env.soc.mpu_enabled);
  EXPECT_GT(result.bl0_cycles, 0u);
  EXPECT_GT(result.report.total_cycles, result.bl0_cycles);
  // The payload actually landed in DDR.
  std::vector<std::uint8_t> deployed(staged.images[0].size());
  ASSERT_TRUE(staged.env.soc
                  .read_bytes(MemoryMap::kDdrBase + 0x1000, deployed)
                  .ok());
  EXPECT_EQ(deployed, staged.images[0]);
}

TEST(BootChain, HappyPathFromSpaceWire) {
  Staged staged;
  BootOptions options;
  options.bl1_source = BootSource::kSpaceWire;
  options.loadlist_source = BootSource::kSpaceWire;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

TEST(BootChain, ReportListsAllSteps) {
  Staged staged;
  const BootResult result = run_boot_chain(staged.env);
  ASSERT_TRUE(result.status.ok());
  const std::string report = result.report.render();
  for (const char* step :
       {"init_cpu0", "init_clock_plls", "init_ddr", "init_flash",
        "init_spacewire", "init_tightly_coupled", "init_mpu",
        "acquire_load_list", "deploy payload", "deploy bl2"}) {
    EXPECT_NE(report.find(step), std::string::npos) << step;
  }
}

TEST(BootChain, CorruptedBl1FallsBackToSpaceWire) {
  Staged staged;
  // Destroy the BL1 image in all three flash replicas.
  for (unsigned replica = 0; replica < 3; ++replica) {
    std::vector<std::uint8_t> junk(4096, 0x00);
    staged.env.flash.device(replica).program(FlashLayout::kBl1Image, junk);
  }
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

TEST(BootChain, CorruptedBl1WithoutFallbackFails) {
  Staged staged;
  for (unsigned replica = 0; replica < 3; ++replica) {
    std::vector<std::uint8_t> junk(4096, 0x00);
    staged.env.flash.device(replica).program(FlashLayout::kBl1Image, junk);
  }
  BootOptions options;
  options.spacewire_fallback = false;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.reached, BootStage::kBl0);
  EXPECT_EQ(result.status.code(), ErrorCode::kIntegrityError);
}

TEST(BootChain, FlashTmrSurvivesScatteredUpsets) {
  Staged staged;
  Rng rng(9);
  // Scatter upsets across all three replicas; TMR voting must absorb them
  // (2 MiB devices, 60 flips each -> vanishing double-hit probability).
  for (unsigned replica = 0; replica < 3; ++replica) {
    staged.env.flash.device(replica).inject_bitflips(60, rng);
  }
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

TEST(BootChain, CorruptedPayloadNeverDeployed) {
  Staged staged;
  // Corrupt the payload image identically in all replicas AND on the
  // SpaceWire host: no clean copy exists anywhere.
  std::vector<std::uint8_t> junk(staged.images[0].size(), 0x5A);
  staged.env.flash.program(staged.list.entries[0].source_offset, junk);
  staged.env.spacewire.host_object("payload", junk);
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), ErrorCode::kIntegrityError);
  EXPECT_EQ(result.reached, BootStage::kBl1);
  EXPECT_GT(result.report.integrity_retries, 0u);
  // Nothing was written to the destination.
  std::vector<std::uint8_t> ddr(junk.size());
  ASSERT_TRUE(
      staged.env.soc.read_bytes(MemoryMap::kDdrBase + 0x1000, ddr).ok());
  EXPECT_EQ(ddr, std::vector<std::uint8_t>(junk.size(), 0));
}

TEST(BootChain, BitstreamEntryProgramsEfpga) {
  // Full-stack: synthesize a kernel, run the NXmap backend, put the real
  // bitstream in the load list, and let BL1 program the eFPGA.
  hls::FlowOptions options;
  options.top = "f";
  auto flow = hls::run_flow("int f(int a) { return a * 3 + 1; }", options);
  ASSERT_TRUE(flow.ok());
  const nx::NxDevice device = nx::make_device(hls::ng_ultra());
  auto backend = nx::run_backend(flow.value().fsmd.module, device);
  ASSERT_TRUE(backend.ok());

  BootEnvironment env;
  LoadList list;
  LoadEntry bs;
  bs.kind = LoadKind::kBitstream;
  bs.name = "accel";
  LoadEntry bl2;
  bl2.kind = LoadKind::kBl2;
  bl2.name = "bl2";
  bl2.dest_addr = MemoryMap::kDdrBase;
  list.entries = {bs, bl2};
  stage_boot_media(env, pattern_image(4096, 0x11), list,
                   {backend.value().bitstream, pattern_image(1024, 0x33)});

  const BootResult result = run_boot_chain(env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_TRUE(env.soc.efpga_programmed);
  EXPECT_GT(env.soc.efpga_frames, 0u);
}

TEST(BootChain, MissingBl2EntryStopsAtBl2) {
  BootEnvironment env;
  LoadList list;
  LoadEntry sw;
  sw.kind = LoadKind::kSoftware;
  sw.name = "only_sw";
  sw.dest_addr = MemoryMap::kDdrBase;
  list.entries = {sw};
  stage_boot_media(env, pattern_image(4096, 0x11), list,
                   {pattern_image(512, 0x22)});
  const BootResult result = run_boot_chain(env);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.reached, BootStage::kBl2);
}

// Parameterized: boot succeeds across replica counts and link-noise levels.
struct BootEnvCase {
  unsigned replicas;
  double ber;
  BootSource source;
};

/// gtest names each case after its parameter, dumped byte by byte. The
/// padding after `replicas` and `source` is uninitialized, so it used to
/// change the ctest names from one build to the next; dump a copy whose
/// padding is zero.
void PrintTo(const BootEnvCase& c, std::ostream* os) {
  BootEnvCase zeroed;
  std::memset(&zeroed, 0, sizeof(zeroed));
  zeroed.replicas = c.replicas;
  zeroed.ber = c.ber;
  zeroed.source = c.source;
  ::testing::internal::PrintBytesInObjectTo(
      reinterpret_cast<const unsigned char*>(&zeroed), sizeof(zeroed), os);
}

class BootMatrix : public ::testing::TestWithParam<BootEnvCase> {};

TEST_P(BootMatrix, ReachesApplication) {
  const BootEnvCase& c = GetParam();
  Staged staged(c.replicas, c.ber);
  BootOptions options;
  options.bl1_source = c.source;
  options.loadlist_source = c.source;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, BootMatrix,
    ::testing::Values(BootEnvCase{1, 0.0, BootSource::kFlash},
                      BootEnvCase{3, 0.0, BootSource::kFlash},
                      BootEnvCase{3, 1e-6, BootSource::kSpaceWire},
                      BootEnvCase{1, 1e-6, BootSource::kSpaceWire}));

// The noiseless SpaceWire case dumps the same leading bytes as the
// three-replica flash case (`source` is the last field), so test listings
// that cut long names short could not tell the two apart. Its own
// instantiation prefix keeps the names distinct.
INSTANTIATE_TEST_SUITE_P(
    NoiselessSpaceWire, BootMatrix,
    ::testing::Values(BootEnvCase{3, 0.0, BootSource::kSpaceWire}));

}  // namespace
}  // namespace hermes::boot

// Boot-report persistence tests appended as a separate suite.
namespace hermes::boot {
namespace {

TEST(BootReportPersistence, SerializedRoundTrip) {
  BootReport report;
  report.total_cycles = 123456;
  report.flash_corrected_bytes = 7;
  report.spw_crc_errors = 2;
  report.integrity_retries = 1;
  report.steps.push_back({"init_cpu0_regs_caches_exc", true, 500, ""});
  report.steps.push_back({"deploy payload", false, 42, "detail ignored"});
  const auto bytes = report.serialize();
  auto parsed = parse_boot_report(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().total_cycles, 123456u);
  EXPECT_EQ(parsed.value().flash_corrected_bytes, 7u);
  ASSERT_EQ(parsed.value().steps.size(), 2u);
  // Step names are stored in fixed 24-byte fields (23 chars + NUL).
  EXPECT_EQ(parsed.value().steps[0].name, "init_cpu0_regs_caches_e");
  EXPECT_TRUE(parsed.value().steps[0].ok);
  EXPECT_FALSE(parsed.value().steps[1].ok);
  EXPECT_EQ(parsed.value().steps[1].cycles, 42u);
}

TEST(BootReportPersistence, CorruptionDetected) {
  BootReport report;
  report.steps.push_back({"step", true, 1, ""});
  auto bytes = report.serialize();
  bytes[10] ^= 0xFF;
  EXPECT_FALSE(parse_boot_report(bytes).ok());
  EXPECT_FALSE(parse_boot_report({}).ok());
}

TEST(BootReportPersistence, NextStageReadsReportFromDdr) {
  // The paper's requirement: the report is "made available for next-stage
  // software" — read it back from the published DDR address after boot.
  Staged staged;
  const BootResult result = run_boot_chain(staged.env);
  ASSERT_TRUE(result.status.ok());
  std::vector<std::uint8_t> raw(4096);
  ASSERT_TRUE(staged.env.soc.read_bytes(kBootReportAddr, raw).ok());
  auto parsed = parse_boot_report(raw);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().steps.size(), result.report.steps.size());
  EXPECT_GT(parsed.value().total_cycles, 0u);
  // Step names survive (truncated to 23 chars).
  EXPECT_EQ(parsed.value().steps[0].name.substr(0, 9), "init_cpu0");
}

}  // namespace
}  // namespace hermes::boot
