// JIT backend unit tests: digest content-addressing, the kernel cache's
// exact stats/eviction behavior, W^X discipline, forced interpreter
// fallback, and directed edge-semantics cases (edge widths, shift counts at
// and beyond the word, division corners) differentially against the
// full-sweep oracle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "hw/jit/cache.hpp"
#include "hw/jit/exec_memory.hpp"
#include "hw/jit/kernel.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "netlist_fuzz.hpp"

namespace hermes::hw {
namespace {

/// Builds the same small datapath every time; `name` must not affect the
/// digest, `tweak` must.
Module make_module(const std::string& name, std::uint64_t tweak = 7) {
  Module m(name);
  const WireId a = m.add_wire(32, "a");
  m.add_input(a, "a");
  const WireId b = m.add_wire(32, "b");
  m.add_input(b, "b");
  const WireId k = m.make_const(tweak, 32);
  const WireId sum = m.make_binop(CellKind::kAdd, a, b, 32);
  const WireId out = m.make_binop(CellKind::kMul, sum, k, 32);
  m.add_output(out, "out");
  return m;
}

TEST(ModuleDigest, StableAcrossRebuildsAndNames) {
  const Module first = make_module("one");
  const Module second = make_module("two");  // names differ, structure equal
  EXPECT_EQ(first.digest(), second.digest());
  EXPECT_EQ(first.digest(), make_module("one").digest());
}

TEST(ModuleDigest, EveryStructuralMutationChangesIt) {
  const std::uint64_t base = make_module("m").digest();
  EXPECT_NE(base, make_module("m", 8).digest());  // const param
  {
    Module m = make_module("m");
    m.add_wire(9, "extra");  // extra wire
    EXPECT_NE(base, m.digest());
  }
  {
    Module m = make_module("m");
    const WireId w = m.add_wire(1, "tap");
    m.add_output(w, "tap");  // extra port
    EXPECT_NE(base, m.digest());
  }
  {
    Module m = make_module("m");
    Memory mem;
    mem.width = 8;
    mem.depth = 4;
    m.add_memory(mem);  // extra memory
    EXPECT_NE(base, m.digest());
  }
}

TEST(ModuleDigest, SingleCellMutationsNeverCollide) {
  // Property test: flip exactly one aspect of one random cell of a random
  // design; the digest must change, and no two mutants may collide with each
  // other (FNV is not cryptographic, but structural edits this small must
  // never alias in practice — the kernel cache would run stale code).
  Rng rng(0xD16E57);
  std::vector<std::uint64_t> seen;
  for (int trial = 0; trial < 40; ++trial) {
    fuzz::RandomDesign design = fuzz::make_random_design(rng, trial, "digest");
    const std::uint64_t base = design.module.digest();
    seen.push_back(base);

    fuzz::mutate_one_cell(rng, design.module);
    const std::uint64_t mutated = design.module.digest();
    EXPECT_NE(base, mutated) << "trial " << trial;
    seen.push_back(mutated);
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      ASSERT_NE(seen[i], seen[j]) << "digest collision " << i << "/" << j;
    }
  }
}

class JitEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!jit::jit_available()) {
      GTEST_SKIP() << "JIT unavailable on this host";
    }
    reset_cache();
  }
  void TearDown() override { reset_cache(); }

  static void reset_cache() {
    jit::KernelCache::global().clear();
    jit::KernelCache::global().reset_stats();
    jit::KernelCache::global().set_capacity(jit::KernelCache::kDefaultCapacity);
  }
};

TEST_F(JitEnv, WarmCacheHitSkipsCompilation) {
  const Module m = make_module("warm");
  Simulator cold(m, SimOptions{.backend = SimBackend::kJit});
  ASSERT_EQ(cold.active_backend(), SimBackend::kJit);
  auto stats = jit::KernelCache::global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.compile_ns, 0u);

  // Structurally identical module, different name: warm hit, no compile.
  const Module twin = make_module("warm_twin");
  Simulator warm(twin, SimOptions{.backend = SimBackend::kJit});
  ASSERT_EQ(warm.active_backend(), SimBackend::kJit);
  stats = jit::KernelCache::global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(jit::KernelCache::global().size(), 1u);
}

TEST_F(JitEnv, DigestChangeForcesRecompile) {
  const Module base = make_module("a");
  const Module tweaked = make_module("a", 9);
  Simulator first(base, SimOptions{.backend = SimBackend::kJit});
  Simulator second(tweaked, SimOptions{.backend = SimBackend::kJit});
  const auto stats = jit::KernelCache::global().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.compiles, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(jit::KernelCache::global().size(), 2u);
}

TEST_F(JitEnv, EvictionCapIsEnforcedLru) {
  jit::KernelCache::global().set_capacity(2);
  const Module m1 = make_module("e", 1);
  const Module m2 = make_module("e", 2);
  const Module m3 = make_module("e", 3);
  Simulator s1(m1, SimOptions{.backend = SimBackend::kJit});
  Simulator s2(m2, SimOptions{.backend = SimBackend::kJit});
  // Touch kernel 1 so kernel 2 is the LRU victim.
  Simulator s1b(m1, SimOptions{.backend = SimBackend::kJit});
  Simulator s3(m3, SimOptions{.backend = SimBackend::kJit});
  auto stats = jit::KernelCache::global().stats();
  EXPECT_EQ(jit::KernelCache::global().size(), 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.compiles, 3u);
  EXPECT_EQ(stats.hits, 1u);

  // Kernel 1 must still be cached (it was touched); kernel 2 was evicted and
  // recompiles.
  Simulator s1c(m1, SimOptions{.backend = SimBackend::kJit});
  EXPECT_EQ(jit::KernelCache::global().stats().hits, 2u);
  Simulator s2b(m2, SimOptions{.backend = SimBackend::kJit});
  stats = jit::KernelCache::global().stats();
  EXPECT_EQ(stats.compiles, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  // Evicted kernels stay alive while a simulator still runs on them.
  EXPECT_EQ(s3.active_backend(), SimBackend::kJit);
}

TEST_F(JitEnv, DisableEnvForcesSilentFallbackWithIdenticalResults) {
  const Module m = make_module("fallback");
  Simulator native(m, SimOptions{.backend = SimBackend::kJit});
  ASSERT_EQ(native.active_backend(), SimBackend::kJit);
  const auto before = jit::KernelCache::global().stats();

  ::setenv("HERMES_DISABLE_JIT", "1", 1);
  EXPECT_FALSE(jit::jit_available());
  Simulator fallback(m, SimOptions{.backend = SimBackend::kJit});
  // Disabled lookups must not move cache stats at all.
  const auto after = jit::KernelCache::global().stats();
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  ::unsetenv("HERMES_DISABLE_JIT");
  EXPECT_TRUE(jit::jit_available());

  EXPECT_EQ(fallback.active_backend(), SimBackend::kEvent);
  EXPECT_TRUE(fallback.status().ok());
  for (std::uint64_t a : {0ULL, 1ULL, 0xFFFFFFFFULL, 12345ULL}) {
    native.set_input("a", a);
    native.set_input("b", a * 3 + 1);
    fallback.set_input("a", a);
    fallback.set_input("b", a * 3 + 1);
    native.step();
    fallback.step();
    ASSERT_EQ(native.get_output("out"), fallback.get_output("out"));
  }
}

TEST_F(JitEnv, KernelStatsReflectLoweringWork) {
  // A chain a -> (+k) -> (^k) -> ... has single-consumer intermediates
  // (accumulator forwarding), const operands (folding) and width-64 outputs
  // (mask elision).
  Module m("stats");
  const WireId a = m.add_wire(64, "a");
  m.add_input(a, "a");
  WireId x = a;
  for (int i = 0; i < 8; ++i) {
    x = m.make_binop(i % 2 ? CellKind::kAdd : CellKind::kXor, x,
                     m.make_const(0x9E3779B97F4A7C15ULL + i, 64), 64);
  }
  m.add_output(x, "x");
  // One register whose output feeds one op: a 1-op sequential cone, distinct
  // from the 8-op input-fed chain.
  const WireId q = m.make_register(x, m.make_const(1, 1), 0, "q");
  m.add_output(m.make_not(q), "nq");
  Simulator sim(m, SimOptions{.backend = SimBackend::kJit});
  ASSERT_EQ(sim.active_backend(), SimBackend::kJit);

  // Warm hit: the compiled netlist is not consulted on the hit path.
  const auto kernel =
      jit::KernelCache::global().get_or_compile(m.digest(), CompiledNetlist{});
  ASSERT_NE(kernel, nullptr);
  const jit::JitKernelStats& stats = kernel->stats();
  EXPECT_GT(stats.code_bytes, 0u);
  EXPECT_GT(stats.levels, 0u);
  EXPECT_GT(stats.ops, 0u);
  EXPECT_GT(stats.folded_consts, 0u);   // the k constants
  EXPECT_GT(stats.fused_forwards, 0u);  // the chain x values
  EXPECT_GT(stats.elided_masks, 0u);    // width-64 outputs
  EXPECT_EQ(stats.seq_ops, 1u);         // only the not(q) follows the register
  EXPECT_GT(stats.compile_ns, 0u);
}

TEST_F(JitEnv, NoWritableExecutablePagesEverMapped) {
  // Compile a kernel, then scan /proc/self/maps: the W^X discipline demands
  // no mapping is simultaneously writable and executable.
  const Module m = make_module("wx");
  Simulator sim(m, SimOptions{.backend = SimBackend::kJit});
  ASSERT_EQ(sim.active_backend(), SimBackend::kJit);
  std::ifstream maps("/proc/self/maps");
  if (!maps.is_open()) GTEST_SKIP() << "/proc/self/maps unavailable";
  std::string line;
  bool saw_exec = false;
  while (std::getline(maps, line)) {
    // Format: address perms offset dev inode path; perms like "r-xp".
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos);
    const std::string perms = line.substr(space + 1, 4);
    ASSERT_GE(perms.size(), 3u);
    if (perms[2] == 'x') {
      saw_exec = true;
      EXPECT_NE(perms[1], 'w') << "RWX mapping: " << line;
    }
  }
  EXPECT_TRUE(saw_exec);  // the kernel's RX pages must be present
}

TEST(JitExecMemory, LifecycleEnforcesWThenX) {
  if (!jit::jit_available()) GTEST_SKIP();
  jit::ExecMemory memory;
  EXPECT_EQ(memory.entry(0), nullptr);
  ASSERT_TRUE(memory.allocate(64));
  ASSERT_NE(memory.data(), nullptr);
  EXPECT_EQ(memory.entry(0), nullptr);  // not executable yet
  memory.data()[0] = 0xC3;              // ret
  ASSERT_TRUE(memory.finalize());
  EXPECT_EQ(memory.data(), nullptr);    // no longer writable
  ASSERT_NE(memory.entry(0), nullptr);
  reinterpret_cast<void (*)()>(const_cast<void*>(memory.entry(0)))();
  EXPECT_FALSE(memory.finalize());      // double finalize rejected
}

/// Differential check of one module over given input vectors: the JIT result
/// must equal the full-sweep oracle on every wire.
void expect_jit_matches_sweep(
    const Module& m, const std::vector<std::string>& ports,
    const std::vector<std::vector<std::uint64_t>>& vectors) {
  Simulator sweep(m, SimOptions{.backend = SimBackend::kSweep});
  Simulator jit(m, SimOptions{.backend = SimBackend::kJit});
  ASSERT_TRUE(sweep.status().ok());
  ASSERT_TRUE(jit.status().ok());
  ASSERT_EQ(jit.active_backend(), SimBackend::kJit);
  for (const auto& vec : vectors) {
    ASSERT_EQ(vec.size(), ports.size());
    for (std::size_t i = 0; i < ports.size(); ++i) {
      sweep.set_input(ports[i], vec[i]);
      jit.set_input(ports[i], vec[i]);
    }
    sweep.eval_comb();
    jit.eval_comb();
    for (WireId w = 0; w < m.wire_count(); ++w) {
      ASSERT_EQ(sweep.get(w), jit.get(w))
          << "wire " << m.wire_name(w) << " (" << w << ") width "
          << m.wire_width(w) << " inputs " << vec[0] << "," << vec[1] << ","
          << vec[2];
    }
  }
}

TEST(JitDirected, EdgeWidthOperatorSemantics) {
  if (!jit::jit_available()) GTEST_SKIP();
  static const CellKind kBinops[] = {
      CellKind::kAdd,  CellKind::kSub,  CellKind::kMul,  CellKind::kDivU,
      CellKind::kDivS, CellKind::kRemU, CellKind::kRemS, CellKind::kAnd,
      CellKind::kOr,   CellKind::kXor,  CellKind::kEq,   CellKind::kNe,
      CellKind::kLtU,  CellKind::kLtS,  CellKind::kLeU,  CellKind::kLeS};

  for (unsigned width : {1u, 2u, 31u, 32u, 33u, 63u, 64u}) {
    Module m("w" + std::to_string(width));
    const WireId a = m.add_wire(width, "a");
    m.add_input(a, "a");
    const WireId b = m.add_wire(width, "b");
    m.add_input(b, "b");
    const WireId c = m.add_wire(8, "c");  // shift count, can exceed 64
    m.add_input(c, "c");
    for (CellKind kind : kBinops) {
      m.make_binop(kind, a, b, width);
      m.make_binop(kind, a, b, 1);   // truncating output
      m.make_binop(kind, a, b, 64);  // widening output
    }
    for (CellKind kind : {CellKind::kShl, CellKind::kShrU, CellKind::kShrS}) {
      m.make_binop(kind, a, c, width);
      m.make_binop(kind, a, c, 64);
    }
    m.make_not(a);
    m.make_zext(a, 64);
    m.make_sext(a, 64);
    if (width > 1) {
      m.make_zext(a, width - 1);  // truncating "extension"
      m.make_sext(a, width - 1);
      m.make_slice(a, width / 2, (width + 1) / 2);
      m.make_concat({m.make_slice(a, 1, width - 1), m.make_const(1, 1)});
    }
    ASSERT_TRUE(m.validate().ok()) << "width " << width;

    const std::uint64_t mask = bit_mask(width);
    const std::uint64_t sign = 1ULL << (width - 1);
    const std::vector<std::uint64_t> corners = {
        0, 1, 2, mask, mask - 1, sign, sign - 1, 0x5A5A5A5A5A5A5A5AULL & mask};
    const std::vector<std::uint64_t> counts = {
        0, 1, width - 1, width, 63, 64, 65, 255};
    std::vector<std::vector<std::uint64_t>> vectors;
    for (std::uint64_t va : corners) {
      for (std::uint64_t vb : corners) {
        for (std::uint64_t vc : counts) {
          vectors.push_back({va, vb, vc});
        }
      }
    }
    expect_jit_matches_sweep(m, {"a", "b", "c"}, vectors);
  }
}

TEST(JitDirected, SignedDivisionOverflowCorner) {
  if (!jit::jit_available()) GTEST_SKIP();
  // INT64_MIN / -1 overflows int64 (a #DE fault on raw idiv): the netlist
  // semantics wrap to INT64_MIN, and the remainder is 0. Also covers the
  // divide-by-zero totals at width 64.
  Module m("divcorner");
  const WireId a = m.add_wire(64, "a");
  m.add_input(a, "a");
  const WireId b = m.add_wire(64, "b");
  m.add_input(b, "b");
  const WireId divs = m.make_binop(CellKind::kDivS, a, b, 64, "divs");
  const WireId rems = m.make_binop(CellKind::kRemS, a, b, 64, "rems");
  const WireId divu = m.make_binop(CellKind::kDivU, a, b, 64, "divu");
  const WireId remu = m.make_binop(CellKind::kRemU, a, b, 64, "remu");

  Simulator jit(m, SimOptions{.backend = SimBackend::kJit});
  ASSERT_EQ(jit.active_backend(), SimBackend::kJit);
  const std::uint64_t int64_min = 1ULL << 63;
  jit.set_input("a", int64_min);
  jit.set_input("b", ~0ULL);  // -1
  jit.eval_comb();
  EXPECT_EQ(jit.get(divs), int64_min);  // INT64_MIN / -1 wraps
  EXPECT_EQ(jit.get(rems), 0u);
  jit.set_input("b", 0);
  jit.eval_comb();
  EXPECT_EQ(jit.get(divs), ~0ULL);      // divide by zero -> all ones
  EXPECT_EQ(jit.get(rems), int64_min);  // remainder by zero -> dividend
  EXPECT_EQ(jit.get(divu), ~0ULL);
  EXPECT_EQ(jit.get(remu), int64_min);
}

TEST(JitDirected, RamSameCycleReadWriteCollision) {
  if (!jit::jit_available()) GTEST_SKIP();
  // Synchronous read and write of the same word in the same cycle: RAM
  // ports are write-first (sim.cpp commit order, modelling NG-ULTRA TDP RAM
  // inference), so the read returns the newly written data on every backend.
  for (SimBackend backend : {SimBackend::kSweep, SimBackend::kJit}) {
    Module m("ramcol");
    Memory mem;
    mem.name = "m0";
    mem.width = 16;
    mem.depth = 8;
    mem.init = {100, 101, 102, 103, 104, 105, 106, 107};
    const std::size_t mi = m.add_memory(mem);
    const WireId addr = m.add_wire(3, "addr");
    m.add_input(addr, "addr");
    const WireId data = m.add_wire(16, "data");
    m.add_input(data, "data");
    const WireId one = m.make_const(1, 1);
    const WireId rdata = m.make_ram_read(mi, addr, one, "rdata");
    m.make_ram_write(mi, addr, data, one);
    m.add_output(rdata, "rdata");
    ASSERT_TRUE(m.validate().ok());

    Simulator sim(m, SimOptions{.backend = backend});
    ASSERT_TRUE(sim.status().ok());
    sim.set_input("addr", 3);
    sim.set_input("data", 7777);
    sim.step();  // write-first: the colliding read sees the new data
    EXPECT_EQ(sim.get_output("rdata"), 7777u) << to_string(backend);
    EXPECT_EQ(sim.read_memory(0, 3), 7777u) << to_string(backend);
    sim.set_input("data", 4242);
    sim.step();
    EXPECT_EQ(sim.get_output("rdata"), 4242u) << to_string(backend);
    EXPECT_EQ(sim.read_memory(0, 3), 4242u) << to_string(backend);
  }
}

}  // namespace
}  // namespace hermes::hw
