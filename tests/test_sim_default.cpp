// The default simulator backend: a default-constructed hw::Simulator runs
// the JIT wherever the host can execute native code and falls back to the
// event interpreter otherwise (HERMES_DISABLE_JIT=1, non-x86-64, W^X
// denied). The accelerator-shaped differentials below hold the default
// engine to the interpreter the way the mission workload and the HLS
// co-simulation testbench use it: one simulator held across many frames,
// reset between them, driven through the start/done handshake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/vbn.hpp"
#include "common/rng.hpp"
#include "hls/flow.hpp"
#include "hls/testbench.hpp"
#include "hw/jit/cache.hpp"
#include "hw/jit/exec_memory.hpp"
#include "hw/sim.hpp"

namespace hermes::hw {
namespace {

constexpr unsigned kSide = 8;
constexpr std::size_t kFrames = 6;

/// Sets HERMES_DISABLE_JIT for one scope and restores the caller's value,
/// so the tests behave the same inside a whole-suite HERMES_DISABLE_JIT=1
/// run.
class ScopedJitDisable {
 public:
  explicit ScopedJitDisable(bool disable) {
    if (const char* prior = std::getenv(kVar)) prior_ = prior;
    ::setenv(kVar, disable ? "1" : "0", 1);
  }
  ~ScopedJitDisable() {
    if (prior_) {
      ::setenv(kVar, prior_->c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ScopedJitDisable(const ScopedJitDisable&) = delete;
  ScopedJitDisable& operator=(const ScopedJitDisable&) = delete;

 private:
  static constexpr const char* kVar = "HERMES_DISABLE_JIT";
  std::optional<std::string> prior_;
};

/// q <= a + 1 on every enabled clock edge.
Module make_incrementer() {
  Module m("incrementer");
  const WireId a = m.add_wire(16, "a");
  m.add_input(a, "a");
  const WireId en = m.add_wire(1, "en");
  m.add_input(en, "en");
  const WireId next =
      m.make_binop(CellKind::kAdd, a, m.make_const(1, 16), 16, "next");
  m.add_output(m.make_register(next, en, 0, "q"), "q");
  return m;
}

hls::FlowResult build_sobel() {
  const apps::KernelSpec spec = apps::sobel_kernel(kSide, kSide);
  hls::FlowOptions options;
  options.top = spec.name;
  auto flow = hls::run_flow(spec.source, options);
  EXPECT_TRUE(flow.ok()) << flow.status().to_string();
  return flow.take();
}

std::vector<std::vector<std::uint64_t>> make_frames() {
  Rng rng(0x50BE1);
  std::vector<std::vector<std::uint64_t>> frames;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const apps::VbnFrame frame = apps::render_frame(
        kSide, kSide, 2.0 + rng.next_double() * 4.0,
        2.0 + rng.next_double() * 4.0, 1.0 + rng.next_double(), 15, rng);
    frames.emplace_back(frame.pixels.begin(), frame.pixels.end());
  }
  return frames;
}

TEST(SimDefault, DefaultIsJitWhereverTheHostCanRunIt) {
  const Module m = make_incrementer();
  Simulator sim(m);
  EXPECT_EQ(sim.options().backend, SimBackend::kJit);
  EXPECT_EQ(sim.active_backend(),
            jit::jit_available() ? SimBackend::kJit : SimBackend::kEvent);
}

TEST(SimDefault, DisableEnvFallsBackToEventInterpreter) {
  const Module m = make_incrementer();
  ScopedJitDisable disabled(true);
  Simulator sim(m);
  EXPECT_EQ(sim.options().backend, SimBackend::kJit);
  EXPECT_EQ(sim.active_backend(), SimBackend::kEvent);
  sim.set_input("a", 41);
  sim.set_input("en", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 42u);
}

TEST(SimDefault, SobelAcceleratorMatchesInterpreterAcrossFrames) {
  // Mission-shaped: one held accelerator per engine, reset per frame, each
  // frame run through the start/done handshake. Output memory, every wire
  // and the run_until cycle count must agree between the default engine and
  // the pinned interpreter.
  const hls::FlowResult flow = build_sobel();
  const Module& module = flow.fsmd.module;
  Simulator fast(module);
  Simulator oracle(module, SimOptions{.backend = SimBackend::kEvent});
  ASSERT_TRUE(fast.status().ok());
  ASSERT_TRUE(oracle.status().ok());
  if (jit::jit_available()) {
    ASSERT_EQ(fast.active_backend(), SimBackend::kJit);
  }
  ASSERT_EQ(oracle.active_backend(), SimBackend::kEvent);

  const std::size_t out_words = module.memories()[1].depth;
  for (const std::vector<std::uint64_t>& image : make_frames()) {
    for (Simulator* sim : {&fast, &oracle}) {
      sim->reset();
      for (std::size_t i = 0; i < image.size(); ++i) {
        sim->write_memory(0, i, image[i]);
      }
      sim->set_input("start", 1);
    }
    auto fast_cycles = fast.run_until("done", 1'000'000);
    auto oracle_cycles = oracle.run_until("done", 1'000'000);
    ASSERT_TRUE(fast_cycles.ok()) << fast_cycles.status().to_string();
    ASSERT_TRUE(oracle_cycles.ok()) << oracle_cycles.status().to_string();
    ASSERT_EQ(fast_cycles.value(), oracle_cycles.value());
    ASSERT_EQ(fast.cycles(), oracle.cycles());
    for (std::size_t i = 0; i < out_words; ++i) {
      ASSERT_EQ(fast.read_memory(1, i), oracle.read_memory(1, i))
          << "pixel " << i;
    }
    for (WireId w = 0; w < module.wire_count(); ++w) {
      ASSERT_EQ(fast.get(w), oracle.get(w)) << module.wire_name(w);
    }
    for (Simulator* sim : {&fast, &oracle}) {
      sim->set_input("start", 0);
      sim->step();
    }
  }
}

TEST(SimDefault, CosimulateMatchesWithJitEnabledAndDisabled) {
  // The testbench builds a default simulator per call; a kernel-cache lookup
  // is the witness that the JIT arm really engaged and the disabled arm
  // really did not.
  const hls::FlowResult flow = build_sobel();
  for (const std::vector<std::uint64_t>& image : make_frames()) {
    std::optional<std::uint64_t> cycles;
    for (bool disable : {false, true}) {
      ScopedJitDisable scope(disable);
      const auto before = jit::KernelCache::global().stats();
      auto result = hls::cosimulate(flow, {}, {{0, image}});
      const auto after = jit::KernelCache::global().stats();
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_TRUE(result.value().match)
          << (disable ? "interpreter: " : "jit: ") << result.value().mismatch;
      const bool engaged = !disable && jit::jit_available();
      EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
                engaged ? 1u : 0u);
      if (cycles) {
        EXPECT_EQ(*cycles, result.value().hw_cycles);
      }
      cycles = result.value().hw_cycles;
    }
  }
}

}  // namespace
}  // namespace hermes::hw
