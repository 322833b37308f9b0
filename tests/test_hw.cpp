// Tests for the netlist model, cycle-accurate simulator, Verilog emitter and
// VCD tracer.
#include <gtest/gtest.h>

#include <cstring>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "hls/flow.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "hw/vcd.hpp"
#include "hw/verilog.hpp"

namespace hermes::hw {
namespace {

TEST(Netlist, WiresAndPorts) {
  Module m("top");
  const WireId a = m.add_wire(8, "a");
  const WireId b = m.add_wire(1);
  m.add_input(a, "a");
  m.add_output(b, "b");
  EXPECT_EQ(m.wire_width(a), 8u);
  EXPECT_EQ(m.port_wire("a"), a);
  EXPECT_EQ(m.port_wire("nope"), kNoWire);
  EXPECT_TRUE(m.validate().ok());
}

TEST(Netlist, DetectsMultipleDrivers) {
  Module m("bad");
  const WireId a = m.add_wire(8);
  Cell c1;
  c1.kind = CellKind::kConst;
  c1.outputs = {a};
  m.add_cell(c1);
  m.add_cell(c1);  // same output again
  EXPECT_FALSE(m.validate().ok());
}

TEST(Netlist, DetectsBadMuxSelect) {
  Module m("bad");
  const WireId sel = m.add_wire(2);
  const WireId x = m.make_const(0, 8);
  const WireId y = m.make_const(1, 8);
  Cell mux;
  mux.kind = CellKind::kMux;
  mux.inputs = {sel, x, y};
  mux.outputs = {m.add_wire(8)};
  m.add_cell(mux);
  EXPECT_FALSE(m.validate().ok());
}

TEST(Netlist, StatsCounting) {
  Module m("stats");
  const WireId a = m.make_const(1, 32);
  const WireId b = m.make_const(2, 32);
  m.make_binop(CellKind::kAdd, a, b, 32);
  m.make_binop(CellKind::kMul, a, b, 32);
  m.make_binop(CellKind::kDivU, a, b, 32);
  const WireId en = m.make_const(1, 1);
  m.make_register(a, en, 0);
  Memory mem;
  mem.width = 16;
  mem.depth = 32;
  mem.name = "buf";
  m.add_memory(mem);
  const NetlistStats stats = m.stats();
  EXPECT_EQ(stats.arithmetic, 3u);
  EXPECT_EQ(stats.multipliers, 1u);
  EXPECT_EQ(stats.dividers, 1u);
  EXPECT_EQ(stats.registers, 1u);
  EXPECT_EQ(stats.register_bits, 32u);
  EXPECT_EQ(stats.memory_bits, 512u);
}

// ---- simulator semantics, parameterized over operators ----

struct OpCase {
  CellKind kind;
  unsigned width;
  std::uint64_t a, b, expect;
};

/// gtest names each case after its parameter, dumped byte by byte. The three
/// padding bytes after `kind` are uninitialized, so they used to change the
/// ctest names from one build to the next; dump a copy whose padding is zero.
void PrintTo(const OpCase& c, std::ostream* os) {
  OpCase zeroed;
  std::memset(&zeroed, 0, sizeof(zeroed));
  zeroed.kind = c.kind;
  zeroed.width = c.width;
  zeroed.a = c.a;
  zeroed.b = c.b;
  zeroed.expect = c.expect;
  ::testing::internal::PrintBytesInObjectTo(
      reinterpret_cast<const unsigned char*>(&zeroed), sizeof(zeroed), os);
}

class SimBinop : public ::testing::TestWithParam<OpCase> {};

TEST_P(SimBinop, Evaluates) {
  const OpCase& c = GetParam();
  Module m("op");
  const WireId a = m.add_wire(c.width, "a");
  const WireId b = m.add_wire(c.width, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const unsigned out_width =
      (c.kind == CellKind::kEq || c.kind == CellKind::kNe ||
       c.kind == CellKind::kLtU || c.kind == CellKind::kLtS ||
       c.kind == CellKind::kLeU || c.kind == CellKind::kLeS)
          ? 1
          : c.width;
  const WireId out = m.make_binop(c.kind, a, b, out_width, "out");
  m.add_output(out, "out");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("a", c.a);
  sim.set_input("b", c.b);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("out"), c.expect)
      << to_string(c.kind) << " w" << c.width;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, SimBinop,
    ::testing::Values(
        OpCase{CellKind::kAdd, 8, 200, 100, 44},       // wraps at 8 bits
        OpCase{CellKind::kSub, 8, 10, 20, 246},        // wraps negative
        OpCase{CellKind::kMul, 16, 300, 300, 90000 & 0xFFFF},
        OpCase{CellKind::kDivU, 32, 100, 7, 14},
        OpCase{CellKind::kDivU, 32, 100, 0, 0xFFFFFFFFull},  // div-by-zero
        OpCase{CellKind::kDivS, 8, 0xF0, 3, 0xFBu},    // -16/3 = -5 -> 0xFB
        OpCase{CellKind::kRemU, 32, 100, 7, 2},
        OpCase{CellKind::kRemU, 32, 100, 0, 100},      // rem-by-zero
        OpCase{CellKind::kRemS, 8, 0xF0, 7, 0xFEu}));  // -16%7 = -2

INSTANTIATE_TEST_SUITE_P(
    Logic, SimBinop,
    ::testing::Values(OpCase{CellKind::kAnd, 8, 0xF0, 0x3C, 0x30},
                      OpCase{CellKind::kOr, 8, 0xF0, 0x0C, 0xFC},
                      OpCase{CellKind::kXor, 8, 0xFF, 0x0F, 0xF0},
                      OpCase{CellKind::kShl, 16, 0x00FF, 4, 0x0FF0},
                      OpCase{CellKind::kShrU, 16, 0x8000, 15, 0x0001},
                      OpCase{CellKind::kShrS, 8, 0x80, 3, 0xF0}));

INSTANTIATE_TEST_SUITE_P(
    Compare, SimBinop,
    ::testing::Values(OpCase{CellKind::kEq, 32, 5, 5, 1},
                      OpCase{CellKind::kNe, 32, 5, 6, 1},
                      OpCase{CellKind::kLtU, 8, 0x80, 0x7F, 0},   // unsigned
                      OpCase{CellKind::kLtS, 8, 0x80, 0x7F, 1},   // signed
                      OpCase{CellKind::kLeU, 8, 7, 7, 1},
                      OpCase{CellKind::kLeS, 8, 0xFF, 0, 1}));    // -1 <= 0

TEST(Sim, RegisterHoldsAndEnables) {
  Module m("reg");
  const WireId d = m.add_wire(8, "d");
  const WireId en = m.add_wire(1, "en");
  m.add_input(d, "d");
  m.add_input(en, "en");
  const WireId q = m.make_register(d, en, 0x55, "q");
  m.add_output(q, "q");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  EXPECT_EQ(sim.get_output("q"), 0x55u);  // reset value
  sim.set_input("d", 0xAA);
  sim.set_input("en", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0x55u);  // enable low: held
  sim.set_input("en", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0xAAu);  // captured
  sim.set_input("d", 0x11);
  sim.set_input("en", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0xAAu);  // held again
}

TEST(Sim, SyncRamReadWriteFirstSemantics) {
  Module m("ram");
  Memory mem;
  mem.name = "buf";
  mem.width = 16;
  mem.depth = 8;
  const std::size_t mi = m.add_memory(mem);
  const WireId addr = m.add_wire(3, "addr");
  const WireId data = m.add_wire(16, "data");
  const WireId wen = m.add_wire(1, "wen");
  const WireId ren = m.add_wire(1, "ren");
  m.add_input(addr, "addr");
  m.add_input(data, "data");
  m.add_input(wen, "wen");
  m.add_input(ren, "ren");
  const WireId rdata = m.make_ram_read(mi, addr, ren, "rdata");
  m.make_ram_write(mi, addr, data, wen);
  m.add_output(rdata, "rdata");

  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  // Simultaneous read+write to the same address: write-first.
  sim.set_input("addr", 3);
  sim.set_input("data", 0xBEEF);
  sim.set_input("wen", 1);
  sim.set_input("ren", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("rdata"), 0xBEEFu);
  EXPECT_EQ(sim.read_memory(mi, 3), 0xBEEFu);
  // Read-only on another address.
  sim.write_memory(mi, 5, 0x1234);
  sim.set_input("addr", 5);
  sim.set_input("wen", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("rdata"), 0x1234u);
  // Disabled read holds the old value.
  sim.set_input("addr", 3);
  sim.set_input("ren", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("rdata"), 0x1234u);
}

TEST(Sim, MemoryInitImage) {
  Module m("rom");
  Memory mem;
  mem.name = "table";
  mem.width = 8;
  mem.depth = 4;
  mem.init = {10, 20, 30, 40};
  const std::size_t mi = m.add_memory(mem);
  const WireId addr = m.add_wire(2, "addr");
  m.add_input(addr, "addr");
  const WireId one = m.make_const(1, 1);
  const WireId rdata = m.make_ram_read(mi, addr, one, "rdata");
  m.add_output(rdata, "rdata");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  for (std::uint64_t i = 0; i < 4; ++i) {
    sim.set_input("addr", i);
    sim.step();
    EXPECT_EQ(sim.get_output("rdata"), (i + 1) * 10);
  }
}

TEST(Sim, DetectsCombinationalLoop) {
  Module m("loop");
  const WireId a = m.add_wire(1, "a");
  const WireId b = m.add_wire(1, "b");
  // a = not b; b = not a  -> loop.
  Cell n1;
  n1.kind = CellKind::kNot;
  n1.inputs = {b};
  n1.outputs = {a};
  m.add_cell(n1);
  Cell n2;
  n2.kind = CellKind::kNot;
  n2.inputs = {a};
  n2.outputs = {b};
  m.add_cell(n2);
  Simulator sim(m);
  EXPECT_FALSE(sim.status().ok());
  EXPECT_EQ(sim.status().code(), ErrorCode::kInternal);
}

TEST(Sim, RunUntilTimesOut) {
  Module m("never");
  const WireId never = m.make_const(0, 1, "done");
  m.add_output(never, "done");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  auto result = sim.run_until("done", 100);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(Sim, CounterCircuit) {
  // 4-bit counter: q <= q + 1 each cycle; wraps at 16.
  Module m("counter");
  const WireId one1 = m.make_const(1, 1);
  const WireId d_placeholder = m.add_wire(4, "d");
  const WireId q = m.make_register(d_placeholder, one1, 0, "q");
  const WireId one4 = m.make_const(1, 4);
  Cell add;
  add.kind = CellKind::kAdd;
  add.inputs = {q, one4};
  add.outputs = {d_placeholder};
  m.add_cell(add);
  m.add_output(q, "q");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(sim.get_output("q"), i % 16);
    sim.step();
  }
  EXPECT_EQ(sim.cycles(), 40u);
}

TEST(Sim, SliceConcatZextSext) {
  Module m("bits");
  const WireId in = m.add_wire(16, "in");
  m.add_input(in, "in");
  const WireId hi = m.make_slice(in, 8, 8, "hi");
  const WireId lo = m.make_slice(in, 0, 8, "lo");
  const WireId swapped = m.make_concat({hi, lo}, "swapped");
  const WireId extended = m.make_sext(lo, 16, "sext");
  const WireId zext = m.make_zext(lo, 16, "zext");
  m.add_output(swapped, "swapped");
  m.add_output(extended, "sext");
  m.add_output(zext, "zext");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("in", 0x12F0);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("swapped"), 0xF012u);
  EXPECT_EQ(sim.get_output("sext"), 0xFFF0u);
  EXPECT_EQ(sim.get_output("zext"), 0x00F0u);
}

TEST(Verilog, EmitsStructuralElements) {
  Module m("accel");
  const WireId a = m.add_wire(32, "a");
  m.add_input(a, "a");
  const WireId c = m.make_const(7, 32);
  const WireId sum = m.make_binop(CellKind::kAdd, a, c, 32, "sum");
  const WireId en = m.make_const(1, 1);
  const WireId q = m.make_register(sum, en, 0, "q");
  m.add_output(q, "result");
  Memory mem;
  mem.name = "scratch";
  mem.width = 32;
  mem.depth = 16;
  mem.dual_port = true;
  m.add_memory(mem);

  const std::string verilog = emit_verilog(m);
  EXPECT_NE(verilog.find("module accel("), std::string::npos);
  EXPECT_NE(verilog.find("input wire clk"), std::string::npos);
  EXPECT_NE(verilog.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(verilog.find("True Dual-Port RAM"), std::string::npos);
  EXPECT_NE(verilog.find("endmodule"), std::string::npos);
}

TEST(Vcd, RecordsChanges) {
  Module m("counter");
  const WireId one = m.make_const(1, 1);
  const WireId d = m.add_wire(4, "d");
  const WireId q = m.make_register(d, one, 0, "q");
  const WireId inc = m.make_const(1, 4);
  Cell add;
  add.kind = CellKind::kAdd;
  add.inputs = {q, inc};
  add.outputs = {d};
  m.add_cell(add);
  m.add_output(q, "q");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  VcdTrace trace(m, {q});
  for (int i = 0; i < 4; ++i) {
    trace.sample(sim);
    sim.step();
  }
  const std::string vcd = trace.str();
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("b0011"), std::string::npos);  // q reaches 3
}

// Randomized property: simulator addition matches 64-bit reference under
// truncation, across widths.
class SimWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimWidthSweep, AddMatchesReference) {
  const unsigned width = GetParam();
  Module m("w");
  const WireId a = m.add_wire(width, "a");
  const WireId b = m.add_wire(width, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const WireId out = m.make_binop(CellKind::kAdd, a, b, width, "out");
  m.add_output(out, "out");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  Rng rng(width);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t y = rng.next_u64();
    sim.set_input("a", x);
    sim.set_input("b", y);
    sim.eval_comb();
    EXPECT_EQ(sim.get_output("out"),
              truncate(truncate(x, width) + truncate(y, width), width));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimWidthSweep,
                         ::testing::Values(1u, 7u, 8u, 16u, 24u, 32u, 48u, 64u));

}  // namespace
}  // namespace hermes::hw

// Dead-cell sweep tests appended as a separate suite.
namespace hermes::hw {
namespace {

TEST(SweepDeadCells, RemovesUnusedLogicTransitively) {
  Module m("sweep");
  const WireId a = m.add_wire(8, "a");
  m.add_input(a, "a");
  // Live path: out = a + 1.
  const WireId one = m.make_const(1, 8);
  const WireId live = m.make_binop(CellKind::kAdd, a, one, 8, "live");
  m.add_output(live, "out");
  // Dead chain: d2 consumes d1; nothing consumes d2 -> both go, and the
  // const feeding only them goes on the second sweep iteration.
  const WireId c = m.make_const(7, 8);
  const WireId d1 = m.make_binop(CellKind::kXor, a, c, 8, "d1");
  m.make_binop(CellKind::kAnd, d1, c, 8, "d2");
  // Dead register (and the enable const that only it uses).
  const WireId en = m.make_const(1, 1, "dead_en");
  m.make_register(a, en, 0, "dead_reg");

  const std::size_t before = m.cells().size();
  const std::size_t removed = sweep_dead_cells(m);
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(m.cells().size(), before - removed);
  EXPECT_TRUE(m.validate().ok());

  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("a", 41);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("out"), 42u);
}

TEST(SweepDeadCells, KeepsRamWritesAndTheirCone) {
  Module m("ramkeep");
  Memory mem;
  mem.name = "buf";
  mem.width = 8;
  mem.depth = 4;
  const std::size_t mi = m.add_memory(mem);
  const WireId addr = m.make_const(2, 2);
  const WireId data = m.make_const(0xAB, 8);
  const WireId en = m.make_const(1, 1);
  m.make_ram_write(mi, addr, data, en);
  EXPECT_EQ(sweep_dead_cells(m), 0u) << "stores and their operands are live";
  Simulator sim(m);
  sim.step();
  EXPECT_EQ(sim.read_memory(mi, 2), 0xABu);
}

TEST(SweepDeadCells, NoOpOnFullyLiveNetlist) {
  Module m("live");
  const WireId a = m.add_wire(4, "a");
  m.add_input(a, "a");
  const WireId one = m.make_const(1, 1);
  const WireId q = m.make_register(a, one, 0, "q");
  m.add_output(q, "q");
  EXPECT_EQ(sweep_dead_cells(m), 0u);
}

TEST(SweepDeadCells, HlsOutputShrinksButStaysCorrect) {
  hls::FlowOptions options;
  options.top = "f";
  auto flow = hls::run_flow(
      "int f(int a, int b) { return a * 2 + b / 3; }", options);
  ASSERT_TRUE(flow.ok());
  hw::Module module = flow.value().fsmd.module;  // copy to mutate
  sweep_dead_cells(module);
  EXPECT_TRUE(module.validate().ok());
  Simulator sim(module);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("arg_a", 10);
  sim.set_input("arg_b", 9);
  sim.set_input("start", 1);
  auto cycles = sim.run_until("done", 100'000);
  ASSERT_TRUE(cycles.ok());
  EXPECT_EQ(sim.get_output("return_value"), 23u);
}

}  // namespace
}  // namespace hermes::hw
