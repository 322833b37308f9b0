// Tests for IR lowering, the interpreter golden model, the optimization
// passes and CDFG extraction. Pass correctness is checked semantically: the
// interpreter must produce identical results before and after optimization.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "frontend/parser.hpp"
#include "frontend/typecheck.hpp"
#include "ir/cdfg.hpp"
#include "ir/interp.hpp"
#include "ir/lower.hpp"
#include "ir/passes.hpp"
#include "hls/flow.hpp"
#include "hls/testbench.hpp"

namespace hermes::ir {
namespace {

Function lower_source(std::string_view source, std::string_view top,
                      unsigned unroll = 0) {
  auto program = fe::parse(source);
  EXPECT_TRUE(program.ok()) << program.status().to_string();
  EXPECT_TRUE(fe::typecheck(program.value()).ok());
  LowerOptions options;
  options.unroll_limit = unroll;
  auto fn = lower(program.value(), top, options);
  EXPECT_TRUE(fn.ok()) << fn.status().to_string();
  return fn.take();
}

TEST(Lowering, SimpleExpression) {
  Function fn = lower_source("int f(int a, int b) { return a * b + 1; }", "f");
  EXPECT_TRUE(fn.validate().ok());
  EXPECT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.return_type.bits, 32u);
  Interpreter interp(fn);
  auto result = interp.run(std::vector<std::uint64_t>{6, 7});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().return_value, 43u);
}

TEST(Lowering, ShortCircuitSemantics) {
  // g() stores to out[0]; it must NOT run when the left side decides.
  const char* source = R"(
    int mark(int out[2]) { out[0] = 1; return 1; }
    int f(int a, int out[2]) {
      if (a > 0 && mark(out) > 0) { return 2; }
      return 3;
    }
  )";
  Function fn = lower_source(source, "f");
  // `out` is the only interface array of the top function -> memory 0.
  Interpreter interp(fn);
  interp.set_memory(0, {0, 0});
  auto r = interp.run(std::vector<std::uint64_t>{0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 3u);
  EXPECT_EQ(interp.memory(0)[0], 0u) << "right operand must not have run";

  interp.set_memory(0, {0, 0});
  r = interp.run(std::vector<std::uint64_t>{5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 2u);
  EXPECT_EQ(interp.memory(0)[0], 1u);
}

TEST(Lowering, SignedNarrowingCasts) {
  Function fn = lower_source(
      "int f(int a) { int8_t b = (int8_t)a; return b; }", "f");
  Interpreter interp(fn);
  auto r = interp.run(std::vector<std::uint64_t>{0x180});  // 384 -> -128
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<std::int32_t>(r.value().return_value), -128);
}

TEST(Lowering, ParamPassByValue) {
  // Callee mutates its parameter; the caller's variable must not change.
  const char* source = R"(
    int inc(int x) { x = x + 1; return x; }
    int f(int a) { int r = inc(a); return a * 100 + r; }
  )";
  Function fn = lower_source(source, "f");
  Interpreter interp(fn);
  auto r = interp.run(std::vector<std::uint64_t>{5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 506u);
}

TEST(Lowering, NestedLoopsAndBreakContinue) {
  const char* source = R"(
    int f(int n) {
      int acc = 0;
      for (int i = 0; i < n; i = i + 1) {
        if (i == 3) { continue; }
        for (int j = 0; j < n; j = j + 1) {
          if (j > i) { break; }
          acc = acc + 1;
        }
      }
      return acc;
    }
  )";
  Function fn = lower_source(source, "f");
  Interpreter interp(fn);
  auto r = interp.run(std::vector<std::uint64_t>{6});
  ASSERT_TRUE(r.ok());
  // i=0:1, i=1:2, i=2:3, i=3:skip, i=4:5, i=5:6 -> 17
  EXPECT_EQ(r.value().return_value, 17u);
}

TEST(Lowering, UnrollEliminatesBackEdges) {
  const char* source = R"(
    int f(int a[4]) {
      int acc = 0;
      for (int i = 0; i < 4; i = i + 1) { acc = acc + a[i]; }
      return acc;
    }
  )";
  Function rolled = lower_source(source, "f", 0);
  Function unrolled = lower_source(source, "f", 8);
  EXPECT_GT(rolled.num_blocks(), unrolled.num_blocks());
  Interpreter ri(rolled), ui(unrolled);
  ri.set_memory(0, {1, 2, 3, 4});
  ui.set_memory(0, {1, 2, 3, 4});
  EXPECT_EQ(ri.run({}).value().return_value, 10u);
  EXPECT_EQ(ui.run({}).value().return_value, 10u);
}

TEST(Interp, OperationCounts) {
  Function fn = lower_source(
      "int f(int a[8]) { int s = 0; for (int i = 0; i < 8; i = i + 1) "
      "{ s = s + a[i] * a[i]; } return s; }", "f");
  Interpreter interp(fn);
  interp.set_memory(0, {1, 1, 1, 1, 1, 1, 1, 1});
  auto r = interp.run({});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 8u);
  EXPECT_GE(r.value().mem_reads, 8u);
  EXPECT_EQ(r.value().multiplies, 8u);
}

TEST(Interp, StepLimitEnforced) {
  Function fn = lower_source("int f() { while (true) { } return 0; }", "f");
  Interpreter interp(fn);
  auto r = interp.run({}, 10'000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(Interp, OutOfBoundsSemantics) {
  // Addresses are truncated to the memory's address width (hardware
  // semantics); indices that still fall outside a non-power-of-two depth
  // read 0 and drop stores — the deterministic UB policy shared with the
  // netlist simulator. Depth 5 -> 3 address bits, so index 6 is OOB.
  const char* source = R"(
    int f(int a[5], int idx) {
      a[idx] = 99;
      return a[idx];
    }
  )";
  Function fn = lower_source(source, "f");
  Interpreter interp(fn);
  interp.set_memory(0, {1, 2, 3, 4, 5});
  auto r = interp.run(std::vector<std::uint64_t>{6});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 0u);
  // In-bounds behaviour unchanged.
  r = interp.run(std::vector<std::uint64_t>{2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().return_value, 99u);
}

// ---- passes: semantic preservation on a corpus of programs ----

struct PassCase {
  const char* name;
  const char* source;
  const char* top;
  std::vector<std::uint64_t> args;
  std::vector<std::vector<std::uint64_t>> memories;  // by memory index
};

// Print the case name, not gtest's raw-byte dump: the pointers in it would
// make the discovered ctest name change from run to run.
void PrintTo(const PassCase& c, std::ostream* os) { *os << c.name; }

class PassPreservation : public ::testing::TestWithParam<PassCase> {};

TEST_P(PassPreservation, OptimizedMatchesUnoptimized) {
  const PassCase& c = GetParam();
  Function baseline = lower_source(c.source, c.top);
  Function optimized = lower_source(c.source, c.top);
  run_pipeline(optimized);
  EXPECT_TRUE(optimized.validate().ok());
  // If-conversion deliberately trades a few extra (speculated) instructions
  // for eliminated control states, so allow modest growth.
  EXPECT_LE(optimized.instr_count(), baseline.instr_count() + 8);

  Interpreter bi(baseline), oi(optimized);
  for (std::size_t m = 0; m < c.memories.size(); ++m) {
    bi.set_memory(m, c.memories[m]);
    oi.set_memory(m, c.memories[m]);
  }
  auto br = bi.run(c.args);
  auto orr = oi.run(c.args);
  ASSERT_TRUE(br.ok());
  ASSERT_TRUE(orr.ok());
  EXPECT_EQ(br.value().return_value, orr.value().return_value);
  for (std::size_t m = 0; m < c.memories.size(); ++m) {
    EXPECT_EQ(bi.memory(m), oi.memory(m)) << "memory " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PassPreservation,
    ::testing::Values(
        PassCase{"const_fold", "int f() { return (2 + 3) * 4 - 6 / 2; }", "f",
                 {}, {}},
        PassCase{"dead_code",
                 "int f(int a) { int unused = a * 17; int b = a + 1; return b; }",
                 "f", {9}, {}},
        PassCase{"cse",
                 "int f(int a, int b) { return (a * b) + (a * b) + (a * b); }",
                 "f", {12, 13}, {}},
        PassCase{"strength",
                 "uint32_t f(uint32_t a) { return a * 8 + a / 4 + a % 16; }",
                 "f", {1234567}, {}},
        PassCase{"loop_mem",
                 "int f(int a[8]) { int s = 0; for (int i = 0; i < 8; i = i + 1)"
                 " { a[i] = a[i] * 2; s = s + a[i]; } return s; }",
                 "f", {}, {{1, 2, 3, 4, 5, 6, 7, 8}}},
        PassCase{"branchy",
                 "int f(int a) { int r = 0; if (a > 10) { r = a * 2; } else "
                 "{ r = a + 100; } return r + (a > 10 ? 1 : 2); }",
                 "f", {11}, {}},
        PassCase{"shifts",
                 "int f(int a) { return (a << 0) + (a * 1) + (a & 0xFFFFFFFF) "
                 "+ (a | 0) + (a ^ 0); }",
                 "f", {77}, {}}),
    [](const ::testing::TestParamInfo<PassCase>& info) {
      return info.param.name;
    });

TEST(Passes, ConstantFoldCollapsesConstantExpression) {
  Function fn = lower_source("int f() { return 2 * 3 + 4; }", "f");
  run_pipeline(fn);
  // After folding + DCE + CFG simplification only a handful of instructions
  // remain (a const and a ret, possibly a copy).
  EXPECT_LE(fn.instr_count(), 4u);
  Interpreter interp(fn);
  EXPECT_EQ(interp.run({}).value().return_value, 10u);
}

TEST(Passes, DceRemovesUnreadWrites) {
  Function fn = lower_source(
      "int f(int a) { int x = a * 3; int y = a * 5; return y; }", "f");
  const std::size_t before = fn.instr_count();
  dce(fn);
  EXPECT_LT(fn.instr_count(), before);
  Interpreter interp(fn);
  EXPECT_EQ(interp.run(std::vector<std::uint64_t>{4}).value().return_value, 20u);
}

TEST(Passes, StrengthReductionRemovesMulDiv) {
  Function fn = lower_source(
      "uint32_t f(uint32_t a) { return a * 16 + a / 8 + a % 4; }", "f");
  run_pipeline(fn);
  // No multiplies or divides should survive.
  std::size_t muldiv = 0;
  for (BlockId b = 0; b < fn.num_blocks(); ++b) {
    for (const Instr& instr : fn.block(b).instrs) {
      if (instr.op == Op::kMul || instr.op == Op::kDiv || instr.op == Op::kRem) {
        ++muldiv;
      }
    }
  }
  EXPECT_EQ(muldiv, 0u);
  Interpreter interp(fn);
  EXPECT_EQ(interp.run(std::vector<std::uint64_t>{100}).value().return_value,
            100u * 16 + 100 / 8 + 100 % 4);
}

TEST(Passes, MarkRomsDetectsReadOnlyLocals) {
  Function fn = lower_source(
      "int f(int i) { int t[4] = {9, 8, 7, 6}; return t[i & 3]; }", "f");
  run_pipeline(fn);
  bool found_rom = false;
  for (const MemDecl& mem : fn.memories()) {
    if (!mem.is_interface) {
      EXPECT_TRUE(mem.is_rom);
      found_rom = true;
    }
  }
  EXPECT_TRUE(found_rom);
}

TEST(Passes, PipelineIsIdempotent) {
  Function fn = lower_source(
      "int f(int a, int b) { return (a + 0) * (b * 1) + (2 + 3); }", "f");
  run_pipeline(fn);
  const std::size_t after_first = fn.instr_count();
  run_pipeline(fn);
  EXPECT_EQ(fn.instr_count(), after_first);
}

TEST(Cdfg, RawEdgesWithinBlock) {
  Function fn = lower_source("int f(int a) { return (a + 1) * (a + 2); }", "f");
  run_pipeline(fn);
  const CdfgSummary summary = summarize_cdfg(fn);
  EXPECT_GT(summary.data_edges, 0u);
  EXPECT_EQ(summary.blocks, fn.num_blocks());
}

TEST(Cdfg, MemoryOrderingEdges) {
  Function fn = lower_source(
      "void f(int a[4]) { a[0] = 1; int x = a[0]; a[1] = x; }", "f");
  // Find the block containing the store/load/store and check edge kinds.
  bool found_mem_edge = false;
  for (BlockId b = 0; b < fn.num_blocks(); ++b) {
    const BlockCdfg cdfg = build_block_cdfg(fn, b);
    for (const CdfgNode& node : cdfg.nodes) {
      for (const Dep& dep : node.deps) {
        if (dep.kind == DepKind::kMemRaw || dep.kind == DepKind::kMemWar ||
            dep.kind == DepKind::kMemWaw) {
          found_mem_edge = true;
        }
      }
    }
  }
  EXPECT_TRUE(found_mem_edge);
}

TEST(Cdfg, DepsPointBackward) {
  Function fn = lower_source(
      "int f(int a[8]) { int s = 0; for (int i = 0; i < 8; i = i + 1) "
      "{ s = s + a[i]; } return s; }", "f");
  for (BlockId b = 0; b < fn.num_blocks(); ++b) {
    const BlockCdfg cdfg = build_block_cdfg(fn, b);
    for (std::size_t i = 0; i < cdfg.nodes.size(); ++i) {
      for (const Dep& dep : cdfg.nodes[i].deps) {
        EXPECT_LT(dep.on, i);
      }
    }
  }
}

TEST(IrDump, ContainsStructure) {
  Function fn = lower_source("int f(int a) { return a + 1; }", "f");
  const std::string dump = fn.dump();
  EXPECT_NE(dump.find("function f"), std::string::npos);
  EXPECT_NE(dump.find("add"), std::string::npos);
  EXPECT_NE(dump.find("ret"), std::string::npos);
}

// Randomized differential test: random arithmetic expressions evaluated by
// the interpreter before/after the pass pipeline.
TEST(Passes, RandomizedDifferential) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    // Build a random expression tree as source text.
    std::string expr = "a";
    const char* ops[] = {" + ", " - ", " * ", " & ", " | ", " ^ "};
    for (int depth = 0; depth < 6; ++depth) {
      const char* op = ops[rng.next_below(6)];
      if (rng.next_bool(0.5)) {
        expr = "(" + expr + op + std::to_string(rng.next_below(100)) + ")";
      } else {
        expr = "(b" + std::string(op) + expr + ")";
      }
    }
    const std::string source =
        "int f(int a, int b) { return " + expr + "; }";
    Function baseline = lower_source(source, "f");
    Function optimized = lower_source(source, "f");
    run_pipeline(optimized);
    Interpreter bi(baseline), oi(optimized);
    for (int input = 0; input < 5; ++input) {
      const std::uint64_t a = rng.next_u64() & 0xFFFFFFFF;
      const std::uint64_t b = rng.next_u64() & 0xFFFFFFFF;
      auto br = bi.run(std::vector<std::uint64_t>{a, b});
      auto orr = oi.run(std::vector<std::uint64_t>{a, b});
      ASSERT_TRUE(br.ok());
      ASSERT_TRUE(orr.ok());
      EXPECT_EQ(br.value().return_value, orr.value().return_value)
          << source << " with a=" << a << " b=" << b;
    }
  }
}

}  // namespace
}  // namespace hermes::ir

// If-conversion tests appended as a separate suite.
namespace hermes::ir {
namespace {

Function lower_for_ifconv(std::string_view source, const char* top) {
  auto program = fe::parse(source);
  EXPECT_TRUE(program.ok()) << program.status().to_string();
  EXPECT_TRUE(fe::typecheck(program.value()).ok());
  auto fn = lower(program.value(), top, {});
  EXPECT_TRUE(fn.ok()) << fn.status().to_string();
  return fn.take();
}

std::size_t reachable_blocks(const Function& fn) {
  std::vector<bool> seen(fn.num_blocks(), false);
  std::vector<BlockId> work = {fn.entry};
  seen[fn.entry] = true;
  std::size_t count = 0;
  while (!work.empty()) {
    const BlockId b = work.back();
    work.pop_back();
    ++count;
    const Instr& term = fn.block(b).terminator();
    for (BlockId t : {term.target0, term.target1}) {
      if (t != kNoBlock && !seen[t]) {
        seen[t] = true;
        work.push_back(t);
      }
    }
  }
  return count;
}

TEST(IfConvert, DiamondBecomesSelects) {
  const char* source = R"(
    int f(int a, int b) {
      int r;
      if (a > b) { r = a * 2; } else { r = b + 7; }
      return r;
    }
  )";
  Function fn = lower_for_ifconv(source, "f");
  const std::size_t blocks_before = reachable_blocks(fn);
  const std::size_t converted = if_convert(fn);
  simplify_cfg(fn);
  EXPECT_GE(converted, 1u);
  EXPECT_LT(reachable_blocks(fn), blocks_before);
  EXPECT_TRUE(fn.validate().ok());
  Interpreter interp(fn);
  EXPECT_EQ(interp.run(std::vector<std::uint64_t>{9, 4}).value().return_value, 18u);
  EXPECT_EQ(interp.run(std::vector<std::uint64_t>{4, 9}).value().return_value, 16u);
}

TEST(IfConvert, TriangleWithoutElse) {
  const char* source = R"(
    int f(int a) {
      int r = 5;
      if (a > 0) { r = a; }
      return r + 1;
    }
  )";
  Function fn = lower_for_ifconv(source, "f");
  const std::size_t converted = if_convert(fn);
  EXPECT_GE(converted, 1u);
  EXPECT_TRUE(fn.validate().ok());
  Interpreter interp(fn);
  EXPECT_EQ(interp.run(std::vector<std::uint64_t>{7}).value().return_value, 8u);
  const std::uint64_t neg = 0xFFFFFFFFull;  // -1 as i32
  EXPECT_EQ(interp.run(std::vector<std::uint64_t>{neg}).value().return_value, 6u);
}

TEST(IfConvert, StoresBlockConversion) {
  const char* source = R"(
    void f(int a, int out[4]) {
      if (a > 0) { out[0] = a; }
    }
  )";
  Function fn = lower_for_ifconv(source, "f");
  EXPECT_EQ(if_convert(fn), 0u)
      << "an arm containing a store must not be speculated";
}

TEST(IfConvert, LargeArmsLeftAlone) {
  std::string body;
  for (int i = 0; i < 30; ++i) {
    body += "r = r * 3 + " + std::to_string(i) + ";\n";
  }
  const std::string source =
      "int f(int a) { int r = 1; if (a > 0) { " + body + " } return r; }";
  Function fn = lower_for_ifconv(source, "f");
  EXPECT_EQ(if_convert(fn, 8), 0u);
  // Each source statement lowers to several IR instructions; a generous
  // bound admits the 30-statement arm.
  EXPECT_GE(if_convert(fn, 512), 1u);
}

TEST(IfConvert, ConditionOverwrittenByArm) {
  // The arm overwrites the variable holding the branch condition; the merge
  // selects must still use the original condition value.
  const char* source = R"(
    int f(int a) {
      bool c = a > 10;
      int r = 0;
      if (c) { c = false; r = 1; } else { r = 2; }
      return r + (c ? 10 : 20);
    }
  )";
  Function fn = lower_for_ifconv(source, "f");
  Function reference = lower_for_ifconv(source, "f");
  if_convert(fn);
  simplify_cfg(fn);
  ASSERT_TRUE(fn.validate().ok());
  Interpreter a(fn), b(reference);
  for (std::uint64_t x : {0ull, 5ull, 11ull, 100ull}) {
    EXPECT_EQ(a.run(std::vector<std::uint64_t>{x}).value().return_value,
              b.run(std::vector<std::uint64_t>{x}).value().return_value)
        << "x=" << x;
  }
}

TEST(IfConvert, PipelineDifferentialOnBranchyPrograms) {
  const char* sources[] = {
      "int f(int a, int b) { int r = a; if (a < b) { r = b - a; } else "
      "{ r = a - b; } if (r > 100) { r = 100; } return r; }",
      "int f(int a, int b) { int x = 0; for (int i = 0; i < 8; i = i + 1) "
      "{ if ((a >> i & 1) == 1) { x = x + (b << i); } } return x; }",
      "int f(int a, int b) { return (a > 0 ? a : -a) + (b > 0 ? b : -b); }",
  };
  Rng rng(99);
  for (const char* source : sources) {
    Function optimized = lower_for_ifconv(source, "f");
    Function reference = lower_for_ifconv(source, "f");
    run_pipeline(optimized);
    ASSERT_TRUE(optimized.validate().ok());
    Interpreter a(optimized), b(reference);
    for (int trial = 0; trial < 10; ++trial) {
      const std::uint64_t x = rng.next_u64() & 0xFFFF;
      const std::uint64_t y = rng.next_u64() & 0xFFFF;
      EXPECT_EQ(a.run(std::vector<std::uint64_t>{x, y}).value().return_value,
                b.run(std::vector<std::uint64_t>{x, y}).value().return_value)
          << source << " x=" << x << " y=" << y;
    }
  }
}

TEST(IfConvert, ReducesFsmStatesThroughHls) {
  // End-to-end: the same kernel with/without the middle-end shows fewer
  // FSM states thanks to the eliminated control blocks.
  const char* source = R"(
    int clamp3(int a) {
      int r = a;
      if (r > 100) { r = 100; }
      if (r < -100) { r = -100; }
      if (r == 0) { r = 1; }
      return r;
    }
  )";
  hls::FlowOptions with_opt, without_opt;
  with_opt.top = without_opt.top = "clamp3";
  without_opt.run_middle_end = false;
  auto a = hls::run_flow(source, with_opt);
  auto b = hls::run_flow(source, without_opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a.value().fsm_states, b.value().fsm_states);
  auto ra = hls::cosimulate(a.value(), {250}, {});
  auto rb = hls::cosimulate(b.value(), {250}, {});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra.value().match);
  EXPECT_EQ(ra.value().return_value, rb.value().return_value);
  EXPECT_LT(ra.value().hw_cycles, rb.value().hw_cycles);
}

}  // namespace
}  // namespace hermes::ir
