// Machine-IR for the netlist JIT.
//
// The lowering pass turns one block of a CompiledNetlist's op table (a
// topological level, or the whole table for the full-sweep kernel) into a straight-line list of
// MirInsts the x86-64 emitter translates 1:1. Lowering performs the three
// optimizations the emitter relies on:
//
//  * constant folding — an input driven by a kConst cell becomes a kImm
//    operand (pre-sign-extended where the consumer is signed), so the emitted
//    code never loads constants from the value array;
//  * accumulator forwarding — an input equal to the previous instruction's
//    output is tagged kAcc and read from the accumulator register instead of
//    being reloaded. The store to values_[] is NEVER elided: differential
//    tests (and VCD dumping) compare every wire, so fusion is register
//    forwarding, not store elision;
//  * hot-wire pinning — up to kMaxPinned wires with the highest in-block read
//    counts are kept in callee-saved registers for the block's duration, and
//  * mask elision — the truncation mask is skipped when the operator cannot
//    produce bits above the output width.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/sim.hpp"

namespace hermes::hw::jit {

/// Where an instruction operand comes from.
enum class MirOperandKind : std::uint8_t {
  kWire,  ///< load values[wire]
  kImm,   ///< compile-time constant (already truncated / sign-extended)
  kAcc,   ///< previous instruction's result, still in the accumulator
  kReg,   ///< pinned hot wire, in callee-saved register `slot`
};

struct MirOperand {
  MirOperandKind kind = MirOperandKind::kWire;
  std::uint8_t width = 0;     ///< source wire width (for sign extension)
  std::uint8_t reg_slot = 0;  ///< pinned slot when kind == kReg
  WireId wire = kNoWire;
  std::uint64_t imm = 0;
};

/// Maximum wires pinned in callee-saved registers per block (R12..R14).
inline constexpr std::size_t kMaxPinned = 3;

struct MirInst {
  CellKind kind = CellKind::kConst;
  std::uint8_t input_count = 0;    ///< direct operands in `in` (<= 3)
  std::uint8_t out_width = 0;
  std::int8_t out_reg_slot = -1;   ///< pinned slot also holding `out`, or -1
  bool mask_result = true;         ///< emit the truncation mask?
  MirOperand in[3];
  std::uint32_t concat_first = 0;  ///< kConcat: operand range in concat_pool
  std::uint32_t concat_count = 0;
  WireId out = kNoWire;
  std::uint64_t out_mask = 0;
  std::uint64_t param = 0;
};

/// One straight-line block: the unit the emitter turns into a function.
struct MirBlock {
  std::vector<MirInst> insts;
  std::vector<MirOperand> concat_pool;   ///< kConcat operand storage
  WireId pinned[kMaxPinned] = {kNoWire, kNoWire, kNoWire};
  std::size_t pinned_count = 0;
  // Lowering statistics, aggregated into JitKernelStats.
  std::size_t folded_consts = 0;
  std::size_t fused_forwards = 0;
  std::size_t elided_masks = 0;
};

/// The lowered program: one block per topological level, one fused block
/// covering the whole table (the full-sweep / reset kernel), and one block
/// for the sequential cone — the ops transitively fed by register / RAM-read
/// outputs, in topological order. After a clock edge where only sequential
/// outputs changed, evaluating the cone settles the netlist without touching
/// the (typically much larger) input-fed logic.
struct MirProgram {
  MirBlock full;
  std::vector<MirBlock> levels;
  MirBlock seq;
  std::size_t seq_op_count = 0;  ///< ops in the sequential cone
};

/// Lowers a compiled netlist. The result owns all of its storage.
MirProgram lower(const CompiledNetlist& net);

}  // namespace hermes::hw::jit
