#include "hw/jit/mir.hpp"

#include <algorithm>
#include <cstddef>

#include "common/bits.hpp"

namespace hermes::hw::jit {

namespace {

/// Per-wire constant-folding table: value of every kConst-driven wire.
struct ConstTable {
  std::vector<std::uint8_t> is_const;
  std::vector<std::uint64_t> value;

  explicit ConstTable(const CompiledNetlist& net)
      : is_const(net.wire_count, 0), value(net.wire_count, 0) {
    for (std::size_t i = 0; i < net.comb_ops.size(); ++i) {
      const CombOp& op = net.comb_ops[i];
      if (op.kind != CellKind::kConst) continue;
      is_const[op.out] = 1;
      value[op.out] = op.param & op.out_mask;
    }
  }
};

/// True when `kind` cannot produce set bits above the output width given the
/// (already-truncated) operand widths — the truncation mask is then dead.
bool mask_needed(const CombOp& op, const std::uint8_t* widths) {
  if (op.out_width >= 64) return false;
  switch (op.kind) {
    case CellKind::kConst:
      return false;  // the immediate is masked at compile time
    case CellKind::kEq:
    case CellKind::kNe:
    case CellKind::kLtU:
    case CellKind::kLtS:
    case CellKind::kLeU:
    case CellKind::kLeS:
      return false;  // 0/1 always fits (out width >= 1)
    case CellKind::kAnd:
    case CellKind::kOr:
    case CellKind::kXor:
      return op.out_width < std::max(widths[0], widths[1]);
    case CellKind::kMux:
      return op.out_width < std::max(widths[1], widths[2]);
    case CellKind::kZext:
      return op.out_width < widths[0];
    case CellKind::kShrU:
      return op.out_width < widths[0];
    case CellKind::kRemU:
      // b == 0 yields a (< 2^w0); otherwise a % b < b < 2^w1.
      return op.out_width < std::max(widths[0], widths[1]);
    case CellKind::kSlice:
      return op.out_width + op.param < widths[0];
    case CellKind::kConcat: {
      unsigned total = 0;
      for (std::uint16_t i = 0; i < op.input_count; ++i) total += widths[i];
      return op.out_width != total;
    }
    default:
      return true;
  }
}

/// Lowers the ops named by `indices` (which must be in topological order) to
/// one straight-line block. Contiguous level ranges and the sparse
/// sequential-cone subset both go through here.
MirBlock lower_ops(const CompiledNetlist& net, const ConstTable& consts,
                   const std::vector<std::uint32_t>& indices) {
  MirBlock block;
  block.insts.reserve(indices.size());

  // Hot-wire selection: pin the most-read non-const wires of the block into
  // callee-saved registers. Deterministic tie-break on the wire id keeps the
  // digest -> code mapping stable.
  std::vector<std::uint32_t> reads(net.wire_count, 0);
  for (const std::uint32_t i : indices) {
    const CombOp& op = net.comb_ops[i];
    for (std::uint16_t k = 0; k < op.input_count; ++k) {
      const WireId wire = net.op_inputs[op.first_input + k];
      if (!consts.is_const[wire]) ++reads[wire];
    }
  }
  struct Candidate { WireId wire; std::uint32_t count; };
  std::vector<Candidate> hot;
  for (WireId wire = 0; wire < net.wire_count; ++wire) {
    if (reads[wire] >= 2) hot.push_back({wire, reads[wire]});
  }
  std::sort(hot.begin(), hot.end(), [](const Candidate& a, const Candidate& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.wire < b.wire;
  });
  std::vector<std::int8_t> pin_slot(net.wire_count, -1);
  for (std::size_t i = 0; i < hot.size() && i < kMaxPinned; ++i) {
    block.pinned[i] = hot[i].wire;
    pin_slot[hot[i].wire] = static_cast<std::int8_t>(i);
    ++block.pinned_count;
  }

  WireId prev_out = kNoWire;
  for (const std::uint32_t i : indices) {
    const CombOp& op = net.comb_ops[i];
    MirInst inst;
    inst.kind = op.kind;
    inst.out = op.out;
    inst.out_width = op.out_width;
    inst.out_mask = op.out_mask;
    inst.param = op.param;
    inst.out_reg_slot = pin_slot[op.out];
    const std::uint8_t* widths = net.op_input_widths.data() + op.first_input;
    inst.mask_result = mask_needed(op, widths);
    if (!inst.mask_result) ++block.elided_masks;

    const auto lower_operand = [&](std::uint16_t k) {
      MirOperand operand;
      const WireId wire = net.op_inputs[op.first_input + k];
      operand.width = widths[k];
      operand.wire = wire;
      if (consts.is_const[wire]) {
        operand.kind = MirOperandKind::kImm;
        operand.imm = consts.value[wire];
        ++block.folded_consts;
      } else if (wire == prev_out) {
        operand.kind = MirOperandKind::kAcc;
        ++block.fused_forwards;
      } else if (pin_slot[wire] >= 0) {
        operand.kind = MirOperandKind::kReg;
        operand.reg_slot = static_cast<std::uint8_t>(pin_slot[wire]);
      } else {
        operand.kind = MirOperandKind::kWire;
      }
      return operand;
    };

    if (op.kind == CellKind::kConcat) {
      inst.concat_first = static_cast<std::uint32_t>(block.concat_pool.size());
      inst.concat_count = op.input_count;
      for (std::uint16_t k = 0; k < op.input_count; ++k) {
        block.concat_pool.push_back(lower_operand(k));
      }
    } else {
      inst.input_count = static_cast<std::uint8_t>(op.input_count);
      for (std::uint16_t k = 0; k < op.input_count && k < 3; ++k) {
        inst.in[k] = lower_operand(k);
      }
    }

    block.insts.push_back(inst);
    prev_out = op.out;
  }
  return block;
}

MirBlock lower_block(const CompiledNetlist& net, const ConstTable& consts,
                     std::size_t begin, std::size_t end) {
  std::vector<std::uint32_t> indices(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    indices[i - begin] = static_cast<std::uint32_t>(i);
  }
  return lower_ops(net, consts, indices);
}

/// Op indices transitively reachable from the sequential output wires, in
/// (level-sorted) topological order. One forward pass suffices: every op's
/// inputs come from strictly earlier table positions or non-comb wires.
std::vector<std::uint32_t> sequential_cone(const CompiledNetlist& net) {
  std::vector<std::uint8_t> tainted(net.wire_count, 0);
  for (const WireId wire : net.seq_outputs) tainted[wire] = 1;
  std::vector<std::uint32_t> cone;
  for (std::size_t i = 0; i < net.comb_ops.size(); ++i) {
    const CombOp& op = net.comb_ops[i];
    bool in_cone = false;
    for (std::uint16_t k = 0; k < op.input_count; ++k) {
      if (tainted[net.op_inputs[op.first_input + k]]) { in_cone = true; break; }
    }
    if (in_cone) {
      cone.push_back(static_cast<std::uint32_t>(i));
      tainted[op.out] = 1;
    }
  }
  return cone;
}

}  // namespace

MirProgram lower(const CompiledNetlist& net) {
  MirProgram program;
  const ConstTable consts(net);
  program.full = lower_block(net, consts, 0, net.comb_ops.size());
  program.levels.reserve(net.level_count());
  for (std::size_t level = 0; level < net.level_count(); ++level) {
    program.levels.push_back(lower_block(net, consts, net.level_start[level],
                                         net.level_start[level + 1]));
  }
  const std::vector<std::uint32_t> cone = sequential_cone(net);
  program.seq_op_count = cone.size();
  program.seq = lower_ops(net, consts, cone);
  return program;
}

}  // namespace hermes::hw::jit
