#include "hw/sim_sliced.hpp"

#include <algorithm>
#include <cassert>

#include "common/bits.hpp"
#include "hw/sim_eval.hpp"

namespace hermes::hw {

namespace {

/// Broadcasts one bit across all 64 lanes: 1 -> all-ones, 0 -> all-zeros.
constexpr std::uint64_t spread(std::uint64_t bit) {
  return static_cast<std::uint64_t>(0) - (bit & 1);
}

/// Broadcast of lane 0's bit of a slice word — the golden reference word.
constexpr std::uint64_t golden_of(std::uint64_t word) { return spread(word); }

}  // namespace

// base_ only lends its op table and schedule; pinning the interpreter keeps
// it from taking a kernel-cache lookup and a JIT settle it never uses.
SlicedSimulator::SlicedSimulator(const Module& module)
    : base_(module, SimOptions{.backend = SimBackend::kEvent}) {
  if (!status().ok()) return;
  build_lanes();
  reset();
}

void SlicedSimulator::build_lanes() {
  const Module& m = module();

  // Wire slice arena: wire_width words per wire.
  slice_off_.assign(m.wire_count() + 1, 0);
  for (std::size_t w = 0; w < m.wire_count(); ++w) {
    slice_off_[w + 1] =
        slice_off_[w] + m.wire_width(static_cast<WireId>(w));
  }
  slices_.assign(slice_off_.back(), 0);

  // Memory slice arena: depth * width words per memory.
  mem_off_.assign(m.memories().size() + 1, 0);
  for (std::size_t i = 0; i < m.memories().size(); ++i) {
    const Memory& mem = m.memories()[i];
    mem_off_[i + 1] = mem_off_[i] +
                      static_cast<std::uint32_t>(mem.depth * mem.width);
  }
  mem_slices_.assign(mem_off_.back(), 0);

  // Sequential ops with cached widths and scratch offsets. Scratch layout:
  // regs sample q' (q_width words each); RAM reads sample addr + en_nz;
  // RAM writes sample addr + data (already truncated to mem width) + en_nz.
  std::uint32_t scratch = 0;
  regs_.reserve(base_.reg_ops_.size());
  for (const RegOp& op : base_.reg_ops_) {
    SlicedReg reg;
    reg.d = op.d;
    reg.en = op.en;
    reg.q = op.q;
    reg.d_width = static_cast<std::uint8_t>(m.wire_width(op.d));
    reg.en_width = static_cast<std::uint8_t>(m.wire_width(op.en));
    reg.q_width = static_cast<std::uint8_t>(op.q_width);
    reg.reset_value = truncate(op.reset_value, op.q_width);
    reg.scratch = scratch;
    scratch += reg.q_width;
    regs_.push_back(reg);
  }
  ram_reads_.reserve(base_.ram_read_ops_.size());
  for (const RamReadOp& op : base_.ram_read_ops_) {
    SlicedRamRead rd;
    rd.addr = op.addr;
    rd.en = op.en;
    rd.data = op.data;
    rd.mem = op.mem;
    rd.addr_width = static_cast<std::uint8_t>(m.wire_width(op.addr));
    rd.en_width = static_cast<std::uint8_t>(m.wire_width(op.en));
    rd.data_width = static_cast<std::uint8_t>(m.wire_width(op.data));
    rd.scratch = scratch;
    scratch += rd.addr_width + 1;
    ram_reads_.push_back(rd);
  }
  ram_writes_.reserve(base_.ram_write_ops_.size());
  for (const RamWriteOp& op : base_.ram_write_ops_) {
    SlicedRamWrite wr;
    wr.addr = op.addr;
    wr.data = op.data;
    wr.en = op.en;
    wr.mem = op.mem;
    wr.addr_width = static_cast<std::uint8_t>(m.wire_width(op.addr));
    wr.mem_width = static_cast<std::uint8_t>(op.width);
    wr.scratch = scratch;
    scratch += wr.addr_width + wr.mem_width + 1;
    ram_writes_.push_back(wr);
  }
  seq_scratch_.assign(scratch, 0);

  level_fill_.assign(base_.level_fill_.size(), 0);
  level_arena_.assign(base_.level_arena_.size(), 0);
  op_scheduled_.assign(base_.comb_ops_.size(), 0);
}

void SlicedSimulator::reset() {
  cycles_ = 0;
  std::fill(slices_.begin(), slices_.end(), 0);
  for (const SlicedReg& reg : regs_) {
    std::uint64_t* q = slices_.data() + slice_off_[reg.q];
    for (unsigned b = 0; b < reg.q_width; ++b) {
      q[b] = spread(reg.reset_value >> b);
    }
  }
  std::fill(mem_slices_.begin(), mem_slices_.end(), 0);
  const auto& memories = module().memories();
  for (std::size_t i = 0; i < memories.size(); ++i) {
    const Memory& mem = memories[i];
    std::uint64_t* words = mem_slices_.data() + mem_off_[i];
    for (std::size_t a = 0; a < mem.init.size() && a < mem.depth; ++a) {
      const std::uint64_t value = truncate(mem.init[a], mem.width);
      for (unsigned b = 0; b < mem.width; ++b) {
        words[a * mem.width + b] = spread(value >> b);
      }
    }
  }
  // Full settle from scratch, in topological order.
  std::fill(level_fill_.begin(), level_fill_.end(), 0);
  std::fill(op_scheduled_.begin(), op_scheduled_.end(), 0);
  for (const CombOp& op : base_.comb_ops_) {
    eval_op_sliced(op, slices_.data() + slice_off_[op.out]);
  }
  comb_dirty_ = false;
}

std::uint64_t SlicedSimulator::input_word(const CombOp& op,
                                          std::size_t index,
                                          unsigned b) const {
  const WireId wire = base_.op_inputs_[op.first_input + index];
  const std::uint8_t width = base_.op_input_widths_[op.first_input + index];
  return b < width ? slices_[slice_off_[wire] + b] : 0;
}

std::uint64_t SlicedSimulator::extract_lane_raw(const std::uint64_t* words,
                                                unsigned width,
                                                unsigned lane) const {
  std::uint64_t value = 0;
  for (unsigned b = 0; b < width; ++b) {
    value |= ((words[b] >> lane) & 1) << b;
  }
  return value;
}

std::uint64_t SlicedSimulator::get_lane(WireId wire, unsigned lane) const {
  return extract_lane_raw(slices_.data() + slice_off_[wire],
                          module().wire_width(wire), lane);
}

std::uint64_t SlicedSimulator::get_output_lane(std::string_view port_name,
                                               unsigned lane) const {
  const WireId wire = module().port_wire(port_name);
  assert(wire != kNoWire && "unknown output port");
  return get_lane(wire, lane);
}

std::uint64_t SlicedSimulator::lane_divergence(WireId wire) const {
  const std::uint64_t* s = slices_.data() + slice_off_[wire];
  const unsigned width = module().wire_width(wire);
  std::uint64_t diff = 0;
  for (unsigned b = 0; b < width; ++b) diff |= s[b] ^ golden_of(s[b]);
  return diff;
}

std::uint64_t SlicedSimulator::read_memory_lane(std::size_t mem,
                                                std::size_t addr,
                                                unsigned lane) const {
  const Memory& memory = module().memories().at(mem);
  if (addr >= memory.depth) return 0;
  return extract_lane_raw(
      mem_slices_.data() + mem_off_[mem] + addr * memory.width, memory.width,
      lane);
}

void SlicedSimulator::write_memory(std::size_t mem, std::size_t addr,
                                   std::uint64_t value) {
  const Memory& memory = module().memories().at(mem);
  if (addr >= memory.depth) return;
  const std::uint64_t truncated = truncate(value, memory.width);
  std::uint64_t* word = mem_slices_.data() + mem_off_[mem] + addr * memory.width;
  for (unsigned b = 0; b < memory.width; ++b) {
    word[b] = spread(truncated >> b);
  }
}

// ---------------------------------------------------------------------------
// Combinational evaluation
// ---------------------------------------------------------------------------

/// Lane-sparse fallback for cells without a word-parallel form (mul/div/rem,
/// lane-divergent shifts): evaluate lane 0 through the shared scalar cell
/// semantics, broadcast, then patch only the diverging lanes.
void SlicedSimulator::eval_op_fallback(const CombOp& op,
                                       std::uint64_t* out) const {
  const std::uint8_t* widths = base_.op_input_widths_.data() + op.first_input;
  const unsigned W = op.out_width;

  // Lanes whose inputs differ from lane 0.
  std::uint64_t diverged = 0;
  for (std::size_t i = 0; i < op.input_count; ++i) {
    const unsigned wi = widths[i];
    for (unsigned b = 0; b < wi; ++b) {
      const std::uint64_t w = input_word(op, i, b);
      diverged |= w ^ golden_of(w);
    }
  }

  std::uint64_t lane_in[4] = {0, 0, 0, 0};
  assert(op.input_count <= 4);
  const auto eval_lane = [&](unsigned lane) {
    for (std::size_t i = 0; i < op.input_count; ++i) {
      const WireId wire = base_.op_inputs_[op.first_input + i];
      lane_in[i] = extract_lane_raw(slices_.data() + slice_off_[wire],
                                    widths[i], lane);
    }
    return eval_comb_cell(
        op.kind, op.param, op.out_mask,
        [&](std::size_t i) { return lane_in[i]; }, widths, op.input_count);
  };

  const std::uint64_t golden = eval_lane(0);
  for (unsigned b = 0; b < W; ++b) out[b] = spread(golden >> b);
  while (diverged != 0) {
    const unsigned lane =
        static_cast<unsigned>(__builtin_ctzll(diverged));
    diverged &= diverged - 1;
    if (lane == 0) continue;
    const std::uint64_t value = eval_lane(lane);
    const std::uint64_t lane_bit = 1ULL << lane;
    for (unsigned b = 0; b < W; ++b) {
      out[b] = (out[b] & ~lane_bit) | (((value >> b) & 1) << lane);
    }
  }
}

void SlicedSimulator::eval_op_sliced(const CombOp& op,
                                     std::uint64_t* out) const {
  const std::uint8_t* widths = base_.op_input_widths_.data() + op.first_input;
  const unsigned W = op.out_width;
  const auto in = [&](std::size_t i, unsigned b) {
    return input_word(op, i, b);
  };

  switch (op.kind) {
    case CellKind::kConst:
      for (unsigned b = 0; b < W; ++b) out[b] = spread(op.param >> b);
      break;

    case CellKind::kAnd:
      for (unsigned b = 0; b < W; ++b) out[b] = in(0, b) & in(1, b);
      break;
    case CellKind::kOr:
      for (unsigned b = 0; b < W; ++b) out[b] = in(0, b) | in(1, b);
      break;
    case CellKind::kXor:
      for (unsigned b = 0; b < W; ++b) out[b] = in(0, b) ^ in(1, b);
      break;
    case CellKind::kNot:
      // Bits at and above the input width read ~0 (the scalar engine
      // computes ~value and masks to the output width).
      for (unsigned b = 0; b < W; ++b) out[b] = ~in(0, b);
      break;

    case CellKind::kAdd: {
      std::uint64_t carry = 0;
      for (unsigned b = 0; b < W; ++b) {
        const std::uint64_t a = in(0, b), c = in(1, b);
        out[b] = a ^ c ^ carry;
        carry = (a & c) | (carry & (a ^ c));
      }
      break;
    }
    case CellKind::kSub: {
      // a - b == a + ~b + 1: seed the carry chain with all-ones.
      std::uint64_t carry = ~0ULL;
      for (unsigned b = 0; b < W; ++b) {
        const std::uint64_t a = in(0, b), c = ~in(1, b);
        out[b] = a ^ c ^ carry;
        carry = (a & c) | (carry & (a ^ c));
      }
      break;
    }

    case CellKind::kEq:
    case CellKind::kNe: {
      const unsigned wm = std::max(widths[0], widths[1]);
      std::uint64_t eq = ~0ULL;
      for (unsigned b = 0; b < wm; ++b) eq &= ~(in(0, b) ^ in(1, b));
      out[0] = op.kind == CellKind::kEq ? eq : ~eq;
      for (unsigned b = 1; b < W; ++b) out[b] = 0;
      break;
    }
    case CellKind::kLtU:
    case CellKind::kLeU: {
      // MSB-down comparator: a < b once the first differing bit favors b.
      const unsigned wm = std::max(widths[0], widths[1]);
      std::uint64_t eq = ~0ULL, lt = 0;
      for (unsigned b = wm; b-- > 0;) {
        const std::uint64_t a = in(0, b), c = in(1, b);
        lt |= eq & ~a & c;
        eq &= ~(a ^ c);
      }
      out[0] = op.kind == CellKind::kLtU ? lt : (lt | eq);
      for (unsigned b = 1; b < W; ++b) out[b] = 0;
      break;
    }
    case CellKind::kLtS:
    case CellKind::kLeS: {
      // Sign-extend both to the common width, then compare unsigned with the
      // sign bits inverted (bias trick).
      const unsigned wm = std::max(widths[0], widths[1]);
      const auto sext_in = [&](std::size_t i, unsigned b) {
        return b < widths[i] ? in(i, b) : in(i, widths[i] - 1);
      };
      std::uint64_t eq = ~0ULL, lt = 0;
      for (unsigned b = wm; b-- > 0;) {
        std::uint64_t a = sext_in(0, b), c = sext_in(1, b);
        if (b == wm - 1) {
          a = ~a;
          c = ~c;
        }
        lt |= eq & ~a & c;
        eq &= ~(a ^ c);
      }
      out[0] = op.kind == CellKind::kLtS ? lt : (lt | eq);
      for (unsigned b = 1; b < W; ++b) out[b] = 0;
      break;
    }

    case CellKind::kMux: {
      // Scalar semantics: in(0) ? in(2) : in(1), with a nonzero test on the
      // full select value.
      std::uint64_t nz = 0;
      for (unsigned b = 0; b < widths[0]; ++b) nz |= in(0, b);
      for (unsigned b = 0; b < W; ++b) {
        out[b] = (nz & in(2, b)) | (~nz & in(1, b));
      }
      break;
    }

    case CellKind::kZext:
      for (unsigned b = 0; b < W; ++b) out[b] = in(0, b);
      break;
    case CellKind::kSext: {
      const unsigned w0 = widths[0];
      for (unsigned b = 0; b < W; ++b) {
        out[b] = b < w0 ? in(0, b) : in(0, w0 - 1);
      }
      break;
    }
    case CellKind::kSlice: {
      const unsigned lsb = static_cast<unsigned>(op.param);
      for (unsigned b = 0; b < W; ++b) {
        out[b] = b + lsb < widths[0] ? in(0, b + lsb) : 0;
      }
      break;
    }
    case CellKind::kConcat: {
      unsigned pos = 0;
      for (std::size_t i = 0; i < op.input_count && pos < W; ++i) {
        for (unsigned b = 0; b < widths[i] && pos < W; ++b) {
          out[pos++] = in(i, b);
        }
      }
      while (pos < W) out[pos++] = 0;
      break;
    }

    case CellKind::kShl:
    case CellKind::kShrU:
    case CellKind::kShrS: {
      // Word-parallel only when the shift amount agrees across lanes (the
      // common case: constant shift operands).
      std::uint64_t uniform = 0, amount = 0;
      for (unsigned b = 0; b < widths[1]; ++b) {
        const std::uint64_t w = in(1, b);
        uniform |= w ^ golden_of(w);
        amount |= (w & 1) << b;
      }
      if (uniform != 0) {
        eval_op_fallback(op, out);
        break;
      }
      const unsigned w0 = widths[0];
      if (op.kind == CellKind::kShl) {
        for (unsigned b = 0; b < W; ++b) {
          out[b] = (amount < 64 && b >= amount && b - amount < w0)
                       ? in(0, static_cast<unsigned>(b - amount))
                       : 0;
        }
      } else if (op.kind == CellKind::kShrU) {
        for (unsigned b = 0; b < W; ++b) {
          out[b] = (amount < 64 && b + amount < w0)
                       ? in(0, static_cast<unsigned>(b + amount))
                       : 0;
        }
      } else {  // kShrS: arithmetic shift of the sign-extended value
        const std::uint64_t shift = amount >= 63 ? 63 : amount;
        for (unsigned b = 0; b < W; ++b) {
          const std::uint64_t src = b + shift;
          out[b] = src < w0 ? in(0, static_cast<unsigned>(src))
                            : in(0, w0 - 1);
        }
      }
      break;
    }

    case CellKind::kMul:
    case CellKind::kDivU:
    case CellKind::kDivS:
    case CellKind::kRemU:
    case CellKind::kRemS:
      eval_op_fallback(op, out);
      break;

    case CellKind::kRegister:
    case CellKind::kRamRead:
    case CellKind::kRamWrite:
      assert(false && "sequential cell in comb op table");
      break;
  }
}

bool SlicedSimulator::apply_op(const CombOp& op) {
  std::uint64_t buf[64];
  eval_op_sliced(op, buf);
  std::uint64_t* cur = slices_.data() + slice_off_[op.out];
  bool changed = false;
  for (unsigned b = 0; b < op.out_width; ++b) {
    if (cur[b] != buf[b]) {
      cur[b] = buf[b];
      changed = true;
    }
  }
  return changed;
}

void SlicedSimulator::schedule_op(std::uint32_t op_index) {
  if (op_scheduled_[op_index]) return;
  op_scheduled_[op_index] = 1;
  const std::uint32_t level = base_.comb_ops_[op_index].level;
  level_arena_[base_.level_start_[level] + level_fill_[level]++] = op_index;
}

void SlicedSimulator::schedule_fanout(WireId wire) {
  const std::uint32_t begin = base_.fanout_offsets_[wire];
  const std::uint32_t end = base_.fanout_offsets_[wire + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    schedule_op(base_.fanout_ops_[i]);
  }
}

void SlicedSimulator::mark_wire_changed(WireId wire) {
  comb_dirty_ = true;
  schedule_fanout(wire);
}

void SlicedSimulator::eval_comb() {
  if (!comb_dirty_) return;
  comb_dirty_ = false;
  for (std::size_t level = 0; level < level_fill_.size(); ++level) {
    const std::uint32_t base = base_.level_start_[level];
    for (std::uint32_t i = 0; i < level_fill_[level]; ++i) {
      const std::uint32_t index = level_arena_[base + i];
      op_scheduled_[index] = 0;
      const CombOp& op = base_.comb_ops_[index];
      if (apply_op(op)) schedule_fanout(op.out);
    }
    level_fill_[level] = 0;
  }
}

void SlicedSimulator::set_input(std::string_view port_name,
                                std::uint64_t value) {
  const WireId wire = module().port_wire(port_name);
  assert(wire != kNoWire && "unknown input port");
  const unsigned width = module().wire_width(wire);
  const std::uint64_t truncated = truncate(value, width);
  std::uint64_t* s = slices_.data() + slice_off_[wire];
  bool changed = false;
  for (unsigned b = 0; b < width; ++b) {
    const std::uint64_t word = spread(truncated >> b);
    if (s[b] != word) {
      s[b] = word;
      changed = true;
    }
  }
  if (changed) mark_wire_changed(wire);
}

void SlicedSimulator::corrupt_wire(WireId wire, unsigned bit,
                                   std::uint64_t lane_mask) {
  if (wire >= slice_off_.size() - 1 || lane_mask == 0) return;
  if (bit >= module().wire_width(wire)) return;
  slices_[slice_off_[wire] + bit] ^= lane_mask;
  comb_dirty_ = true;
  // Mirror Simulator::corrupt_wire: a comb-driven wire is recomputed at the
  // next settle (erasing the flip); dependents see the settled value.
  if (base_.comb_driver_[wire] != kNoCombOp) {
    schedule_op(base_.comb_driver_[wire]);
  }
  schedule_fanout(wire);
}

// ---------------------------------------------------------------------------
// Sequential step
// ---------------------------------------------------------------------------

void SlicedSimulator::step() {
  eval_comb();

  // Phase 1 — sample every sequential input before any commit, mirroring the
  // scalar engine's scratch buffers (a register's q may feed another's d, or
  // be a RAM port's address, directly).
  for (const SlicedReg& reg : regs_) {
    // Per-lane enable: lanes with en != 0 load d, the rest hold q.
    std::uint64_t en = 0;
    const std::uint64_t* en_s = slices_.data() + slice_off_[reg.en];
    for (unsigned b = 0; b < reg.en_width; ++b) en |= en_s[b];
    const std::uint64_t* d = slices_.data() + slice_off_[reg.d];
    const std::uint64_t* q = slices_.data() + slice_off_[reg.q];
    std::uint64_t* sample = seq_scratch_.data() + reg.scratch;
    for (unsigned b = 0; b < reg.q_width; ++b) {
      const std::uint64_t db = b < reg.d_width ? d[b] : 0;
      sample[b] = (en & db) | (~en & q[b]);
    }
  }
  for (const SlicedRamWrite& wr : ram_writes_) {
    std::uint64_t* sample = seq_scratch_.data() + wr.scratch;
    const std::uint64_t* addr = slices_.data() + slice_off_[wr.addr];
    for (unsigned b = 0; b < wr.addr_width; ++b) sample[b] = addr[b];
    const std::uint64_t* data = slices_.data() + slice_off_[wr.data];
    const unsigned data_width = module().wire_width(wr.data);
    for (unsigned b = 0; b < wr.mem_width; ++b) {
      sample[wr.addr_width + b] = b < data_width ? data[b] : 0;
    }
    std::uint64_t en = 0;
    const std::uint64_t* en_s = slices_.data() + slice_off_[wr.en];
    for (unsigned b = 0; b < module().wire_width(wr.en); ++b) en |= en_s[b];
    sample[wr.addr_width + wr.mem_width] = en;
  }
  for (const SlicedRamRead& rd : ram_reads_) {
    std::uint64_t* sample = seq_scratch_.data() + rd.scratch;
    const std::uint64_t* addr = slices_.data() + slice_off_[rd.addr];
    for (unsigned b = 0; b < rd.addr_width; ++b) sample[b] = addr[b];
    std::uint64_t en = 0;
    const std::uint64_t* en_s = slices_.data() + slice_off_[rd.en];
    for (unsigned b = 0; b < rd.en_width; ++b) en |= en_s[b];
    sample[rd.addr_width] = en;
  }

  // Phase 2 — commit registers.
  for (const SlicedReg& reg : regs_) {
    const std::uint64_t* sample = seq_scratch_.data() + reg.scratch;
    std::uint64_t* q = slices_.data() + slice_off_[reg.q];
    bool changed = false;
    for (unsigned b = 0; b < reg.q_width; ++b) {
      if (q[b] != sample[b]) {
        q[b] = sample[b];
        changed = true;
      }
    }
    if (changed) mark_wire_changed(reg.q);
  }

  // Phase 3 — commit RAM writes (write-first: reads below see new data).
  for (const SlicedRamWrite& wr : ram_writes_) {
    const std::uint64_t* sample = seq_scratch_.data() + wr.scratch;
    const std::uint64_t en = sample[wr.addr_width + wr.mem_width];
    if (en == 0) continue;
    const Memory& memory = module().memories()[wr.mem];
    const std::uint64_t* data = sample + wr.addr_width;

    // Lane-uniform address (every slice word all-zeros or all-ones): one
    // masked merge updates the word for all enabled lanes.
    std::uint64_t nonuniform = 0, addr0 = 0;
    for (unsigned b = 0; b < wr.addr_width; ++b) {
      nonuniform |= sample[b] ^ golden_of(sample[b]);
      addr0 |= (sample[b] & 1) << b;
    }
    if (nonuniform == 0) {
      if (addr0 >= memory.depth) continue;  // OOB writes are dropped
      std::uint64_t* word =
          mem_slices_.data() + mem_off_[wr.mem] + addr0 * memory.width;
      for (unsigned b = 0; b < wr.mem_width; ++b) {
        word[b] = (en & data[b]) | (~en & word[b]);
      }
    } else {
      // Post-fault divergence: scatter lane by lane.
      std::uint64_t lanes = en;
      while (lanes != 0) {
        const unsigned lane =
            static_cast<unsigned>(__builtin_ctzll(lanes));
        lanes &= lanes - 1;
        const std::uint64_t addr =
            extract_lane_raw(sample, wr.addr_width, lane);
        if (addr >= memory.depth) continue;
        std::uint64_t* word =
            mem_slices_.data() + mem_off_[wr.mem] + addr * memory.width;
        const std::uint64_t lane_bit = 1ULL << lane;
        for (unsigned b = 0; b < wr.mem_width; ++b) {
          word[b] = (word[b] & ~lane_bit) | (((data[b] >> lane) & 1) << lane);
        }
      }
    }
  }

  // Phase 4 — RAM read ports sample the (post-write) array.
  for (const SlicedRamRead& rd : ram_reads_) {
    const std::uint64_t* sample = seq_scratch_.data() + rd.scratch;
    const std::uint64_t en = sample[rd.addr_width];
    if (en == 0) continue;  // disabled lanes hold their data wire
    const Memory& memory = module().memories()[rd.mem];
    std::uint64_t* data = slices_.data() + slice_off_[rd.data];

    std::uint64_t nonuniform = 0, addr0 = 0;
    for (unsigned b = 0; b < rd.addr_width; ++b) {
      nonuniform |= sample[b] ^ golden_of(sample[b]);
      addr0 |= (sample[b] & 1) << b;
    }
    bool changed = false;
    if (nonuniform == 0) {
      const bool in_range = addr0 < memory.depth;
      const std::uint64_t* word =
          in_range
              ? mem_slices_.data() + mem_off_[rd.mem] + addr0 * memory.width
              : nullptr;
      for (unsigned b = 0; b < rd.data_width; ++b) {
        const std::uint64_t mem_b =
            (in_range && b < memory.width) ? word[b] : 0;  // OOB reads 0
        const std::uint64_t merged = (en & mem_b) | (~en & data[b]);
        if (data[b] != merged) {
          data[b] = merged;
          changed = true;
        }
      }
    } else {
      std::uint64_t lanes = en;
      while (lanes != 0) {
        const unsigned lane =
            static_cast<unsigned>(__builtin_ctzll(lanes));
        lanes &= lanes - 1;
        const std::uint64_t addr =
            extract_lane_raw(sample, rd.addr_width, lane);
        const std::uint64_t value =
            addr < memory.depth
                ? extract_lane_raw(mem_slices_.data() + mem_off_[rd.mem] +
                                       addr * memory.width,
                                   memory.width, lane)
                : 0;
        const std::uint64_t lane_bit = 1ULL << lane;
        for (unsigned b = 0; b < rd.data_width; ++b) {
          const std::uint64_t merged =
              (data[b] & ~lane_bit) | (((value >> b) & 1) << lane);
          if (data[b] != merged) {
            data[b] = merged;
            changed = true;
          }
        }
      }
    }
    if (changed) mark_wire_changed(rd.data);
  }

  ++cycles_;
  eval_comb();
}

}  // namespace hermes::hw
