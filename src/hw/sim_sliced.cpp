#include "hw/sim_sliced.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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

/// One lane's value of a `width`-word slice group.
std::uint64_t extract_lane(const std::uint64_t* words, unsigned width,
                           unsigned lane) {
  std::uint64_t value = 0;
  for (unsigned b = 0; b < width; ++b) {
    value |= ((words[b] >> lane) & 1) << b;
  }
  return value;
}

/// Lane mask of a slice group's nonzero lanes (a per-lane enable).
std::uint64_t nonzero_lanes(const std::uint64_t* words, unsigned width) {
  std::uint64_t any = 0;
  for (unsigned b = 0; b < width; ++b) any |= words[b];
  return any;
}

/// True when every lane of a slice group holds lane 0's value, stored in
/// `*lane0` — the lane-uniform RAM address fast path.
bool lane_uniform(const std::uint64_t* words, unsigned width,
                  std::uint64_t* lane0) {
  std::uint64_t diverged = 0;
  *lane0 = 0;
  for (unsigned b = 0; b < width; ++b) {
    diverged |= words[b] ^ golden_of(words[b]);
    *lane0 |= (words[b] & 1) << b;
  }
  return diverged == 0;
}

}  // namespace

SlicedSimulator::SlicedSimulator(const Module& module) : module_(module) {
  auto net = compile_netlist(module);
  if (!net.ok()) {
    status_ = net.status();
    return;
  }
  net_ = net.take();
  worklist_ = EventWorklist(*net_);

  // Wire slice arena: wire_width words per wire.
  slice_off_.assign(module.wire_count() + 1, 0);
  for (std::size_t w = 0; w < module.wire_count(); ++w) {
    slice_off_[w + 1] =
        slice_off_[w] + module.wire_width(static_cast<WireId>(w));
  }
  slices_.assign(slice_off_.back(), 0);

  // Memory slice arena: depth * width words per memory.
  mem_off_.assign(module.memories().size() + 1, 0);
  for (std::size_t i = 0; i < module.memories().size(); ++i) {
    const Memory& mem = module.memories()[i];
    mem_off_[i + 1] = mem_off_[i] +
                      static_cast<std::uint32_t>(mem.depth * mem.width);
  }
  mem_slices_.assign(mem_off_.back(), 0);

  std::size_t scratch = 0;
  for (const RegOp& reg : net_->reg_ops) scratch += reg.q_width;
  for (const RamWriteOp& wr : net_->ram_write_ops) {
    scratch += wr.addr_width + wr.width + 1;
  }
  for (const RamReadOp& rd : net_->ram_read_ops) scratch += rd.addr_width + 1;
  seq_scratch_.assign(scratch, 0);
  reset();
}

void SlicedSimulator::reset() {
  cycles_ = 0;
  std::fill(slices_.begin(), slices_.end(), 0);
  for (const RegOp& reg : net_->reg_ops) {
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
  worklist_.clear();
  for (const CombOp& op : net_->comb_ops) {
    eval_op_sliced(op, slices_.data() + slice_off_[op.out]);
  }
  comb_dirty_ = false;
}

std::uint64_t SlicedSimulator::input_word(const CombOp& op,
                                          std::size_t index,
                                          unsigned b) const {
  const WireId wire = net_->op_inputs[op.first_input + index];
  const std::uint8_t width = net_->op_input_widths[op.first_input + index];
  return b < width ? slices_[slice_off_[wire] + b] : 0;
}

std::uint64_t SlicedSimulator::get_lane(WireId wire, unsigned lane) const {
  return extract_lane(slices_.data() + slice_off_[wire],
                      module().wire_width(wire), lane);
}

std::uint64_t SlicedSimulator::get_output_lane(std::string_view port_name,
                                               unsigned lane) const {
  const WireId wire = module().port_wire(port_name);
  if (wire == kNoWire) throw std::out_of_range("unknown output port");
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
  return extract_lane(mem_slices_.data() + mem_off_[mem] + addr * memory.width,
                      memory.width, lane);
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
  const std::uint8_t* widths = net_->op_input_widths.data() + op.first_input;
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
      const WireId wire = net_->op_inputs[op.first_input + i];
      lane_in[i] =
          extract_lane(slices_.data() + slice_off_[wire], widths[i], lane);
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
  const std::uint8_t* widths = net_->op_input_widths.data() + op.first_input;
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

void SlicedSimulator::eval_comb() {
  if (!comb_dirty_) return;
  comb_dirty_ = false;
  worklist_.drain([this](const CombOp& op) { return apply_op(op); });
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
  if (changed) {
    comb_dirty_ = true;
    worklist_.schedule_fanout(wire);
  }
}

void SlicedSimulator::corrupt_wire(WireId wire, unsigned bit,
                                   std::uint64_t lane_mask) {
  if (wire >= slice_off_.size() - 1 || lane_mask == 0) return;
  if (bit >= module().wire_width(wire)) return;
  slices_[slice_off_[wire] + bit] ^= lane_mask;
  comb_dirty_ = true;
  worklist_.schedule_flip(wire);
}

// ---------------------------------------------------------------------------
// Sequential step
// ---------------------------------------------------------------------------

void SlicedSimulator::step() {
  eval_comb();
  const CompiledNetlist& net = *net_;
  const auto wire_slices = [this](WireId wire) {
    return slices_.data() + slice_off_[wire];
  };
  const auto commit = [this](WireId wire, std::uint64_t* cur,
                             const std::uint64_t* next, unsigned width) {
    bool changed = false;
    for (unsigned b = 0; b < width; ++b) {
      changed |= cur[b] != next[b];
      cur[b] = next[b];
    }
    if (changed) {
      comb_dirty_ = true;
      worklist_.schedule_fanout(wire);
    }
  };

  // Phase 1 — sample every sequential input before any commit, mirroring the
  // scalar engine's scratch buffers (a register's q may feed another's d, or
  // be a RAM port's address, directly).
  std::uint64_t* sample = seq_scratch_.data();
  for (const RegOp& reg : net.reg_ops) {
    // Per-lane enable: lanes with en != 0 load d, the rest hold q.
    const std::uint64_t en = nonzero_lanes(wire_slices(reg.en), reg.en_width);
    const std::uint64_t* d = wire_slices(reg.d);
    const std::uint64_t* q = wire_slices(reg.q);
    for (unsigned b = 0; b < reg.q_width; ++b) {
      const std::uint64_t db = b < reg.d_width ? d[b] : 0;
      sample[b] = (en & db) | (~en & q[b]);
    }
    sample += reg.q_width;
  }
  for (const RamWriteOp& wr : net.ram_write_ops) {
    std::copy_n(wire_slices(wr.addr), wr.addr_width, sample);
    const std::uint64_t* data = wire_slices(wr.data);
    for (unsigned b = 0; b < wr.width; ++b) {
      sample[wr.addr_width + b] = b < wr.data_width ? data[b] : 0;
    }
    sample[wr.addr_width + wr.width] =
        nonzero_lanes(wire_slices(wr.en), wr.en_width);
    sample += wr.addr_width + wr.width + 1;
  }
  for (const RamReadOp& rd : net.ram_read_ops) {
    std::copy_n(wire_slices(rd.addr), rd.addr_width, sample);
    sample[rd.addr_width] = nonzero_lanes(wire_slices(rd.en), rd.en_width);
    sample += rd.addr_width + 1;
  }

  // Phase 2 — commit registers.
  sample = seq_scratch_.data();
  for (const RegOp& reg : net.reg_ops) {
    commit(reg.q, wire_slices(reg.q), sample, reg.q_width);
    sample += reg.q_width;
  }

  // Phase 3 — commit RAM writes (write-first: reads below see new data).
  for (const RamWriteOp& wr : net.ram_write_ops) {
    const std::uint64_t* addr_s = sample;
    const std::uint64_t* data = addr_s + wr.addr_width;
    const std::uint64_t en = data[wr.width];
    sample += wr.addr_width + wr.width + 1;
    if (en == 0) continue;
    const std::size_t depth = module_.memories()[wr.mem].depth;
    std::uint64_t* words = mem_slices_.data() + mem_off_[wr.mem];
    // Lane-uniform address: one masked merge updates the word for all
    // enabled lanes. Otherwise (post-fault divergence) scatter lane by lane.
    std::uint64_t addr = 0;
    if (lane_uniform(addr_s, wr.addr_width, &addr)) {
      if (addr < depth) {  // OOB writes are dropped
        std::uint64_t* word = words + addr * wr.width;
        for (unsigned b = 0; b < wr.width; ++b) {
          word[b] = (en & data[b]) | (~en & word[b]);
        }
      }
    } else {
      for (std::uint64_t lanes = en; lanes != 0; lanes &= lanes - 1) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctzll(lanes));
        addr = extract_lane(addr_s, wr.addr_width, lane);
        if (addr >= depth) continue;
        std::uint64_t* word = words + addr * wr.width;
        const std::uint64_t lane_bit = 1ULL << lane;
        for (unsigned b = 0; b < wr.width; ++b) {
          word[b] = (word[b] & ~lane_bit) | (((data[b] >> lane) & 1) << lane);
        }
      }
    }
  }

  // Phase 4 — RAM read ports sample the (post-write) array; disabled lanes
  // hold their data wire.
  std::uint64_t next[64];
  for (const RamReadOp& rd : net.ram_read_ops) {
    const std::uint64_t* addr_s = sample;
    const std::uint64_t en = addr_s[rd.addr_width];
    sample += rd.addr_width + 1;
    if (en == 0) continue;
    const Memory& memory = module_.memories()[rd.mem];
    const std::uint64_t* words = mem_slices_.data() + mem_off_[rd.mem];
    std::uint64_t* data = wire_slices(rd.data);
    std::copy_n(data, rd.data_width, next);
    std::uint64_t addr = 0;
    if (lane_uniform(addr_s, rd.addr_width, &addr)) {
      const bool in_range = addr < memory.depth;  // OOB reads 0
      for (unsigned b = 0; b < rd.data_width; ++b) {
        const std::uint64_t mem_b =
            (in_range && b < memory.width) ? words[addr * memory.width + b] : 0;
        next[b] = (en & mem_b) | (~en & data[b]);
      }
    } else {
      for (std::uint64_t lanes = en; lanes != 0; lanes &= lanes - 1) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctzll(lanes));
        addr = extract_lane(addr_s, rd.addr_width, lane);
        const std::uint64_t value =
            addr < memory.depth
                ? extract_lane(words + addr * memory.width, memory.width, lane)
                : 0;
        const std::uint64_t lane_bit = 1ULL << lane;
        for (unsigned b = 0; b < rd.data_width; ++b) {
          next[b] = (next[b] & ~lane_bit) | (((value >> b) & 1) << lane);
        }
      }
    }
    commit(rd.data, data, next, rd.data_width);
  }

  ++cycles_;
  eval_comb();
}

}  // namespace hermes::hw
