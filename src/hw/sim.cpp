#include "hw/sim.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/bits.hpp"
#include "common/strings.hpp"
#include "hw/jit/cache.hpp"
#include "hw/jit/kernel.hpp"
#include "hw/sim_eval.hpp"

namespace hermes::hw {

const char* to_string(SimBackend backend) {
  switch (backend) {
    case SimBackend::kEvent: return "event";
    case SimBackend::kSweep: return "sweep";
    case SimBackend::kJit: return "jit";
  }
  return "?";
}

Result<std::shared_ptr<const CompiledNetlist>> compile_netlist(
    const Module& module) {
  if (Status status = module.validate(); !status.ok()) return status;
  auto net = std::make_shared<CompiledNetlist>();
  const auto& cells = module.cells();
  const std::size_t wire_count = module.wire_count();
  const auto width_of = [&module](WireId wire) {
    return static_cast<std::uint8_t>(module.wire_width(wire));
  };
  constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);
  net->wire_count = wire_count;

  std::vector<std::size_t> driver_of(wire_count, kNoCell);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (WireId wire : cells[i].outputs) driver_of[wire] = i;
  }

  // Topological sort of combinational cells, computing levels on the way.
  // A comb cell is ready once all of its inputs are either sequential
  // outputs, port inputs, const outputs, or outputs of already-scheduled
  // comb cells; its level is 1 + max level over its comb drivers.
  std::vector<unsigned> pending(cells.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(cells.size());
  std::vector<std::uint32_t> cell_level(cells.size(), 0);
  std::queue<std::size_t> ready;
  std::size_t comb_count = 0;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (is_sequential(cell.kind)) {
      const auto& in = cell.inputs;
      const WireId out = cell.outputs.empty() ? kNoWire : cell.outputs[0];
      const auto mem = static_cast<std::uint32_t>(cell.param);
      switch (cell.kind) {
        case CellKind::kRegister:
          net->reg_ops.push_back(
              {in[0], in[1], out, width_of(in[0]), width_of(in[1]),
               width_of(out), truncate(cell.param, module.wire_width(out))});
          net->seq_outputs.push_back(out);
          break;
        case CellKind::kRamRead:
          net->ram_read_ops.push_back({in[0], in[1], out, mem, width_of(in[0]),
                                       width_of(in[1]), width_of(out)});
          net->seq_outputs.push_back(out);
          break;
        case CellKind::kRamWrite:
          net->ram_write_ops.push_back(
              {in[0], in[1], in[2], mem, width_of(in[0]), width_of(in[1]),
               width_of(in[2]),
               static_cast<std::uint8_t>(module.memories()[mem].width)});
          break;
        default:
          break;
      }
      continue;
    }
    ++comb_count;
    unsigned deps = 0;
    for (WireId wire : cell.inputs) {
      const std::size_t driver = driver_of[wire];
      if (driver == kNoCell) continue;  // port input / undriven
      if (is_sequential(cells[driver].kind)) continue;
      ++deps;
      dependents[driver].push_back(i);
    }
    pending[i] = deps;
    if (deps == 0) ready.push(i);
  }

  std::vector<std::size_t> comb_topo;
  comb_topo.reserve(comb_count);
  while (!ready.empty()) {
    const std::size_t index = ready.front();
    ready.pop();
    comb_topo.push_back(index);
    for (std::size_t dep : dependents[index]) {
      cell_level[dep] = std::max(cell_level[dep], cell_level[index] + 1);
      if (--pending[dep] == 0) ready.push(dep);
    }
  }
  if (comb_topo.size() != comb_count) {
    return Status::Error(ErrorCode::kInternal,
                         format("combinational loop in module %s",
                                module.name().c_str()));
  }

  // Group ops of a level contiguously. A cell's inputs come from strictly
  // lower levels, so a stable sort by level is still a topological order —
  // and it lets the level CSR double as op index ranges, which both the
  // dense fast path and the JIT's per-level straight-line code rely on.
  std::stable_sort(comb_topo.begin(), comb_topo.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cell_level[a] < cell_level[b];
                   });

  // Flatten into the SoA op table, in level-sorted topological order.
  auto& ops = net->comb_ops;
  ops.reserve(comb_count);
  for (std::size_t cell_index : comb_topo) {
    const Cell& cell = cells[cell_index];
    CombOp op;
    op.kind = cell.kind;
    op.level = cell_level[cell_index];
    op.first_input = static_cast<std::uint32_t>(net->op_inputs.size());
    op.input_count = static_cast<std::uint16_t>(cell.inputs.size());
    for (WireId wire : cell.inputs) {
      net->op_inputs.push_back(wire);
      net->op_input_widths.push_back(width_of(wire));
    }
    op.out = cell.outputs[0];
    op.out_width = width_of(op.out);
    op.out_mask = bit_mask(op.out_width);
    op.param = cell.param;
    ops.push_back(op);
  }
  // Level CSR. Levels are dense (an op at level l > 0 has a driver at l - 1),
  // so the last op's level is the highest.
  const std::size_t levels = ops.empty() ? 0 : ops.back().level + 1;
  net->level_start.assign(levels + 1, 0);
  for (const CombOp& op : ops) ++net->level_start[op.level + 1];
  for (std::size_t l = 0; l < levels; ++l) {
    net->level_start[l + 1] += net->level_start[l];
  }

  net->comb_driver.assign(wire_count, kNoCombOp);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    net->comb_driver[ops[i].out] = static_cast<std::uint32_t>(i);
  }

  // Per-wire fanout lists (CSR), deduplicated per op so a cell consuming the
  // same wire twice appears once, and the lowest consumer level per wire —
  // the JIT backend's dirty-level tracker.
  const auto for_each_unique_input = [&](const CombOp& op, auto&& fn) {
    const WireId* in = net->op_inputs.data() + op.first_input;
    for (std::uint16_t i = 0; i < op.input_count; ++i) {
      bool seen = false;
      for (std::uint16_t j = 0; j < i; ++j) {
        if (in[j] == in[i]) { seen = true; break; }
      }
      if (!seen) fn(in[i]);
    }
  };
  auto& offsets = net->fanout_offsets;
  offsets.assign(wire_count + 1, 0);
  net->wire_min_level.assign(wire_count, static_cast<std::uint32_t>(levels));
  for (const CombOp& op : ops) {
    for_each_unique_input(op, [&](WireId wire) {
      ++offsets[wire + 1];
      net->wire_min_level[wire] = std::min(net->wire_min_level[wire], op.level);
    });
  }
  for (std::size_t w = 0; w < wire_count; ++w) offsets[w + 1] += offsets[w];
  net->fanout_ops.resize(offsets[wire_count]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for_each_unique_input(ops[i], [&](WireId wire) {
      net->fanout_ops[cursor[wire]++] = static_cast<std::uint32_t>(i);
    });
  }
  return std::shared_ptr<const CompiledNetlist>(std::move(net));
}

std::vector<WireId> CompiledNetlist::register_outputs() const {
  std::vector<WireId> outputs;
  outputs.reserve(reg_ops.size());
  for (const RegOp& op : reg_ops) outputs.push_back(op.q);
  return outputs;
}

Simulator::Simulator(const Module& module, SimOptions options)
    : module_(module), options_(options) {
  auto net = compile_netlist(module);
  if (!net.ok()) {
    status_ = net.status();
    return;
  }
  net_ = net.take();
  values_.assign(module.wire_count(), 0);

  active_backend_ = options_.backend;
  if (options_.backend == SimBackend::kJit) {
    // Content-addressed process-wide cache: identical netlists share one
    // compiled kernel. A null kernel (non-x86-64, W^X denied,
    // HERMES_DISABLE_JIT) degrades silently to the interpreter.
    jit_kernel_ =
        jit::KernelCache::global().get_or_compile(module_.digest(), *net_);
    if (jit_kernel_ == nullptr) active_backend_ = SimBackend::kEvent;
  }
  if (active_backend_ == SimBackend::kEvent) worklist_ = EventWorklist(*net_);
  reset();
}

void Simulator::reset() {
  cycles_ = 0;
  std::fill(values_.begin(), values_.end(), 0);
  for (const RegOp& op : net_->reg_ops) values_[op.q] = op.reset_value;
  mem_state_.clear();
  for (const Memory& memory : module_.memories()) {
    std::vector<std::uint64_t> contents(memory.depth, 0);
    for (std::size_t i = 0; i < memory.init.size() && i < memory.depth; ++i) {
      contents[i] = truncate(memory.init[i], memory.width);
    }
    mem_state_.push_back(std::move(contents));
  }
  // Full settle from scratch; every engine starts from a fully clean state.
  worklist_.clear();
  if (active_backend_ == SimBackend::kJit) {
    jit_kernel_->run_all(values_.data());
  } else {
    for (const CombOp& op : net_->comb_ops) values_[op.out] = eval_op(op);
  }
  jit_dirty_level_ = static_cast<std::uint32_t>(net_->level_count());
  jit_dirty_seq_only_ = true;
  comb_dirty_ = false;
}

void Simulator::mark_wire_changed(WireId wire, bool sequential) {
  comb_dirty_ = true;
  switch (active_backend_) {
    case SimBackend::kSweep:
      break;
    case SimBackend::kJit:
      jit_dirty_level_ =
          std::min(jit_dirty_level_, net_->wire_min_level[wire]);
      if (!sequential) jit_dirty_seq_only_ = false;
      break;
    case SimBackend::kEvent:
      worklist_.schedule_fanout(wire);
      break;
  }
}

void Simulator::set_input(std::string_view port_name, std::uint64_t value) {
  const WireId wire = module_.port_wire(port_name);
  assert(wire != kNoWire && "unknown input port");
  set_input(wire, value);
}

void Simulator::set_input(WireId wire, std::uint64_t value) {
  const std::uint64_t truncated = truncate(value, module_.wire_width(wire));
  if (values_[wire] == truncated) return;
  values_[wire] = truncated;
  mark_wire_changed(wire);
}

std::uint64_t Simulator::get_output(std::string_view port_name) const {
  return get(module_.port_wire(port_name));
}

std::uint64_t Simulator::eval_op(const CombOp& op) const {
  const WireId* inputs = net_->op_inputs.data() + op.first_input;
  const std::uint8_t* widths = net_->op_input_widths.data() + op.first_input;
  return eval_comb_cell(
      op.kind, op.param, op.out_mask,
      [&](std::size_t index) { return values_[inputs[index]]; }, widths,
      op.input_count);
}

void Simulator::eval_comb() {
  if (!comb_dirty_) return;
  comb_dirty_ = false;

  if (active_backend_ == SimBackend::kSweep) {
    for (const CombOp& op : net_->comb_ops) values_[op.out] = eval_op(op);
    return;
  }

  if (active_backend_ == SimBackend::kJit) {
    // When every change since the last settle came from the clock edge
    // (register commits / RAM samples), only their transitive fanout can be
    // stale — run the compiled sequential-cone function. Otherwise fall back
    // to straight-line code for every level at or above the lowest level a
    // changed wire feeds. Re-evaluating an op whose inputs are unchanged
    // recomputes the same value, so both granularities are bit-identical to
    // the event-driven drain.
    const bool seq_only = jit_dirty_seq_only_;
    jit_dirty_seq_only_ = true;
    const std::uint32_t from = jit_dirty_level_;
    jit_dirty_level_ = static_cast<std::uint32_t>(net_->level_count());
    if (seq_only) {
      jit_kernel_->run_seq(values_.data());
    } else {
      jit_kernel_->run_from_level(from, values_.data());
    }
    return;
  }

  worklist_.drain([this](const CombOp& op) {
    const std::uint64_t value = eval_op(op);
    if (value == values_[op.out]) return false;
    values_[op.out] = value;
    return true;
  });
}

void Simulator::commit_wire(WireId wire, unsigned width, std::uint64_t value) {
  const std::uint64_t truncated = truncate(value, width);
  if (values_[wire] == truncated) return;
  values_[wire] = truncated;
  mark_wire_changed(wire, /*sequential=*/true);
}

void Simulator::step() {
  eval_comb();

  // Sample all sequential inputs at the edge, then commit. Writes are
  // committed before reads sample, modelling write-first RAM ports (a read
  // and write to the same address in the same cycle returns the new data,
  // matching the behavioral templates used for NG-ULTRA TDP RAM inference).
  reg_scratch_.clear();
  ram_write_scratch_.clear();
  ram_sample_scratch_.clear();

  for (const RegOp& op : net_->reg_ops) {
    if (values_[op.en] != 0) {
      reg_scratch_.push_back({op.q, op.q_width, values_[op.d]});
    }
  }
  for (const RamWriteOp& op : net_->ram_write_ops) {
    if (values_[op.en] != 0) {
      ram_write_scratch_.push_back(
          {op.mem, op.width, values_[op.addr], values_[op.data]});
    }
  }
  for (const RamReadOp& op : net_->ram_read_ops) {
    ram_sample_scratch_.push_back(
        {op.data, op.mem, values_[op.addr], values_[op.en] != 0});
  }

  for (const RegUpdate& update : reg_scratch_) {
    commit_wire(update.q, update.width, update.value);
  }
  for (const RamUpdate& update : ram_write_scratch_) {
    auto& contents = mem_state_[update.mem];
    if (update.addr < contents.size()) {
      contents[update.addr] = truncate(update.value, update.width);
    }
  }
  for (const RamSample& sample : ram_sample_scratch_) {
    if (!sample.enabled) continue;
    const auto& contents = mem_state_[sample.mem];
    commit_wire(sample.data, 64,
                sample.addr < contents.size() ? contents[sample.addr] : 0);
  }

  ++cycles_;
  eval_comb();
}

Result<std::uint64_t> Simulator::run_until(std::string_view port_name,
                                           std::uint64_t max_cycles) {
  const WireId done = module_.port_wire(port_name);
  if (done == kNoWire) {
    return Status::Error(ErrorCode::kNotFound,
                         format("no port named %.*s",
                                static_cast<int>(port_name.size()),
                                port_name.data()));
  }
  const std::uint64_t start = cycles_;
  eval_comb();  // lazy: settles only if an input changed since the last settle
  while (values_[done] == 0) {
    if (cycles_ - start >= max_cycles) {
      return Status::Error(
          ErrorCode::kDeadlineExceeded,
          format("signal %.*s not asserted within %llu cycles",
                 static_cast<int>(port_name.size()), port_name.data(),
                 static_cast<unsigned long long>(max_cycles)));
    }
    step();
  }
  return cycles_ - start;
}

void Simulator::corrupt_wire(WireId wire, unsigned bit) {
  if (wire >= values_.size()) return;
  const unsigned width = module_.wire_width(wire);
  if (bit >= width) return;
  values_[wire] ^= 1ULL << bit;
  comb_dirty_ = true;
  if (active_backend_ == SimBackend::kEvent) {
    worklist_.schedule_flip(wire);
  } else if (active_backend_ == SimBackend::kJit) {
    const CompiledNetlist& net = *net_;
    std::uint32_t level = net.wire_min_level[wire];
    if (net.comb_driver[wire] != kNoCombOp) {
      level = std::min(level, net.comb_ops[net.comb_driver[wire]].level);
    }
    jit_dirty_level_ = std::min(jit_dirty_level_, level);
    // A flipped wire may sit outside the sequential cone (a comb-driven wire
    // awaiting recomputation): force the general level resume.
    jit_dirty_seq_only_ = false;
  }
}

std::vector<WireId> Simulator::register_outputs() const {
  return net_->register_outputs();
}

std::uint64_t Simulator::read_memory(std::size_t mem, std::size_t addr) const {
  const auto& contents = mem_state_.at(mem);
  return addr < contents.size() ? contents[addr] : 0;
}

void Simulator::write_memory(std::size_t mem, std::size_t addr,
                             std::uint64_t value) {
  auto& contents = mem_state_.at(mem);
  if (addr < contents.size()) {
    contents[addr] = truncate(value, module_.memories()[mem].width);
  }
}

}  // namespace hermes::hw
