#include "hw/netlist.hpp"

#include <cassert>
#include <unordered_set>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace hermes::hw {

const char* to_string(CellKind kind) {
  switch (kind) {
    case CellKind::kConst: return "const";
    case CellKind::kAdd: return "add";
    case CellKind::kSub: return "sub";
    case CellKind::kMul: return "mul";
    case CellKind::kDivU: return "divu";
    case CellKind::kDivS: return "divs";
    case CellKind::kRemU: return "remu";
    case CellKind::kRemS: return "rems";
    case CellKind::kAnd: return "and";
    case CellKind::kOr: return "or";
    case CellKind::kXor: return "xor";
    case CellKind::kNot: return "not";
    case CellKind::kShl: return "shl";
    case CellKind::kShrU: return "shru";
    case CellKind::kShrS: return "shrs";
    case CellKind::kEq: return "eq";
    case CellKind::kNe: return "ne";
    case CellKind::kLtU: return "ltu";
    case CellKind::kLtS: return "lts";
    case CellKind::kLeU: return "leu";
    case CellKind::kLeS: return "les";
    case CellKind::kMux: return "mux";
    case CellKind::kZext: return "zext";
    case CellKind::kSext: return "sext";
    case CellKind::kSlice: return "slice";
    case CellKind::kConcat: return "concat";
    case CellKind::kRegister: return "register";
    case CellKind::kRamRead: return "ram_read";
    case CellKind::kRamWrite: return "ram_write";
  }
  return "?";
}

bool is_sequential(CellKind kind) {
  return kind == CellKind::kRegister || kind == CellKind::kRamRead ||
         kind == CellKind::kRamWrite;
}

WireId Module::add_wire(unsigned width, std::string name) {
  assert(width >= 1 && width <= 64);
  const WireId id = static_cast<WireId>(wire_widths_.size());
  wire_widths_.push_back(width);
  if (name.empty()) name = format("w%u", id);
  wire_names_.push_back(std::move(name));
  return id;
}

void Module::add_input(WireId wire, std::string name) {
  ports_.push_back({std::move(name), wire, /*is_input=*/true});
}

void Module::add_output(WireId wire, std::string name) {
  ports_.push_back({std::move(name), wire, /*is_input=*/false});
}

WireId Module::port_wire(std::string_view name) const {
  for (const Port& port : ports_) {
    if (port.name == name) return port.wire;
  }
  return kNoWire;
}

std::size_t Module::add_memory(Memory memory) {
  memories_.push_back(std::move(memory));
  return memories_.size() - 1;
}

std::size_t Module::add_cell(Cell cell) {
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

WireId Module::make_const(std::uint64_t value, unsigned width, std::string name) {
  const WireId out = add_wire(width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kConst;
  cell.param = value & (width >= 64 ? ~0ULL : ((1ULL << width) - 1));
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_binop(CellKind kind, WireId a, WireId b, unsigned out_width,
                          std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = kind;
  cell.inputs = {a, b};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_not(WireId a, std::string name) {
  const WireId out = add_wire(wire_width(a), std::move(name));
  Cell cell;
  cell.kind = CellKind::kNot;
  cell.inputs = {a};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_mux(WireId sel, WireId if0, WireId if1, std::string name) {
  assert(wire_width(sel) == 1);
  assert(wire_width(if0) == wire_width(if1));
  const WireId out = add_wire(wire_width(if0), std::move(name));
  Cell cell;
  cell.kind = CellKind::kMux;
  cell.inputs = {sel, if0, if1};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_zext(WireId a, unsigned out_width, std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kZext;
  cell.inputs = {a};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_sext(WireId a, unsigned out_width, std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kSext;
  cell.inputs = {a};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_slice(WireId a, unsigned lsb, unsigned out_width,
                          std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kSlice;
  cell.inputs = {a};
  cell.outputs = {out};
  cell.param = lsb;
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_concat(const std::vector<WireId>& lsb_first, std::string name) {
  unsigned total = 0;
  for (WireId wire : lsb_first) total += wire_width(wire);
  const WireId out = add_wire(total, std::move(name));
  Cell cell;
  cell.kind = CellKind::kConcat;
  cell.inputs = lsb_first;
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_register(WireId d, WireId en, std::uint64_t reset_value,
                             std::string name) {
  const WireId q = add_wire(wire_width(d), std::move(name));
  Cell cell;
  cell.kind = CellKind::kRegister;
  cell.inputs = {d, en};
  cell.outputs = {q};
  cell.param = reset_value;
  add_cell(std::move(cell));
  return q;
}

WireId Module::make_ram_read(std::size_t mem, WireId addr, WireId en,
                             std::string name) {
  const WireId data = add_wire(memories_.at(mem).width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kRamRead;
  cell.inputs = {addr, en};
  cell.outputs = {data};
  cell.param = mem;
  add_cell(std::move(cell));
  return data;
}

void Module::make_ram_write(std::size_t mem, WireId addr, WireId data, WireId en,
                            std::string name) {
  Cell cell;
  cell.kind = CellKind::kRamWrite;
  cell.inputs = {addr, data, en};
  cell.param = mem;
  cell.name = std::move(name);
  add_cell(std::move(cell));
}

NetlistStats Module::stats() const {
  NetlistStats stats;
  stats.cells = cells_.size();
  stats.memories = memories_.size();
  for (const Memory& memory : memories_) {
    stats.memory_bits += memory.width * memory.depth;
  }
  for (const Cell& cell : cells_) {
    switch (cell.kind) {
      case CellKind::kRegister:
        ++stats.registers;
        stats.register_bits += wire_width(cell.outputs[0]);
        break;
      case CellKind::kAdd: case CellKind::kSub:
        ++stats.arithmetic;
        break;
      case CellKind::kMul:
        ++stats.arithmetic;
        ++stats.multipliers;
        break;
      case CellKind::kDivU: case CellKind::kDivS:
      case CellKind::kRemU: case CellKind::kRemS:
        ++stats.arithmetic;
        ++stats.dividers;
        break;
      case CellKind::kMux:
        ++stats.muxes;
        break;
      default:
        break;
    }
  }
  return stats;
}

std::uint64_t Module::digest() const {
  Fnv64 hash;
  hash.le64(wire_widths_.size());
  for (unsigned width : wire_widths_) hash.le64(width);
  hash.le64(ports_.size());
  for (const Port& port : ports_) {
    hash.le64(port.wire);
    hash.le64(port.is_input ? 1 : 0);
  }
  hash.le64(cells_.size());
  for (const Cell& cell : cells_) {
    hash.le64(static_cast<std::uint64_t>(cell.kind));
    hash.le64(cell.param);
    hash.le64(cell.inputs.size());
    for (WireId wire : cell.inputs) hash.le64(wire);
    hash.le64(cell.outputs.size());
    for (WireId wire : cell.outputs) hash.le64(wire);
  }
  hash.le64(memories_.size());
  for (const Memory& memory : memories_) {
    hash.le64(memory.width);
    hash.le64(memory.depth);
    hash.le64(memory.dual_port ? 1 : 0);
    hash.le64(memory.init.size());
    for (std::uint64_t word : memory.init) hash.le64(word);
  }
  return hash.digest();
}

Status Module::validate() const {
  std::unordered_set<WireId> driven;
  auto check_wire = [&](WireId wire) {
    return wire < wire_widths_.size();
  };
  for (const Port& port : ports_) {
    if (!check_wire(port.wire)) {
      return Status::Error(ErrorCode::kInternal,
                           format("port %s references invalid wire", port.name.c_str()));
    }
    if (port.is_input) driven.insert(port.wire);
  }
  for (const Cell& cell : cells_) {
    for (WireId wire : cell.inputs) {
      if (!check_wire(wire)) {
        return Status::Error(ErrorCode::kInternal,
                             format("cell %s has invalid input wire", to_string(cell.kind)));
      }
    }
    for (WireId wire : cell.outputs) {
      if (!check_wire(wire)) {
        return Status::Error(ErrorCode::kInternal,
                             format("cell %s has invalid output wire", to_string(cell.kind)));
      }
      if (!driven.insert(wire).second) {
        return Status::Error(
            ErrorCode::kInternal,
            format("wire %s is multiply driven", wire_names_.at(wire).c_str()));
      }
    }
    if ((cell.kind == CellKind::kRamRead || cell.kind == CellKind::kRamWrite) &&
        cell.param >= memories_.size()) {
      return Status::Error(ErrorCode::kInternal, "RAM cell references invalid memory");
    }
    if (cell.kind == CellKind::kMux && wire_width(cell.inputs[0]) != 1) {
      return Status::Error(ErrorCode::kInternal, "mux select must be 1 bit");
    }
    if (cell.kind == CellKind::kRegister &&
        wire_width(cell.inputs[0]) != wire_width(cell.outputs[0])) {
      return Status::Error(ErrorCode::kInternal, "register d/q width mismatch");
    }
  }
  return Status::Ok();
}

}  // namespace hermes::hw

namespace hermes::hw {

std::size_t sweep_dead_cells(Module& module) {
  // The Module API is append-only, so the sweep rebuilds the cell list.
  // Wires are left in place (unused wires cost nothing downstream).
  std::size_t removed_total = 0;
  while (true) {
    std::vector<bool> used(module.wire_count(), false);
    for (const Port& port : module.ports()) {
      if (!port.is_input) used[port.wire] = true;
    }
    for (const Cell& cell : module.cells()) {
      for (WireId wire : cell.inputs) used[wire] = true;
    }
    std::vector<Cell> kept;
    kept.reserve(module.cells().size());
    std::size_t removed = 0;
    for (const Cell& cell : module.cells()) {
      const bool effectful = cell.kind == CellKind::kRamWrite;
      bool drives_something = effectful;
      for (WireId wire : cell.outputs) {
        if (used[wire]) drives_something = true;
      }
      if (drives_something) {
        kept.push_back(cell);
      } else {
        ++removed;
      }
    }
    if (removed == 0) break;
    removed_total += removed;
    module.replace_cells(std::move(kept));
  }
  return removed_total;
}

}  // namespace hermes::hw
