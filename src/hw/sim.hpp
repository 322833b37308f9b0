// Cycle-accurate netlist simulator.
//
// Plays the role Verilog simulation plays in the real Bambu flow: every
// HLS-generated accelerator is executed here against the golden IR
// interpreter. Two-phase semantics per clock cycle: combinational cells
// settle in topological order, then sequential cells (registers, RAM ports)
// commit on the clock edge.
//
// compile_netlist() turns a Module into one immutable CompiledNetlist: the
// cells flattened into a contiguous comb op table with pre-resolved wire ids,
// cached widths and truncation masks, sorted by topological level so a
// level's ops are contiguous; the sequential ops with their widths; and the
// level and per-wire fanout CSRs. Every engine runs that one form (see
// docs/SIMULATOR.md):
//  * JIT (SimBackend::kJit, the default): each topological level — plus the
//    full-sweep step and the sequential cone — is lowered through a small
//    machine-IR to straight-line native x86-64 code operating directly on
//    this simulator's wire value array (src/hw/jit/). Compiled kernels are
//    shared process-wide through a content-addressed jit::KernelCache keyed
//    by Module::digest(). On non-x86-64 hosts, W^X-denied environments, a
//    compile failure, or HERMES_DISABLE_JIT=1 the constructor silently falls
//    back to the event-driven interpreter; results are bit-identical either
//    way, and active_backend() reports which engine runs.
//  * event-driven interpreter (SimBackend::kEvent): the fallback, and the
//    oracle wherever one simulator checks another (the serial SEU campaign
//    runner). A settle only re-evaluates the cells reachable from wires that
//    actually changed (inputs, corrupted wires, committed registers / RAM
//    samples), drained level by level through an EventWorklist so every cell
//    runs at most once per delta. A level whose scheduled count reaches its
//    op count is swept directly — dense toggling pays no worklist
//    bookkeeping. The bit-sliced engine (hw/sim_sliced.hpp) drives the same
//    worklist over its slice words.
//  * full-sweep oracle (SimBackend::kSweep): re-evaluates the whole op table
//    in topological order per settle. Kept as the differential-testing
//    reference; all engines are bit-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/netlist.hpp"

namespace hermes::hw {

namespace jit {
class JitKernel;
}

/// Engine selection. The JIT backend is the default and degrades to kEvent
/// when native execution is unavailable; pin kEvent where a simulator is the
/// interpreter oracle. The full-sweep path is retained as the oracle for
/// differential testing.
enum class SimBackend : std::uint8_t { kEvent, kSweep, kJit };

const char* to_string(SimBackend backend);

struct SimOptions {
  SimBackend backend = SimBackend::kJit;
};

/// Sentinel "no combinational op" index (undriven / sequential wires).
inline constexpr std::uint32_t kNoCombOp = ~static_cast<std::uint32_t>(0);

/// One combinational cell, compiled: pre-resolved wires, cached widths and
/// output mask, topological level. Stored sorted by (level, topo order), so
/// each level occupies a contiguous index range of the op table.
struct CombOp {
  CellKind kind = CellKind::kConst;
  std::uint8_t out_width = 0;
  std::uint16_t input_count = 0;
  std::uint32_t first_input = 0;  ///< index into op_inputs / op_input_widths
  std::uint32_t level = 0;
  WireId out = kNoWire;
  std::uint64_t out_mask = 0;
  std::uint64_t param = 0;
};
/// Sequential cells, with every wire width an engine reads at the clock edge.
struct RegOp {
  WireId d = kNoWire, en = kNoWire, q = kNoWire;
  std::uint8_t d_width = 0, en_width = 0, q_width = 0;
  std::uint64_t reset_value = 0;  ///< already truncated to q_width
};
struct RamReadOp {
  WireId addr = kNoWire, en = kNoWire, data = kNoWire;
  std::uint32_t mem = 0;
  std::uint8_t addr_width = 0, en_width = 0, data_width = 0;
};
struct RamWriteOp {
  WireId addr = kNoWire, data = kNoWire, en = kNoWire;
  std::uint32_t mem = 0;
  std::uint8_t addr_width = 0, data_width = 0, en_width = 0;
  std::uint8_t width = 0;  ///< the memory's word width
};

/// The compiled form of a Module that every engine runs: the event and sweep
/// interpreters, the JIT lowering (src/hw/jit/) and the bit-sliced engine.
/// Immutable once built.
struct CompiledNetlist {
  std::vector<CombOp> comb_ops;               ///< sorted by (level, topo order)
  std::vector<WireId> op_inputs;              ///< flat comb op input wires
  std::vector<std::uint8_t> op_input_widths;  ///< their cached widths
  std::vector<RegOp> reg_ops;
  std::vector<RamReadOp> ram_read_ops;
  std::vector<RamWriteOp> ram_write_ops;
  std::vector<WireId> seq_outputs;  ///< register q / RAM read data wires
  /// Level CSR: level l's ops are comb_ops[level_start[l], level_start[l+1]).
  std::vector<std::uint32_t> level_start;
  /// Fanout CSR: the comb ops consuming wire w (each op once) are
  /// fanout_ops[fanout_offsets[w], fanout_offsets[w + 1]).
  std::vector<std::uint32_t> fanout_offsets;
  std::vector<std::uint32_t> fanout_ops;
  std::vector<std::uint32_t> comb_driver;     ///< wire -> comb op or kNoCombOp
  std::vector<std::uint32_t> wire_min_level;  ///< lowest consumer level
  std::size_t wire_count = 0;

  [[nodiscard]] std::size_t level_count() const {
    return level_start.empty() ? 0 : level_start.size() - 1;
  }
  /// Output wires of every register cell, in cell order.
  [[nodiscard]] std::vector<WireId> register_outputs() const;
};

/// Validates and compiles `module`. Fails on a combinational loop.
Result<std::shared_ptr<const CompiledNetlist>> compile_netlist(
    const Module& module);

/// The per-level event worklist over a CompiledNetlist, driven by both the
/// event interpreter and the bit-sliced engine. The worklists live in one
/// flat scratch arena: level l owns the slots [level_start[l],
/// level_start[l+1]) — as many as it has ops — and fills level_fill_[l] of
/// them, so scheduling an op is one store plus one cursor bump and the hot
/// settle path never touches the heap.
class EventWorklist {
 public:
  EventWorklist() = default;
  /// `net` must outlive the worklist.
  explicit EventWorklist(const CompiledNetlist& net)
      : net_(&net),
        level_fill_(net.level_count(), 0),
        level_arena_(net.comb_ops.size(), 0),
        op_scheduled_(net.comb_ops.size(), 0) {}

  void schedule_op(std::uint32_t op) {
    if (op_scheduled_[op]) return;
    op_scheduled_[op] = 1;
    const std::uint32_t level = net_->comb_ops[op].level;
    level_arena_[net_->level_start[level] + level_fill_[level]++] = op;
  }

  /// Schedules every comb op that consumes `wire`.
  void schedule_fanout(WireId wire) {
    const std::uint32_t end = net_->fanout_offsets[wire + 1];
    for (std::uint32_t i = net_->fanout_offsets[wire]; i < end; ++i) {
      schedule_op(net_->fanout_ops[i]);
    }
  }

  /// Schedules a bit-flipped wire: its fanout, and its comb driver if it has
  /// one, so the next drain recomputes the wire (erasing the flip, as a full
  /// sweep would); the driver sits below the fanout, so dependents read the
  /// recomputed value.
  void schedule_flip(WireId wire) {
    if (net_->comb_driver[wire] != kNoCombOp) {
      schedule_op(net_->comb_driver[wire]);
    }
    schedule_fanout(wire);
  }

  /// Drops everything scheduled.
  void clear() {
    std::fill(level_fill_.begin(), level_fill_.end(), 0);
    std::fill(op_scheduled_.begin(), op_scheduled_.end(), 0);
  }

  /// Drains the levels in ascending order. `update(op)` re-evaluates one op,
  /// commits its output and returns true if the output changed; the drain
  /// then schedules that output's fanout. A re-evaluated op only schedules
  /// ops at strictly higher levels, so each level is complete when reached
  /// and every op runs at most once per drain. A level whose ops are all
  /// scheduled is swept directly over its contiguous op range — ops of one
  /// level never read each other, so the order inside a level is free.
  template <typename Update>
  void drain(Update&& update) {
    const CompiledNetlist& net = *net_;
    for (std::size_t level = 0; level < level_fill_.size(); ++level) {
      const std::uint32_t base = net.level_start[level];
      const std::uint32_t count = net.level_start[level + 1] - base;
      if (level_fill_[level] == count) {
        std::fill_n(op_scheduled_.begin() + base, count, std::uint8_t{0});
        for (std::uint32_t index = base; index < base + count; ++index) {
          const CombOp& op = net.comb_ops[index];
          if (update(op)) schedule_fanout(op.out);
        }
      } else {
        for (std::uint32_t i = 0; i < level_fill_[level]; ++i) {
          const std::uint32_t index = level_arena_[base + i];
          op_scheduled_[index] = 0;
          const CombOp& op = net.comb_ops[index];
          if (update(op)) schedule_fanout(op.out);
        }
      }
      level_fill_[level] = 0;
    }
  }

 private:
  const CompiledNetlist* net_ = nullptr;
  std::vector<std::uint32_t> level_fill_;   ///< per-level scheduled count
  std::vector<std::uint32_t> level_arena_;  ///< scheduled op ids, by level
  std::vector<std::uint8_t> op_scheduled_;
};

class Simulator {
 public:
  /// Builds the evaluation schedule. Fails on combinational loops.
  explicit Simulator(const Module& module, SimOptions options = {});

  /// True if construction succeeded (no comb loop, valid netlist). Every
  /// other member requires it.
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const SimOptions& options() const { return options_; }

  /// The engine actually executing settles: options().backend, except that a
  /// requested kJit degrades to kEvent when native execution is unavailable.
  [[nodiscard]] SimBackend active_backend() const { return active_backend_; }

  /// Synchronous reset: registers to their reset values, cycle counter to 0.
  /// Memory contents are reloaded from their init images.
  void reset();

  /// Drives an input port (persists until changed).
  void set_input(std::string_view port_name, std::uint64_t value);
  /// Same, with the port wire pre-resolved via Module::port_wire — the hot
  /// path for benchmarks and campaign drivers that set ports every cycle.
  void set_input(WireId wire, std::uint64_t value);

  /// Settles combinational logic without advancing the clock. Lazily clean:
  /// a no-op unless an event source touched a wire since the last settle.
  void eval_comb();

  /// One full clock cycle: settle, commit sequential state, settle again.
  void step();

  /// Runs until `port_name` (1-bit output, e.g. "done") reads 1, at most
  /// `max_cycles` cycles. Returns the number of cycles consumed, or
  /// kDeadlineExceeded if the bound was hit (a stuck circuit ends in an
  /// error, never a hang), or kNotFound for an unknown port.
  Result<std::uint64_t> run_until(std::string_view port_name,
                                  std::uint64_t max_cycles);

  [[nodiscard]] std::uint64_t get(WireId wire) const { return values_.at(wire); }
  /// Throws std::out_of_range for an unknown port, as get() does for an
  /// unknown wire.
  [[nodiscard]] std::uint64_t get_output(std::string_view port_name) const;

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// Testbench backdoor access to embedded memories.
  [[nodiscard]] std::uint64_t read_memory(std::size_t mem, std::size_t addr) const;
  void write_memory(std::size_t mem, std::size_t addr, std::uint64_t value);

  /// Radiation backdoor: flips one bit of a wire's current value. Only
  /// meaningful for sequential outputs (register / RAM-port state) — a
  /// combinational wire is recomputed at the next settle. Call between
  /// step()s; do not call eval_comb() first if downstream effects should be
  /// observed on the next cycle.
  void corrupt_wire(WireId wire, unsigned bit);

  /// Output wires of every register cell — the SEU target list for fault
  /// campaigns on the running netlist.
  [[nodiscard]] std::vector<WireId> register_outputs() const;

  [[nodiscard]] const Module& module() const { return module_; }

 private:
  [[nodiscard]] std::uint64_t eval_op(const CombOp& op) const;
  /// Marks a changed wire: dirty flag (sweep), fanout scheduling (event) or
  /// dirty-level lowering (JIT). `sequential` is true only for clock-edge
  /// commits — when every change since the last settle is sequential, the
  /// JIT backend settles with the compiled sequential-cone function instead
  /// of a full level resume.
  void mark_wire_changed(WireId wire, bool sequential = false);
  /// Writes a sequential value; propagates only if it actually changed.
  void commit_wire(WireId wire, unsigned width, std::uint64_t value);

  const Module& module_;
  SimOptions options_;
  SimBackend active_backend_ = SimBackend::kEvent;
  Status status_;

  std::shared_ptr<const CompiledNetlist> net_;
  EventWorklist worklist_;  ///< kEvent only
  bool comb_dirty_ = false;

  // JIT backend state: the cached kernel plus the lowest level any changed
  // wire feeds — a settle executes straight-line code for every level at or
  // above it (evaluating an op whose inputs did not change is idempotent,
  // so whole-level granularity preserves event semantics exactly).
  std::shared_ptr<const jit::JitKernel> jit_kernel_;
  std::uint32_t jit_dirty_level_ = 0;  ///< level_count() = clean
  bool jit_dirty_seq_only_ = true;     ///< all dirt since settle is clock-edge

  std::vector<std::uint64_t> values_;     ///< current wire values
  std::vector<std::vector<std::uint64_t>> mem_state_;
  std::uint64_t cycles_ = 0;

  // Per-step scratch entries (member buffers, reused across steps).
  struct RegUpdate { WireId q; unsigned width; std::uint64_t value; };
  struct RamUpdate { std::uint32_t mem; unsigned width; std::uint64_t addr, value; };
  struct RamSample { WireId data; std::uint32_t mem; std::uint64_t addr; bool enabled; };
  std::vector<RegUpdate> reg_scratch_;
  std::vector<RamUpdate> ram_write_scratch_;
  std::vector<RamSample> ram_sample_scratch_;
};

}  // namespace hermes::hw
