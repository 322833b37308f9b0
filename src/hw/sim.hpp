// Cycle-accurate netlist simulator.
//
// Plays the role Verilog simulation plays in the real Bambu flow: every
// HLS-generated accelerator is executed here against the golden IR
// interpreter. Two-phase semantics per clock cycle: combinational cells
// settle in topological order, then sequential cells (registers, RAM ports)
// commit on the clock edge.
//
// Three engines share one compiled representation (see docs/SIMULATOR.md):
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
//    runner) or only supplies tables (SlicedSimulator). At construction the
//    cells are flattened into a contiguous op table with pre-resolved wire
//    ids, cached widths and truncation masks, each comb op is assigned a
//    topological level (the table is sorted so a level's ops are
//    contiguous), and per-wire fanout lists are built. A settle then only
//    re-evaluates the cells reachable from wires that actually changed
//    (inputs, corrupted wires, committed registers / RAM samples), drained
//    level by level so every cell runs at most once per delta. A level whose
//    scheduled count reaches its op count is swept directly — dense toggling
//    pays no worklist bookkeeping.
//  * full-sweep oracle (SimBackend::kSweep): re-evaluates the whole op table
//    in topological order per settle. Kept as the differential-testing
//    reference; all engines are bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/netlist.hpp"

namespace hermes::hw {

class SlicedSimulator;

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
  std::uint32_t first_input = 0;  ///< index into op_inputs_ / op_input_widths_
  std::uint32_t level = 0;
  WireId out = kNoWire;
  std::uint64_t out_mask = 0;
  std::uint64_t param = 0;
};
struct RegOp {
  WireId d = kNoWire, en = kNoWire, q = kNoWire;
  unsigned q_width = 0;
  std::uint64_t reset_value = 0;
};
struct RamReadOp {
  WireId addr = kNoWire, en = kNoWire, data = kNoWire;
  std::uint32_t mem = 0;
};
struct RamWriteOp {
  WireId addr = kNoWire, data = kNoWire, en = kNoWire;
  std::uint32_t mem = 0;
  unsigned width = 0;
};

/// Borrowed view of a simulator's compiled level-sorted op table — the input
/// of the JIT lowering pass (src/hw/jit/mir.hpp). Level l's ops occupy
/// indices [level_start[l], level_start[l + 1]).
struct OpTableView {
  const CombOp* ops = nullptr;
  std::size_t op_count = 0;
  const WireId* inputs = nullptr;             ///< flat op input wires
  const std::uint8_t* input_widths = nullptr; ///< cached input widths
  const std::uint32_t* level_start = nullptr; ///< level_count + 1 offsets
  std::size_t level_count = 0;
  std::size_t wire_count = 0;
  /// Sequential output wires (register q, RAM read data): the roots of the
  /// compiled sequential-cone function the JIT settles with after a clock
  /// edge when no other wire changed.
  const WireId* seq_outputs = nullptr;
  std::size_t seq_output_count = 0;
};

class Simulator {
 public:
  /// Builds the evaluation schedule. Fails on combinational loops.
  explicit Simulator(const Module& module, SimOptions options = {});

  /// True if construction succeeded (no comb loop, valid netlist).
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
  /// error, never a hang).
  Result<std::uint64_t> run_until(std::string_view port_name,
                                  std::uint64_t max_cycles);

  [[nodiscard]] std::uint64_t get(WireId wire) const { return values_.at(wire); }
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
  /// The bit-sliced 64-replica engine reuses this engine's compiled op table,
  /// fanout CSR and level schedule instead of rebuilding them.
  friend class SlicedSimulator;

  void build_tables();
  [[nodiscard]] std::uint64_t eval_op(const CombOp& op) const;
  /// Marks a changed wire: dirty flag (sweep), fanout scheduling (event) or
  /// dirty-level lowering (JIT). `sequential` is true only for clock-edge
  /// commits — when every change since the last settle is sequential, the
  /// JIT backend settles with the compiled sequential-cone function instead
  /// of a full level resume.
  void mark_wire_changed(WireId wire, bool sequential = false);
  void schedule_op(std::uint32_t op_index);
  void schedule_fanout(WireId wire);
  /// Writes a sequential value; propagates only if it actually changed.
  void commit_wire(WireId wire, unsigned width, std::uint64_t value);

  [[nodiscard]] OpTableView op_table_view() const;
  [[nodiscard]] std::size_t level_count() const { return level_fill_.size(); }

  const Module& module_;
  SimOptions options_;
  SimBackend active_backend_ = SimBackend::kEvent;
  Status status_;

  // Compiled op table (SoA), sorted by (level, topological order).
  std::vector<CombOp> comb_ops_;
  std::vector<WireId> op_inputs_;             ///< flat input wires
  std::vector<std::uint8_t> op_input_widths_; ///< cached input widths
  std::vector<RegOp> reg_ops_;
  std::vector<RamReadOp> ram_read_ops_;
  std::vector<RamWriteOp> ram_write_ops_;
  std::vector<WireId> seq_output_wires_;  ///< register q / RAM read data wires

  // Event machinery: wire -> consuming comb ops (CSR), wire -> driving comb
  // op, per-level worklists. The worklists live in one flat CSR-style scratch
  // arena (each level owns the slot range [level_start_[l], level_start_[l+1])
  // and fills level_fill_[l] of it), so the hot settle path never touches the
  // heap: an op is scheduled by one store + one cursor bump, and draining a
  // level resets its cursor instead of clearing a vector. Because the op
  // table is level-sorted, the same offsets delimit each level's ops.
  std::vector<std::uint32_t> fanout_offsets_;
  std::vector<std::uint32_t> fanout_ops_;
  std::vector<std::uint32_t> comb_driver_;
  std::vector<std::uint32_t> level_start_;  ///< per-level arena offsets (CSR)
  std::vector<std::uint32_t> level_fill_;   ///< per-level scheduled count
  std::vector<std::uint32_t> level_arena_;  ///< scheduled op ids, by level
  std::vector<std::uint8_t> op_scheduled_;
  bool comb_dirty_ = false;

  // JIT backend state: the cached kernel plus the lowest level any changed
  // wire feeds — a settle executes straight-line code for every level at or
  // above it (evaluating an op whose inputs did not change is idempotent,
  // so whole-level granularity preserves event semantics exactly).
  std::shared_ptr<const jit::JitKernel> jit_kernel_;
  std::vector<std::uint32_t> wire_min_level_;  ///< min consumer level per wire
  std::uint32_t jit_dirty_level_ = 0;          ///< level_count() = clean
  bool jit_dirty_seq_only_ = true;  ///< all dirt since settle is clock-edge

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
