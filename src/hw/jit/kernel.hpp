// Native kernel of a hw::CompiledNetlist — the same compiled form the
// interpreters run: one function per topological level, a fused full-sweep
// function and a sequential-cone function, all sharing one W^X code
// mapping. A kernel is immutable after compile() and holds no pointer into
// any simulator — every entry takes the wire value array as its argument, so
// one kernel serves all simulators of structurally-identical modules (see
// jit::KernelCache).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/jit/exec_memory.hpp"
#include "hw/sim.hpp"

namespace hermes::hw::jit {

struct JitKernelStats {
  std::size_t code_bytes = 0;
  std::size_t levels = 0;
  std::size_t ops = 0;
  std::size_t seq_ops = 0;         ///< ops in the sequential-cone function
  std::size_t folded_consts = 0;   ///< operands folded to immediates
  std::size_t fused_forwards = 0;  ///< operands read from the accumulator
  std::size_t elided_masks = 0;    ///< truncation masks proven dead
  std::uint64_t compile_ns = 0;    ///< wall-clock lower + emit + map time
};

class JitKernel {
 public:
  /// Lowers and compiles the netlist. Returns null when JIT execution is
  /// unavailable (non-x86-64, W^X denied, HERMES_DISABLE_JIT) or the table
  /// cannot be encoded — callers fall back to the interpreter.
  static std::shared_ptr<const JitKernel> compile(const CompiledNetlist& net);

  /// Full sweep: evaluates every comb op in topological order.
  void run_all(std::uint64_t* values) const { full_(values); }

  /// Evaluates every level >= `level` in ascending order. Level 0 uses the
  /// fused full-sweep function. Re-running an op whose inputs did not change
  /// recomputes the same value, so whole-level granularity is exact.
  void run_from_level(std::uint32_t level, std::uint64_t* values) const {
    if (level == 0) {
      full_(values);
      return;
    }
    for (std::size_t i = level; i < levels_.size(); ++i) levels_[i](values);
  }

  /// Evaluates only the sequential cone — the ops transitively fed by
  /// register / RAM-read outputs, in topological order. Exact whenever no
  /// wire outside that set changed since the last settle (the post-clock-edge
  /// steady state), and usually far smaller than a full sweep.
  void run_seq(std::uint64_t* values) const { seq_(values); }

  [[nodiscard]] std::size_t level_count() const { return levels_.size(); }
  [[nodiscard]] const JitKernelStats& stats() const { return stats_; }

  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

 private:
  JitKernel() = default;

  using Fn = void (*)(std::uint64_t*);

  ExecMemory memory_;
  Fn full_ = nullptr;
  Fn seq_ = nullptr;
  std::vector<Fn> levels_;
  JitKernelStats stats_;
};

}  // namespace hermes::hw::jit
