#include "hw/jit/kernel.hpp"

#include <chrono>
#include <cstring>

#include "hw/jit/emitter.hpp"
#include "hw/jit/mir.hpp"

namespace hermes::hw::jit {

std::shared_ptr<const JitKernel> JitKernel::compile(const CompiledNetlist& net) {
  if (!jit_available()) return nullptr;
  const auto start = std::chrono::steady_clock::now();

  const MirProgram program = lower(net);

  // Emit every block into one buffer, each function start 16-byte aligned.
  std::vector<std::uint8_t> code;
  std::vector<std::size_t> offsets;  // full, seq cone, then one per level
  offsets.reserve(program.levels.size() + 2);
  const auto emit_one = [&code, &offsets](const MirBlock& block) {
    while (code.size() % 16 != 0) code.push_back(0xCC);  // int3 padding
    offsets.push_back(code.size());
    return emit_block(block, code);
  };
  if (!emit_one(program.full)) return nullptr;
  if (!emit_one(program.seq)) return nullptr;
  for (const MirBlock& level : program.levels) {
    if (!emit_one(level)) return nullptr;
  }

  auto kernel = std::shared_ptr<JitKernel>(new JitKernel());
  if (!kernel->memory_.allocate(code.size())) return nullptr;
  std::memcpy(kernel->memory_.data(), code.data(), code.size());
  if (!kernel->memory_.finalize()) return nullptr;

  kernel->full_ =
      reinterpret_cast<Fn>(const_cast<void*>(kernel->memory_.entry(offsets[0])));
  kernel->seq_ =
      reinterpret_cast<Fn>(const_cast<void*>(kernel->memory_.entry(offsets[1])));
  kernel->levels_.reserve(program.levels.size());
  for (std::size_t i = 0; i < program.levels.size(); ++i) {
    kernel->levels_.push_back(reinterpret_cast<Fn>(
        const_cast<void*>(kernel->memory_.entry(offsets[i + 2]))));
  }

  JitKernelStats& stats = kernel->stats_;
  stats.code_bytes = code.size();
  stats.levels = program.levels.size();
  stats.ops = net.comb_ops.size();
  stats.seq_ops = program.seq_op_count;
  const auto accumulate = [&stats](const MirBlock& block) {
    stats.folded_consts += block.folded_consts;
    stats.fused_forwards += block.fused_forwards;
    stats.elided_masks += block.elided_masks;
  };
  accumulate(program.full);
  for (const MirBlock& level : program.levels) accumulate(level);
  stats.compile_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return kernel;
}

}  // namespace hermes::hw::jit
