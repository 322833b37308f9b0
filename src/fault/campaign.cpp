#include "fault/campaign.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "fault/seu.hpp"
#include "hw/sim.hpp"
#include "hw/sim_sliced.hpp"

namespace hermes::fault {

namespace {

struct RegisterUpset {
  hw::WireId target = hw::kNoWire;
  unsigned bit = 0;
};

/// The one place the campaign Rng is consumed: target register, then bit.
/// Shared by the serial and sliced runners so the draw sequence cannot
/// drift between them.
RegisterUpset draw_register_upset(const hw::Module& module,
                                  const std::vector<hw::WireId>& targets,
                                  Rng& rng) {
  RegisterUpset upset;
  upset.target = targets[rng.next_below(targets.size())];
  upset.bit = static_cast<unsigned>(
      rng.next_below(module.wire_width(upset.target)));
  return upset;
}

}  // namespace

std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t replica) {
  // SplitMix64 over (base, index): decorrelates consecutive replicas far
  // better than base + index, and never depends on thread assignment.
  return mix64(base_seed +
               kGoldenGamma * (static_cast<std::uint64_t>(replica) + 1));
}

ScrubCampaignResult run_scrub_campaign(const ScrubCampaignPlan& plan,
                                       ThreadPool* pool) {
  ScrubCampaignResult result;
  result.per_replica.assign(plan.replicas, ScrubReport{});

  const auto run_replica = [&](std::size_t replica) {
    ScrubMemory memory(plan.memory_words, plan.protection);
    for (std::size_t i = 0; i < memory.size(); ++i) {
      memory.write(i, static_cast<std::uint32_t>(i * 2654435761u));
    }
    Rng rng(replica_seed(plan.base_seed, replica));
    ScrubReport sum;
    for (unsigned interval = 0; interval < plan.intervals; ++interval) {
      const ScrubReport report = memory.inject_and_scrub(plan.seu, rng);
      sum.injected_upsets += report.injected_upsets;
      sum.corrected += report.corrected;
      sum.detected_uncorrectable += report.detected_uncorrectable;
      sum.silent_corruptions += report.silent_corruptions;
    }
    result.per_replica[replica] = sum;
  };
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(plan.replicas, run_replica);

  for (const ScrubReport& report : result.per_replica) {
    result.total.injected_upsets += report.injected_upsets;
    result.total.corrected += report.corrected;
    result.total.detected_uncorrectable += report.detected_uncorrectable;
    result.total.silent_corruptions += report.silent_corruptions;
  }
  return result;
}

NetlistSeuResult run_netlist_seu_campaign(const hw::Module& module,
                                          const NetlistSeuPlan& plan,
                                          ThreadPool* pool,
                                          hw::SimBackend engine) {
  NetlistSeuResult result;
  result.per_replica.assign(plan.replicas, NetlistSeuOutcome{});

  const hw::SimOptions options{.backend = engine};
  const auto run_replica = [&](std::size_t replica) {
    hw::Simulator golden(module, options);
    hw::Simulator faulty(module, options);
    if (!golden.status().ok() || !faulty.status().ok()) return;
    for (const auto& [port, value] : plan.inputs) {
      golden.set_input(port, value);
      faulty.set_input(port, value);
    }
    for (std::uint64_t c = 0; c < plan.cycles_before; ++c) {
      golden.step();
      faulty.step();
    }

    const std::vector<hw::WireId> targets = golden.register_outputs();
    NetlistSeuOutcome outcome;
    if (targets.empty()) {
      result.per_replica[replica] = outcome;
      return;
    }
    Rng rng(replica_seed(plan.base_seed, replica));
    const RegisterUpset upset = draw_register_upset(module, targets, rng);
    outcome.target = upset.target;
    outcome.bit = upset.bit;
    faulty.corrupt_wire(outcome.target, outcome.bit);

    const std::vector<hw::Port>& ports = module.ports();
    for (std::uint64_t c = 0; c < plan.cycles_after; ++c) {
      golden.step();
      faulty.step();
      bool mismatch = false;
      for (hw::WireId reg : targets) {
        if (golden.get(reg) != faulty.get(reg)) { mismatch = true; break; }
      }
      if (!mismatch) {
        for (const hw::Port& port : ports) {
          if (!port.is_input &&
              golden.get(port.wire) != faulty.get(port.wire)) {
            mismatch = true;
            break;
          }
        }
      }
      if (mismatch && !outcome.diverged) {
        outcome.diverged = true;
        outcome.first_divergence_cycle = c;
      }
    }
    result.per_replica[replica] = outcome;
  };
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(plan.replicas, run_replica);

  for (const NetlistSeuOutcome& outcome : result.per_replica) {
    if (outcome.diverged) ++result.diverged;
  }
  return result;
}

NetlistSeuResult run_netlist_seu_campaign_sliced(const hw::Module& module,
                                                 const NetlistSeuPlan& plan,
                                                 ThreadPool* pool) {
  NetlistSeuResult result;
  result.per_replica.assign(plan.replicas, NetlistSeuOutcome{});

  const auto run_batch = [&](std::size_t batch) {
    hw::SlicedSimulator sim(module);
    if (!sim.status().ok()) return;
    for (const auto& [port, value] : plan.inputs) {
      sim.set_input(port, value);
    }
    for (std::uint64_t c = 0; c < plan.cycles_before; ++c) sim.step();

    const std::vector<hw::WireId> targets = sim.register_outputs();
    if (targets.empty()) return;  // default outcomes, same as the serial path

    // Lanes 1..63 carry consecutive plan replicas; the final batch may be
    // partial. Lane 0 stays fault-free — it is the golden replica every
    // lane_divergence() call compares against.
    const std::size_t first = batch * kReplicasPerBatch;
    const std::size_t last =
        std::min(first + kReplicasPerBatch, plan.replicas);
    std::uint64_t batch_lanes = 0;
    for (std::size_t replica = first; replica < last; ++replica) {
      Rng rng(replica_seed(plan.base_seed, replica));
      const RegisterUpset upset = draw_register_upset(module, targets, rng);
      NetlistSeuOutcome& outcome = result.per_replica[replica];
      outcome.target = upset.target;
      outcome.bit = upset.bit;
      sim.corrupt_wire(upset.target, upset.bit, 1ULL << lane_of(replica));
      batch_lanes |= 1ULL << lane_of(replica);
    }

    const std::vector<hw::Port>& ports = module.ports();
    std::uint64_t diverged = 0;
    for (std::uint64_t c = 0; c < plan.cycles_after; ++c) {
      sim.step();
      // A replica mismatches when any watched register or output port
      // differs from golden — the OR over lane_divergence is exactly the
      // serial runner's short-circuit scan, evaluated for 63 replicas at
      // once.
      std::uint64_t mask = 0;
      for (hw::WireId reg : targets) mask |= sim.lane_divergence(reg);
      for (const hw::Port& port : ports) {
        if (!port.is_input) mask |= sim.lane_divergence(port.wire);
      }
      mask &= batch_lanes;
      std::uint64_t newly = mask & ~diverged;
      while (newly != 0) {
        const unsigned lane =
            static_cast<unsigned>(__builtin_ctzll(newly));
        newly &= newly - 1;
        NetlistSeuOutcome& outcome =
            result.per_replica[replica_at(batch, lane)];
        outcome.diverged = true;
        outcome.first_divergence_cycle = c;
      }
      diverged |= mask;
      // Once every replica in the batch has diverged nothing can change the
      // outcome vector; the remaining cycles are unobservable.
      if (diverged == batch_lanes) break;
    }
  };
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(batch_count(plan.replicas), run_batch);

  for (const NetlistSeuOutcome& outcome : result.per_replica) {
    if (outcome.diverged) ++result.diverged;
  }
  return result;
}

std::uint64_t fingerprint(const NetlistSeuResult& result) {
  Fnv64 hash;
  hash.le64(result.per_replica.size());
  for (const NetlistSeuOutcome& outcome : result.per_replica) {
    hash.le64(outcome.target);
    hash.le64(outcome.bit);
    hash.le64(outcome.diverged ? 1 : 0);
    hash.le64(outcome.first_divergence_cycle);
  }
  hash.le64(result.diverged);
  return hash.digest();
}

}  // namespace hermes::fault
