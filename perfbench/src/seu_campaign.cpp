// seu_campaign: the qualification engineer's path — bit-sliced netlist SEU
// campaigns over HLS-built accelerators.
//
// Closed loop: one campaign at a time, each fanned out over a ThreadPool of
// kThreads. Every campaign is 4032 replicas (64 full 63-lane batches, so the
// pool has work to split) with a fixed warm-up and observe window and
// seed-drawn upsets. Two accelerator shapes are built at set-up: FIR is
// multiplier-heavy (mul/div take the SlicedSimulator's lane-sparse fallback),
// histogram is compare/mux-heavy (stays word-parallel). Campaigns alternate
// between them by index, so every window of campaigns sees both equally.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fault/campaign.hpp"
#include "fault/seu.hpp"
#include "hls/flow.hpp"
#include "hw/sim.hpp"
#include "hw/sim_sliced.hpp"

namespace perfbench {
namespace {

using namespace hermes;

/// Threads executing replicas in the closed loop: pool workers plus the
/// submitting thread, leaving one vCPU of a 4-vCPU host to everything else
/// (see kThreads in compile_mix.cpp). The traced run measures 1, 2 and 4.
constexpr unsigned kThreads = 3;
constexpr std::size_t kReplicas = 64 * fault::kReplicasPerBatch;  // 4032
constexpr std::uint64_t kWarmupCycles = 8;
constexpr std::uint64_t kObserveCycles = 32;
constexpr int kSetupRepeats = 5;
/// One campaign in kOracleEvery is re-run through the serial oracle.
constexpr std::uint64_t kOracleEvery = 64;
constexpr std::size_t kOracleCap = 3;
/// Campaigns per throughput window; replicas_per_s is the median window rate.
constexpr std::size_t kWindowCampaigns = 8;

/// The two campaign targets: FIR (multiplier-heavy), histogram
/// (compare/mux-heavy).
struct Accelerators {
  hw::Module shapes[2] = {hw::Module("<empty>"), hw::Module("<empty>")};
};

/// HLS-builds both accelerator shapes; false if either flow fails.
bool build_accelerators(Accelerators& accel) {
  const apps::KernelSpec specs[2] = {apps::fir_kernel(8, 64),
                                     apps::histogram_kernel(128)};
  for (int i = 0; i < 2; ++i) {
    hls::FlowOptions options;
    options.top = specs[i].name;
    auto flow = hls::run_flow(specs[i].source, options);
    if (!flow.ok()) return false;
    accel.shapes[i] = std::move(flow.value().fsmd.module);
  }
  return true;
}

fault::NetlistSeuPlan campaign_plan(Rng& rng) {
  fault::NetlistSeuPlan plan;
  plan.replicas = kReplicas;
  plan.cycles_before = kWarmupCycles;
  plan.cycles_after = kObserveCycles;
  plan.base_seed = rng.next_u64();
  plan.inputs = {{"start", 1}};
  return plan;
}

struct Campaign {
  std::uint64_t index = 0;
  int shape = 0;
  fault::NetlistSeuPlan plan;
  std::uint64_t fingerprint = 0;
};

struct CampaignPass {
  std::vector<double> campaign_ms;
  std::uint64_t campaigns = 0;
  std::uint64_t failed = 0;
  std::uint64_t diverged = 0;
  double busy_s = 0.0;
};

/// The one closed-loop client: campaigns one after another on its pool,
/// drawn from a seeded stream (plan seeds, shape by index).
class CampaignClient {
 public:
  CampaignClient(const Accelerators& accel, ThreadPool& pool,
                 std::uint64_t seed)
      : accel_(accel),
        pool_(pool),
        rng_(seed ^ 0x5E0CA4AULL),
        oracle_rng_(seed ^ 0x0AC1E5ULL) {}

  const CampaignPass& pass() const { return pass_; }

  /// Runs the next campaign (one seu.campaign span when traced); may add it
  /// to the serial-oracle subsample.
  void run_one(RunResult& result, Tracer* tracer = nullptr,
               std::vector<Campaign>* oracle = nullptr) {
    Campaign campaign;
    campaign.index = pass_.campaigns;
    campaign.shape = static_cast<int>(campaign.index % 2);
    campaign.plan = campaign_plan(rng_);
    ScopedSpan unit(tracer, "seu.campaign", campaign.index);
    const Clock::time_point start = Clock::now();
    fault::NetlistSeuResult outcome;
    {
      ScopedSpan span(tracer, "fault.campaign", campaign.index);
      outcome = fault::run_netlist_seu_campaign_sliced(
          accel_.shapes[campaign.shape], campaign.plan, &pool_);
    }
    const double ms = ms_between(start, Clock::now());
    pass_.campaign_ms.push_back(ms);
    pass_.busy_s += ms * 1e-3;
    ++pass_.campaigns;
    pass_.diverged += outcome.diverged;
    if (outcome.per_replica.size() != kReplicas) {
      ++pass_.failed;
      result.fail("campaign " + std::to_string(campaign.index) + " returned " +
                  std::to_string(outcome.per_replica.size()) + " replicas");
      return;
    }
    if (oracle != nullptr && oracle->size() < kOracleCap &&
        (oracle_rng_.next_below(kOracleEvery) == 0 || campaign.index == 0)) {
      campaign.fingerprint = fault::fingerprint(outcome);
      oracle->push_back(campaign);
    }
  }

  void run(std::uint64_t campaigns, RunResult& result) {
    for (std::uint64_t c = 0; c < campaigns; ++c) run_one(result);
  }

 private:
  const Accelerators& accel_;
  ThreadPool& pool_;
  Rng rng_;
  Rng oracle_rng_;
  CampaignPass pass_;
};

/// Untimed differential oracle: the serial runner must fingerprint-equal
/// the sliced engine's result for each sampled campaign.
void check_oracle(const Accelerators& accel, ThreadPool& pool,
                  std::vector<Campaign>& oracle, bool corrupt,
                  RunResult& result) {
  if (corrupt && !oracle.empty()) oracle.front().fingerprint ^= 1;
  for (const Campaign& campaign : oracle) {
    const fault::NetlistSeuResult serial = fault::run_netlist_seu_campaign(
        accel.shapes[campaign.shape], campaign.plan, &pool);
    if (fault::fingerprint(serial) != campaign.fingerprint) {
      ++result.failed;
      result.fail("campaign " + std::to_string(campaign.index) +
                  " differs from the serial oracle");
    }
  }
}

double median_window_rate(const std::vector<double>& campaign_ms) {
  std::vector<double> rates;
  for (std::size_t w = 0; w + kWindowCampaigns <= campaign_ms.size();
       w += kWindowCampaigns) {
    double ms = 0.0;
    for (std::size_t c = w; c < w + kWindowCampaigns; ++c) ms += campaign_ms[c];
    rates.push_back(static_cast<double>(kWindowCampaigns * kReplicas) /
                    (ms * 1e-3));
  }
  return median(rates);
}

RunResult run_timed(const Options& options) {
  RunResult result;
  // Set-up: HLS-build both shapes, start the pool and run one warm-up
  // campaign per shape so the timed loop starts at speed.
  std::vector<double> setup_s;
  std::unique_ptr<Accelerators> accel;
  std::unique_ptr<ThreadPool> pool;
  for (int i = 0; i < kSetupRepeats; ++i) {
    accel.reset();
    pool.reset();
    const Clock::time_point start = Clock::now();
    accel = std::make_unique<Accelerators>();
    const bool ok = build_accelerators(*accel);
    pool = std::make_unique<ThreadPool>(kThreads - 1);
    RunResult warmup;
    if (ok) CampaignClient(*accel, *pool, options.seed).run(2, warmup);
    setup_s.push_back(seconds_since(start));
    if (!ok || warmup.failed > 0) {
      result.fail("accelerator HLS build or warm-up campaign failed");
      result.attempted = result.failed = 1;
      return result;
    }
  }
  result.put("setup_s", median(setup_s), "s");

  CampaignClient client(*accel, *pool, options.seed);
  std::vector<Campaign> oracle;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < options.seconds) {
    client.run_one(result, nullptr, &oracle);
  }
  const CampaignPass& pass = client.pass();
  result.attempted = pass.campaigns;
  result.failed = pass.failed;
  check_oracle(*accel, *pool, oracle, options.corrupt_oracle, result);

  result.put("throughput", median_window_rate(pass.campaign_ms), "1/s");
  result.note("throughput counts SEU replicas per second (median over "
              "windows of 8 campaigns)");
  result.put_latency("one 4032-replica campaign", pass.campaign_ms);
  result.put("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[200];
  std::snprintf(line, sizeof(line),
                "%llu campaigns x %zu replicas, %llu diverged; serial-oracle "
                "subsample %zu",
                static_cast<unsigned long long>(pass.campaigns), kReplicas,
                static_cast<unsigned long long>(pass.diverged), oracle.size());
  result.note(line);
  return result;
}

/// `steps` public step() calls under one span named `name`.
template <typename Sim>
void run_steps(Tracer& tracer, const char* name, Sim& sim,
               std::uint64_t steps) {
  sim.set_input("start", 1);
  ScopedSpan span(&tracer, name);
  for (std::uint64_t i = 0; i < steps; ++i) sim.step();
}

RunResult run_traced(const Options& options) {
  RunResult result;
  Accelerators accel;
  if (!build_accelerators(accel)) {
    result.fail("accelerator HLS build failed");
    result.attempted = result.failed = 1;
    return result;
  }
  // Fixed, seed-determined work so every count repeats exactly.
  const std::uint64_t campaigns = std::max<std::uint64_t>(
      32, static_cast<std::uint64_t>(16 * options.seconds));
  Tracer tracer;
  ThreadPool pool(kThreads - 1);
  {
    RunResult warmup;  // untimed: spins up the pool and faults in memory
    CampaignClient client(accel, pool, options.seed);
    client.run(4, warmup);
  }

  // An untraced and a traced client over the same campaigns, alternating so
  // slow drift of the host hits both alike.
  CampaignClient plain(accel, pool, options.seed);
  CampaignClient traced_client(accel, pool, options.seed);
  std::vector<Campaign> oracle;
  for (std::uint64_t c = 0; c < campaigns; ++c) {
    plain.run_one(result);
    traced_client.run_one(result, &tracer, &oracle);
  }
  const CampaignPass& untraced = plain.pass();
  const CampaignPass& traced = traced_client.pass();
  result.attempted = untraced.campaigns + traced.campaigns;
  result.failed = untraced.failed + traced.failed;
  if (untraced.diverged != traced.diverged) {
    result.fail("two passes over the same campaigns diverged differently");
  }
  check_oracle(accel, pool, oracle, options.corrupt_oracle, result);
  put_trace_summary(result, tracer, "seu.campaign", untraced.busy_s,
                    traced.busy_s);
  result.put("fault.campaign_ms",
             tracer.totals().at("fault.campaign").total_ms /
                 static_cast<double>(traced.campaigns),
             "ms");
  result.put("fault.batches",
             static_cast<double>(traced.campaigns *
                                 fault::batch_count(kReplicas)),
             "count");
  result.put("fault.diverged", static_cast<double>(traced.diverged), "count");

  // Engine costs on the same modules, through public constructors/step().
  constexpr int kBuilds = 16;
  constexpr std::uint64_t kSteps = 4096;
  for (const hw::Module& module : accel.shapes) {
    for (int i = 0; i < kBuilds; ++i) {
      std::unique_ptr<hw::SlicedSimulator> sim;
      {
        ScopedSpan span(&tracer, "hw.sliced_build");
        sim = std::make_unique<hw::SlicedSimulator>(module);
      }
      if (!sim->status().ok()) result.fail("SlicedSimulator construction failed");
    }
    hw::SlicedSimulator sliced(module);
    run_steps(tracer, "hw.sliced_step", sliced, kSteps);
    hw::Simulator event(module, {hw::SimBackend::kEvent});
    run_steps(tracer, "hw.event_step", event, kSteps);
    hw::Simulator jit(module, {hw::SimBackend::kJit});
    run_steps(tracer, "hw.jit_step", jit, kSteps);
    if (jit.active_backend() != hw::SimBackend::kJit) {
      result.note("JIT unavailable: hw.jit_step_ns measured the fallback");
    }
  }
  const auto totals = tracer.totals();
  const auto per_call_ms = [&](const char* span) {
    const SpanTotals& t = totals.at(span);
    return t.total_ms / static_cast<double>(t.calls);
  };
  result.put("hw.sliced_build_ms", per_call_ms("hw.sliced_build"), "ms");
  result.put("hw.sliced_step_ns", per_call_ms("hw.sliced_step") * 1e6 / kSteps,
             "ns");
  result.put("hw.event_step_ns", per_call_ms("hw.event_step") * 1e6 / kSteps,
             "ns");
  result.put("hw.jit_step_ns", per_call_ms("hw.jit_step") * 1e6 / kSteps, "ns");

  // Measured pool scaling: replicas/s at 1, 2 and 4 threads, same campaigns.
  const std::uint64_t scaling_campaigns = std::max<std::uint64_t>(4, campaigns / 2);
  double rate[5] = {};
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool scaled(threads - 1);
    CampaignClient client(accel, scaled, options.seed);
    client.run(scaling_campaigns, result);
    const CampaignPass& pass = client.pass();
    rate[threads] =
        static_cast<double>(pass.campaigns * kReplicas) / pass.busy_s;
    result.attempted += pass.campaigns;
    result.failed += pass.failed;
  }
  result.put("fault.pool_speedup_2", rate[2] / rate[1], "x");
  result.put("fault.pool_speedup_4", rate[4] / rate[1], "x");
  char line[200];
  std::snprintf(line, sizeof(line),
                "scaling base: %.1f replicas/s at 1 thread, %.1f at 2, %.1f "
                "at 4",
                rate[1], rate[2], rate[4]);
  result.note(line);

  if (!options.trace_file.empty() &&
      !tracer.write_chrome_json(options.trace_file, environment())) {
    result.fail("could not write " + options.trace_file);
  }
  return result;
}

}  // namespace

RunResult run_seu_campaign(const Options& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace perfbench
