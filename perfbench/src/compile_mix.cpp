// compile_mix: the tenant's C -> bitstream path through svc::CompileService.
//
// Closed loop, one client: submit a batch of kBatch requests (tenants
// alpha:beta:gamma weighted 2:1:1), drain the service, then send the next.
// The seeded job stream: each batch holds three repeats of earlier requests
// (the FlowCache hit path) and five fresh compiles — three source-level jobs
// from the five apps kernel families and two netlist-level jobs from random
// designs. Repeats only reference requests of earlier batches, and
// every fresh request is a distinct compile, so the cache counters are exact
// functions of the stream (no in-flight race decides hit vs wait).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/kernels.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "frontend/parser.hpp"
#include "frontend/typecheck.hpp"
#include "hls/eucalyptus.hpp"
#include "hls/flow.hpp"
#include "hw/verilog.hpp"
#include "ir/cdfg.hpp"
#include "ir/lower.hpp"
#include "ir/passes.hpp"
#include "nxmap/flow.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using namespace hermes;

constexpr std::size_t kBatch = 8;
const char* const kTenantOfSlot[kBatch] = {"alpha", "beta", "alpha", "gamma",
                                           "alpha", "beta", "alpha", "gamma"};
/// Threads that execute jobs in the closed loop: the service pool's workers
/// plus the draining client thread. One vCPU of a 4-vCPU host is left to
/// everything else: with all four busy, any other runnable thread preempts
/// a worker and the whole batch waits for it, which made the tail a measure
/// of the host's scheduler. The traced run still measures 1, 2 and 4.
constexpr unsigned kThreads = 3;
/// Repeats reference one of the last kRepeatWindow fresh requests; the
/// cache budget keeps every artifact they need resident (LRU by last use),
/// so a repeat is always a full hit while resident memory stays bounded.
constexpr std::size_t kRepeatWindow = 24;
constexpr std::size_t kCacheBytes = 8ull << 20;
/// One fresh request in kOracleEvery joins the cold-oracle subsample.
constexpr std::uint64_t kOracleEvery = 24;
constexpr std::size_t kOracleCap = 32;
constexpr int kSetupRepeats = 9;
/// CompileService keeps every job's outcome (bitstream included) for
/// outcome(id), so a long-lived service grows without bound. The timed loop
/// starts a fresh service every kSessionBatches batches, outside the timed
/// batches, so peak memory is one session's and not the run length's.
constexpr std::size_t kSessionBatches = 64;
/// Batches per throughput window; jobs_per_s is the median window rate.
constexpr std::size_t kWindowBatches = 8;

/// A small random synchronous design: input ports, a first combinational
/// layer, a register stage, a second layer and output ports — acyclic by
/// construction, so every draw maps, places, routes and packs.
std::shared_ptr<hw::Module> random_netlist(Rng& rng, std::uint64_t id) {
  auto module = std::make_shared<hw::Module>("net" + std::to_string(id));
  hw::Module& m = *module;
  static const hw::CellKind kOps[] = {
      hw::CellKind::kAdd, hw::CellKind::kSub, hw::CellKind::kMul,
      hw::CellKind::kAnd, hw::CellKind::kOr,  hw::CellKind::kXor,
      hw::CellKind::kEq,  hw::CellKind::kLtU, hw::CellKind::kAdd};
  std::vector<hw::WireId> pool;
  const unsigned inputs = 2 + static_cast<unsigned>(rng.next_below(3));
  for (unsigned i = 0; i < inputs; ++i) {
    const std::string name = "in" + std::to_string(i);
    const hw::WireId wire =
        m.add_wire(4 + static_cast<unsigned>(rng.next_below(13)), name);
    m.add_input(wire, name);
    pool.push_back(wire);
  }
  const hw::WireId en = m.add_wire(1, "en");
  m.add_input(en, "en");
  const auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  const auto layer = [&](unsigned cells) {
    for (unsigned i = 0; i < cells; ++i) {
      const hw::CellKind kind = kOps[rng.next_below(std::size(kOps))];
      const bool compare =
          kind == hw::CellKind::kEq || kind == hw::CellKind::kLtU;
      const hw::WireId a = pick();
      const hw::WireId b = pick();
      hw::WireId out = m.make_binop(
          kind, a, b,
          compare ? 1 : 4 + static_cast<unsigned>(rng.next_below(13)));
      if (compare) out = m.make_mux(out, pick(), pick());
      pool.push_back(out);
    }
  };
  layer(8 + static_cast<unsigned>(rng.next_below(16)));
  const unsigned regs = 2 + static_cast<unsigned>(rng.next_below(5));
  for (unsigned i = 0; i < regs; ++i) {
    pool.push_back(m.make_register(pick(), en, rng.next_below(16),
                                   "r" + std::to_string(i)));
  }
  layer(8 + static_cast<unsigned>(rng.next_below(16)));
  const unsigned outputs = 2 + static_cast<unsigned>(rng.next_below(3));
  for (unsigned i = 0; i < outputs; ++i) {
    m.add_output(pool[pool.size() - 1 - i], "out" + std::to_string(i));
  }
  return module;
}

/// Source kernels. Sobel costs several times any other family (and more
/// with its frame size), so every batch carries exactly one fresh Sobel job
/// of a narrow size band: batch latency is then one mode, not a mixture
/// whose median jumps with the Sobel count.
apps::KernelSpec draw_kernel(Rng& rng, bool sobel) {
  const auto in = [&](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng.next_below(hi - lo + 1));
  };
  if (sobel) return apps::sobel_kernel(in(7, 8), in(7, 8));
  switch (rng.next_below(4)) {
    case 0: return apps::fir_kernel(in(3, 10), 8 * in(2, 6));
    case 1: return apps::dense_relu_kernel(in(3, 8), in(3, 8));
    case 2: return apps::matmul_kernel(in(2, 6));
    default: return apps::histogram_kernel(8 * in(2, 16));
  }
}

/// What each slot of a batch carries, before the per-batch shuffle: three
/// repeats, one Sobel, two other source kernels, two random netlists.
enum class SlotKind { kRepeat, kSobel, kSource, kNetlist };
constexpr SlotKind kBatchShape[] = {
    SlotKind::kRepeat, SlotKind::kRepeat, SlotKind::kRepeat,
    SlotKind::kSobel,  SlotKind::kSource, SlotKind::kSource,
    SlotKind::kNetlist, SlotKind::kNetlist};

struct StreamJob {
  svc::CompileRequest request;
  std::size_t fresh_index = 0;  ///< this request's fresh id, or its origin's
  bool repeat = false;
};

/// The seeded job stream. Deterministic in (seed, batch number).
class JobStream {
 public:
  explicit JobStream(std::uint64_t seed) : rng_(seed ^ 0xC0311A5EULL) {}

  std::vector<StreamJob> next_batch() {
    std::vector<StreamJob> batch;
    std::vector<std::size_t> fresh_ids;
    const std::size_t resident = std::min(window_.size(), kRepeatWindow);
    SlotKind shape[kBatch];
    std::copy(std::begin(kBatchShape), std::end(kBatchShape), shape);
    for (std::size_t i = kBatch - 1; i > 0; --i) {
      std::swap(shape[i], shape[rng_.next_below(i + 1)]);
    }
    for (std::size_t slot = 0; slot < kBatch; ++slot) {
      StreamJob job;
      if (shape[slot] == SlotKind::kRepeat && resident > 0) {
        const std::size_t pick =
            window_[window_.size() - 1 - rng_.next_below(resident)];
        job.request = requests_[pick];
        job.fresh_index = pick;
        job.repeat = true;
      } else {
        job.request = fresh(shape[slot]);
        job.fresh_index = requests_.size();
        requests_.push_back(job.request);
        fresh_ids.push_back(job.fresh_index);
      }
      job.request.tenant = kTenantOfSlot[slot];
      batch.push_back(std::move(job));
    }
    // Only requests of finished batches may be repeated.
    window_.insert(window_.end(), fresh_ids.begin(), fresh_ids.end());
    if (window_.size() > kRepeatWindow) {
      for (std::size_t i = 0; i + kRepeatWindow < window_.size(); ++i) {
        requests_[window_[i]] = {};  // drop requests no repeat can reach
      }
      window_.erase(window_.begin(),
                    window_.end() - static_cast<std::ptrdiff_t>(kRepeatWindow));
    }
    return batch;
  }

  [[nodiscard]] std::size_t fresh_count() const { return requests_.size(); }

  /// A new service session: nothing earlier is cached, so nothing earlier
  /// may be repeated.
  void new_session() {
    for (const std::size_t id : window_) requests_[id] = {};
    window_.clear();
  }

 private:
  svc::CompileRequest fresh(SlotKind kind) {
    const std::uint64_t id = requests_.size();
    svc::CompileRequest request;
    // Distinct placement seeds make every fresh map/bitstream key distinct.
    request.backend.place.seed = (rng_.next_u64() << 20) | id;
    if (kind == SlotKind::kNetlist) {
      request.module = random_netlist(rng_, id);
      request.characterize = false;
      return request;
    }
    for (;;) {
      apps::KernelSpec spec = draw_kernel(rng_, kind == SlotKind::kSobel);
      request.source = std::move(spec.source);
      request.flow.top = std::move(spec.name);
      request.flow.constraints.clock_period_ns = 4.0 + 8.0 * rng_.next_double();
      request.flow.constraints.multipliers =
          1 + static_cast<unsigned>(rng_.next_below(3));
      if (schedule_keys_
              .insert(svc::schedule_key(request.source, request.flow))
              .second) {
        return request;
      }
    }
  }

  Rng rng_;
  std::vector<svc::CompileRequest> requests_;  ///< by fresh id (old: cleared)
  std::vector<std::size_t> window_;            ///< repeatable fresh ids
  std::unordered_set<std::uint64_t> schedule_keys_;
};

svc::ServiceOptions service_options(unsigned threads) {
  svc::ServiceOptions options;
  options.workers = threads - 1;
  options.cache_bytes = kCacheBytes;
  return options;
}

/// Builds a service and warms the per-target Eucalyptus characterization
/// with one request outside the job stream; cache counters start at zero.
std::unique_ptr<svc::CompileService> make_service(
    svc::ServiceOptions options) {
  auto service = std::make_unique<svc::CompileService>(std::move(options));
  service->set_tenant_weight("alpha", 2);
  service->set_tenant_weight("beta", 1);
  service->set_tenant_weight("gamma", 1);
  const apps::KernelSpec spec = apps::histogram_kernel(16);
  svc::CompileRequest warm;
  warm.tenant = "alpha";
  warm.source = spec.source;
  warm.flow.top = spec.name;
  warm.flow.constraints.clock_period_ns = 3.0;  // outside the stream's grid
  const svc::CompileOutcome outcome = service->run({warm})[0];
  if (!outcome.status.ok()) return nullptr;
  service->cache().reset_stats();
  return service;
}

/// Cold reference outside the service: hls::run_flow + nx::run_backend,
/// folded into the same artifact fingerprint the service computes.
std::uint64_t cold_fingerprint(const svc::CompileRequest& request,
                               std::size_t characterization_points) {
  svc::CompileOutcome reference;
  const hw::Module* module = request.module.get();
  hls::FlowResult flow;
  if (!request.source.empty()) {
    auto made = hls::run_flow(request.source, request.flow);
    if (!made.ok()) return 0;
    flow = made.take();
    module = &flow.fsmd.module;
    reference.characterization_points = characterization_points;
    reference.fsm_states = flow.fsm_states;
  }
  auto backend = nx::run_backend(*module, nx::make_device(request.flow.target),
                                 request.backend);
  if (!backend.ok()) return 0;
  reference.netlist_digest = module->digest();
  reference.timing = backend.value().timing;
  reference.power_total_mw = backend.value().power.total_mw;
  reference.bitstream = std::move(backend.value().bitstream);
  return reference.fingerprint();
}

/// Client-side checks of one drained batch: status, bitstream verification
/// and repeat == first-occurrence fingerprint. Returns the failures.
std::uint64_t check_batch(const std::vector<StreamJob>& batch,
                          const std::vector<svc::CompileOutcome>& outcomes,
                          std::vector<std::uint64_t>& fingerprints,
                          RunResult& result) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const svc::CompileOutcome& outcome = outcomes[i];
    const StreamJob& job = batch[i];
    if (!outcome.status.ok()) {
      ++failed;
      result.fail("job " + std::to_string(outcome.job_id) + ": " +
                  outcome.status.to_string());
      continue;
    }
    if (!nx::verify_bitstream(outcome.bitstream).ok()) {
      ++failed;
      result.fail("job " + std::to_string(outcome.job_id) +
                  " produced a bitstream that fails verify_bitstream");
      continue;
    }
    const std::uint64_t fingerprint = outcome.fingerprint();
    if (!job.repeat) {
      if (fingerprints.size() <= job.fresh_index) {
        fingerprints.resize(job.fresh_index + 1, 0);
      }
      fingerprints[job.fresh_index] = fingerprint;
    } else if (fingerprints[job.fresh_index] != fingerprint) {
      ++failed;
      result.fail("repeat of request " + std::to_string(job.fresh_index) +
                  " fingerprints differently from its first occurrence");
    }
  }
  return failed;
}

struct BatchPass {
  std::vector<double> batch_ms;
  std::uint64_t jobs = 0;
  std::uint64_t repeats_not_hit = 0;  ///< repeats that missed a stage
  std::uint64_t failed = 0;
  double busy_s = 0.0;  ///< summed batch walls (client checks excluded)
};

/// The one closed-loop client: its service, its job stream and the
/// first-occurrence fingerprints its repeats are checked against.
class BatchClient {
 public:
  BatchClient(std::unique_ptr<svc::CompileService> service, std::uint64_t seed)
      : service_(std::move(service)), stream_(seed) {}

  [[nodiscard]] bool ready() const { return service_ != nullptr; }
  svc::CompileService& service() { return *service_; }
  const BatchPass& pass() const { return pass_; }
  const JobStream& stream() const { return stream_; }
  std::vector<std::uint64_t>& fingerprints() { return fingerprints_; }

  /// Submits one batch, drains it, checks it; returns the batch's jobs.
  /// With a tracer the batch is one svc.batch span and each job's submit
  /// time lands in `submitted` (indexed by job id).
  std::vector<StreamJob> run_one(RunResult& result, Tracer* tracer = nullptr,
                                 std::vector<Clock::time_point>* submitted =
                                     nullptr) {
    std::vector<StreamJob> batch = stream_.next_batch();
    const std::uint64_t number = pass_.batch_ms.size();
    const Clock::time_point start = Clock::now();
    std::vector<svc::CompileOutcome> outcomes;
    {
      ScopedSpan span(tracer, "svc.batch", number);
      std::vector<std::uint64_t> ids;
      for (const StreamJob& job : batch) {
        ids.push_back(service_->submit(job.request));
        if (submitted != nullptr) {
          submitted->resize(ids.back() + 1);
          (*submitted)[ids.back()] = Clock::now();
        }
      }
      service_->drain();
      for (const std::uint64_t id : ids) {
        outcomes.push_back(service_->outcome(id));
      }
    }
    const double ms = ms_between(start, Clock::now());
    pass_.batch_ms.push_back(ms);
    pass_.busy_s += ms * 1e-3;
    pass_.jobs += batch.size();
    pass_.failed += check_batch(batch, outcomes, fingerprints_, result);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].repeat) continue;
      for (const svc::StageTrace& stage : outcomes[i].stages) {
        if (!stage.hit) {
          ++pass_.repeats_not_hit;
          break;
        }
      }
    }
    return batch;
  }

  /// Continues the stream on a fresh service from `make`, releasing the
  /// old one first.
  template <typename Make>
  void new_session(Make make) {
    service_.reset();
    service_ = make();
    stream_.new_session();
  }

  /// Runs `batches` batches.
  void run(std::uint64_t batches, RunResult& result) {
    for (std::uint64_t b = 0; b < batches; ++b) (void)run_one(result);
  }

 private:
  std::unique_ptr<svc::CompileService> service_;
  JobStream stream_;
  std::vector<std::uint64_t> fingerprints_;
  BatchPass pass_;
};

// ---------------------------------------------------------------------------
// Traced replay: one cold job through the flow's public stage functions.
// ---------------------------------------------------------------------------

struct ReplayCounts {
  std::uint64_t instrs_removed = 0;
  std::uint64_t jobs = 0;
};

/// Replays `request` stage by stage under spans; returns the artifact
/// fingerprint (0 on any stage failure).
std::uint64_t replay_job(const svc::CompileRequest& request,
                         std::size_t characterization_points, Tracer& tracer,
                         std::uint64_t id, ReplayCounts& counts) {
  ScopedSpan job_span(&tracer, "job.replay", id);
  svc::CompileOutcome out;
  hw::Module module("<empty>");
  if (!request.source.empty()) {
    Result<fe::Program> program = Status::Error(ErrorCode::kInternal, "");
    {
      ScopedSpan s(&tracer, "frontend.parse", id);
      program = fe::parse(request.source);
    }
    if (!program.ok()) return 0;
    {
      ScopedSpan s(&tracer, "frontend.typecheck", id);
      if (!fe::typecheck(program.value()).ok()) return 0;
    }
    Result<ir::Function> lowered = Status::Error(ErrorCode::kInternal, "");
    {
      ScopedSpan s(&tracer, "ir.lower", id);
      ir::LowerOptions lower_options;
      lower_options.unroll_limit = request.flow.unroll_limit;
      lowered = ir::lower(program.value(), request.flow.top, lower_options);
    }
    if (!lowered.ok()) return 0;
    ir::Function function = lowered.take();
    const std::size_t before = function.instr_count();
    {
      ScopedSpan s(&tracer, "ir.passes", id);
      (void)ir::run_pipeline(function);  // every stream job runs it
      (void)ir::summarize_cdfg(function);
    }
    counts.instrs_removed += before - function.instr_count();
    Result<hls::Schedule> schedule = Status::Error(ErrorCode::kInternal, "");
    {
      ScopedSpan s(&tracer, "hls.schedule", id);
      const hls::TechLibrary lib(request.flow.target);
      schedule = hls::schedule(function, lib, request.flow.constraints);
    }
    if (!schedule.ok()) return 0;
    hls::Binding binding;
    {
      ScopedSpan s(&tracer, "hls.bind", id);
      binding = hls::bind(function, schedule.value());
    }
    Result<hls::FsmdResult> fsmd = Status::Error(ErrorCode::kInternal, "");
    {
      ScopedSpan s(&tracer, "hls.fsmd", id);
      fsmd = hls::generate_fsmd(function, schedule.value(), binding);
    }
    if (!fsmd.ok()) return 0;
    {
      ScopedSpan s(&tracer, "hls.verilog", id);
      const std::string verilog = hw::emit_verilog(fsmd.value().module);
      if (verilog.empty()) return 0;
    }
    out.characterization_points = characterization_points;
    out.fsm_states = fsmd.value().num_states;
    module = std::move(fsmd.value().module);
  } else {
    module = *request.module;
  }
  out.netlist_digest = module.digest();

  const nx::NxDevice device = nx::make_device(request.flow.target);
  hw::Module synthesized("<empty>");
  {
    ScopedSpan s(&tracer, "nxmap.synth", id);
    synthesized = module;
    hw::sweep_dead_cells(synthesized);
  }
  Result<nx::MappedDesign> mapped = Status::Error(ErrorCode::kInternal, "");
  {
    ScopedSpan s(&tracer, "nxmap.techmap", id);
    mapped = nx::techmap(synthesized, device);
  }
  if (!mapped.ok()) return 0;
  nx::Placement placement;
  {
    ScopedSpan s(&tracer, "nxmap.place", id);
    placement = nx::place(synthesized, mapped.value(), device,
                          request.backend.place);
  }
  nx::Routing routing;
  {
    ScopedSpan s(&tracer, "nxmap.route", id);
    routing = nx::route(synthesized, mapped.value(), placement, device,
                        request.backend.route);
  }
  Result<nx::TimingReport> timing = Status::Error(ErrorCode::kInternal, "");
  {
    ScopedSpan s(&tracer, "nxmap.sta", id);
    timing = nx::analyze_timing(synthesized, mapped.value(), routing, device,
                                request.backend.target_period_ns);
  }
  if (!timing.ok()) return 0;
  nx::PowerReport power;
  {
    ScopedSpan s(&tracer, "nxmap.power", id);
    power = nx::estimate_power(mapped.value(), device,
                               timing.value().fmax_mhz);
  }
  {
    ScopedSpan s(&tracer, "nxmap.pack", id);
    out.bitstream =
        nx::pack_bitstream(synthesized, mapped.value(), placement, device);
    if (!nx::verify_bitstream(out.bitstream).ok()) return 0;
  }
  out.timing = timing.value();
  out.power_total_mw = power.total_mw;
  ++counts.jobs;
  return out.fingerprint();
}

std::size_t sweep_points() {
  const svc::ServiceOptions defaults;
  return defaults.sweep.ops.size() * defaults.sweep.widths.size() *
         defaults.sweep.pipeline_stages.size() *
         defaults.sweep.clock_periods_ns.size();
}

// ---------------------------------------------------------------------------
// Untraced, time-bounded run: the end-to-end metrics.
// ---------------------------------------------------------------------------

RunResult run_timed(const Options& options) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<svc::CompileService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    const Clock::time_point start = Clock::now();
    service = make_service(service_options(kThreads));
    setup_s.push_back(seconds_since(start));
    if (service == nullptr) {
      result.fail("warm-up compile failed");
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
  }
  result.put("setup_s", median(setup_s), "s");

  BatchClient client(std::move(service), options.seed);
  std::vector<StreamJob> oracle;
  Rng oracle_rng(options.seed ^ 0x0AC1E5ULL);
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < options.seconds) {
    const std::size_t done = client.pass().batch_ms.size();
    if (done > 0 && done % kSessionBatches == 0) {
      client.new_session([] { return make_service(service_options(kThreads)); });
      if (!client.ready()) {
        result.fail("warm-up compile failed");
        break;
      }
    }
    for (StreamJob& job : client.run_one(result)) {
      if (!job.repeat && oracle.size() < kOracleCap &&
          oracle_rng.next_below(kOracleEvery) == 0) {
        oracle.push_back(std::move(job));
      }
    }
  }
  const BatchPass& pass = client.pass();
  std::vector<std::uint64_t>& fingerprints = client.fingerprints();
  result.attempted = pass.jobs;
  result.failed = pass.failed;

  // Untimed oracle: a seeded subsample recompiled cold outside the service.
  if (options.corrupt_oracle && !oracle.empty()) {
    fingerprints[oracle.front().fresh_index] ^= 1;
  }
  for (const StreamJob& job : oracle) {
    if (cold_fingerprint(job.request, sweep_points()) !=
        fingerprints[job.fresh_index]) {
      ++result.failed;
      result.fail("request " + std::to_string(job.fresh_index) +
                  " differs from its independent cold compile");
    }
  }
  // Median over fixed windows of batches: a burst of host interference
  // moves a few windows, not the reported rate.
  std::vector<double> window_rates;
  for (std::size_t w = 0; w + kWindowBatches <= pass.batch_ms.size();
       w += kWindowBatches) {
    double ms = 0.0;
    for (std::size_t b = w; b < w + kWindowBatches; ++b) ms += pass.batch_ms[b];
    window_rates.push_back(static_cast<double>(kWindowBatches * kBatch) /
                           (ms * 1e-3));
  }
  result.put("throughput", median(window_rates), "1/s");
  result.note("throughput counts compile jobs per second (median over "
              "windows of 8 batches)");
  result.put_latency("one batch of 8 jobs, submit to drained",
                     pass.batch_ms);
  result.put("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[256];
  std::snprintf(line, sizeof(line),
                "%llu jobs in %zu batches, %zu fresh; cold-oracle subsample "
                "%zu; repeats not fully hit %llu",
                static_cast<unsigned long long>(pass.jobs),
                pass.batch_ms.size(), client.stream().fresh_count(),
                oracle.size(),
                static_cast<unsigned long long>(pass.repeats_not_hit));
  result.note(line);
  return result;
}

// ---------------------------------------------------------------------------
// Traced run: fixed work, per-layer attribution and pool scaling.
// ---------------------------------------------------------------------------

RunResult run_traced(const Options& options) {
  RunResult result;
  // Fixed, seed-determined work so every count repeats exactly.
  const std::uint64_t batches = std::max<std::uint64_t>(
      8, static_cast<std::uint64_t>(4 * options.seconds));
  Tracer tracer;
  {
    // Untimed warm-up: faults in the allocator and the pools.
    RunResult warmup;
    BatchClient client(make_service(service_options(kThreads)), options.seed);
    client.run(4, warmup);
  }

  // Characterization cost (the set-up warm-up), replayed under a span.
  {
    const svc::ServiceOptions defaults;
    ThreadPool inline_pool(0);
    ScopedSpan span(&tracer, "hls.characterize");
    const hls::TechLibrary lib(hls::FlowOptions().target);
    const auto points = hls::run_sweep(lib, defaults.sweep, &inline_pool);
    if (hls::to_xml(lib.target(), points).empty()) {
      result.fail("empty characterization");
    }
  }

  // An untraced and a traced client over the same stream, batches
  // alternating between them so slow drift of the host hits both alike.
  std::mutex wait_mutex;
  std::vector<Clock::time_point> first_stage;
  std::vector<bool> seen;
  svc::ServiceOptions traced_options = service_options(kThreads);
  traced_options.stage_hook = [&](std::uint64_t job, const svc::CompileRequest&,
                                  svc::Stage) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(wait_mutex);
    if (job >= seen.size()) {
      seen.resize(job + 1, false);
      first_stage.resize(job + 1);
    }
    if (!seen[job]) {
      seen[job] = true;
      first_stage[job] = now;
    }
  };
  BatchClient plain(make_service(service_options(kThreads)), options.seed);
  BatchClient traced(make_service(traced_options), options.seed);
  if (!plain.ready() || !traced.ready()) {
    result.fail("warm-up compile failed");
    result.attempted = result.failed = 1;
    return result;
  }
  {
    // The warm-up job (id 0) is set-up, not workload.
    std::lock_guard<std::mutex> lock(wait_mutex);
    seen.assign(1, true);
    first_stage.assign(1, Clock::now());
  }
  std::vector<StreamJob> cold_jobs;
  std::vector<Clock::time_point> submitted;
  for (std::uint64_t b = 0; b < batches; ++b) {
    (void)plain.run_one(result);
    for (StreamJob& job : traced.run_one(result, &tracer, &submitted)) {
      if (!job.repeat) cold_jobs.push_back(std::move(job));
    }
  }
  result.attempted += plain.pass().jobs + traced.pass().jobs;
  result.failed += plain.pass().failed + traced.pass().failed;
  const std::vector<std::uint64_t>& fingerprints = traced.fingerprints();

  const svc::FlowCacheStats stats = traced.service().cache().stats();
  result.put("svc.hits", static_cast<double>(stats.hits), "count");
  result.put("svc.misses", static_cast<double>(stats.misses), "count");
  result.put("svc.computes", static_cast<double>(stats.computes), "count");
  result.put("svc.inflight_waits", static_cast<double>(stats.inflight_waits),
             "count");
  const std::uint64_t lookups =
      stats.hits + stats.misses + stats.inflight_waits;
  result.put("svc.hit_ratio",
             static_cast<double>(stats.hits) / static_cast<double>(lookups),
             "ratio");
  result.note("svc.hit_ratio base: " + std::to_string(stats.hits) +
              " hits over " + std::to_string(lookups) +
              " stage lookups (hits + misses + inflight_waits)");
  double wait_ms = 0.0;
  std::size_t waited = 0;
  for (std::size_t id = 1; id < submitted.size() && id < first_stage.size();
       ++id) {
    if (!seen[id]) continue;
    wait_ms += ms_between(submitted[id], first_stage[id]);
    ++waited;
  }
  result.put("svc.queue_wait_ms", waited > 0 ? wait_ms / waited : 0.0, "ms");

  // Replay every cold job of the traced pass through the stage functions.
  ReplayCounts counts;
  for (const StreamJob& job : cold_jobs) {
    const std::uint64_t fp = replay_job(job.request, sweep_points(), tracer,
                                        job.fresh_index, counts);
    std::uint64_t expected = fingerprints[job.fresh_index];
    if (options.corrupt_oracle && &job == &cold_jobs.front()) expected ^= 1;
    if (fp != expected) {
      ++result.failed;
      result.fail("replay of request " + std::to_string(job.fresh_index) +
                  " differs from the service's artifact");
    }
  }
  const auto totals = tracer.totals();
  const double replayed = static_cast<double>(std::max<std::uint64_t>(
      counts.jobs, 1));
  for (const char* stage :
       {"frontend.parse", "frontend.typecheck", "ir.lower", "ir.passes",
        "hls.schedule", "hls.bind", "hls.fsmd", "hls.verilog", "nxmap.synth",
        "nxmap.techmap", "nxmap.place", "nxmap.route", "nxmap.sta",
        "nxmap.power", "nxmap.pack"}) {
    const auto it = totals.find(stage);
    result.put(std::string(stage) + "_ms",
               it == totals.end() ? 0.0 : it->second.self_ms / replayed, "ms");
  }
  result.put("ir.instrs_removed", static_cast<double>(counts.instrs_removed),
             "count");
  result.put("hls.characterize_ms", totals.at("hls.characterize").total_ms,
             "ms");
  // Coverage: the share of each replayed job's wall its stage spans cover.
  put_trace_summary(result, tracer, "job.replay", plain.pass().busy_s,
                    traced.pass().busy_s);

  // Measured pool scaling: jobs/s at 1, 2 and 4 threads on identical work.
  double jobs_per_s[5] = {};
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchClient scaled(make_service(service_options(threads)), options.seed);
    scaled.run(batches, result);
    const BatchPass& pass = scaled.pass();
    jobs_per_s[threads] = static_cast<double>(pass.jobs) / pass.busy_s;
    result.attempted += pass.jobs;
    result.failed += pass.failed;
  }
  result.put("svc.pool_speedup_2", jobs_per_s[2] / jobs_per_s[1], "x");
  result.put("svc.pool_speedup_4", jobs_per_s[4] / jobs_per_s[1], "x");
  char line[200];
  std::snprintf(line, sizeof(line),
                "scaling base: %.3f jobs/s at 1 thread, %.3f at 2, %.3f at 4",
                jobs_per_s[1], jobs_per_s[2], jobs_per_s[4]);
  result.note(line);

  if (!options.trace_file.empty() &&
      !tracer.write_chrome_json(options.trace_file, environment())) {
    result.fail("could not write " + options.trace_file);
  }
  return result;
}

}  // namespace

RunResult run_compile_mix(const Options& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace perfbench
