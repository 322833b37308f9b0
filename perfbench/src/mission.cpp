// mission: the integrator/operator path — boot, supervise, fly, recover.
//
// Closed loop: kStreams episode streams side by side, each one thread
// running one episode after another. Each episode
//  1. stages flash (BL1, a load list, the set-up-compiled vision-accelerator
//     bitstream and a BL2 image) with seeded bit flips in one TMR replica,
//     then runs boot::run_boot_chain;
//  2. attaches an FdirSupervisor to the Soc, the hypervisor and the crossbar
//     and takes a checkpoint;
//  3. runs the SELENE AOCS/VBN/EOR plan on hv::Hypervisor. Every VBN job
//     runs one camera frame through the Sobel accelerator on a held
//     hw::Simulator; every AOCS job (once per major frame) carries that
//     frame's camera and telemetry beats across a noc::Crossbar;
//  4. mid-episode arms an efpga.config.rot storm: the scrub detects it, the
//     supervisor rolls back, and the second half of the mission runs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/aocs.hpp"
#include "apps/eor.hpp"
#include "apps/kernels.hpp"
#include "apps/vbn.hpp"
#include "bench.hpp"
#include "boot/bl.hpp"
#include "boot/loadlist.hpp"
#include "common/rng.hpp"
#include "fdir/supervisor.hpp"
#include "hls/flow.hpp"
#include "hls/testbench.hpp"
#include "hv/hypervisor.hpp"
#include "hw/sim.hpp"
#include "fault/campaign.hpp"
#include "ir/interp.hpp"
#include "noc/noc.hpp"
#include "noc/workload.hpp"
#include "nxmap/flow.hpp"
#include "svc/job.hpp"

namespace perfbench {
namespace {

using namespace hermes;

constexpr unsigned kFrameSide = 8;
constexpr std::size_t kReferenceFrames = 8;
/// Simulated mission time per half episode (the storm strikes between).
constexpr hv::Time kHalfMission = 500'000;  // 0.5 s
constexpr unsigned kFlashBitflips = 4096;
constexpr int kSetupRepeats = 9;
/// One episode in kReplayEvery is re-run untimed with its seed; both runs
/// must fingerprint identically.
constexpr std::uint64_t kReplayEvery = 16;
/// Episode streams of the closed loop, each on its own thread with its own
/// accelerator simulator. A single stream's rate moved with whatever shared
/// its core (30% between runs of the same code); three streams on three of
/// the four vCPUs average that out, leaving one vCPU to everything else (see
/// kThreads in compile_mix.cpp). The traced run is one stream.
constexpr unsigned kStreams = 3;
constexpr hv::PartitionId kAocs = 0, kVbn = 1, kEor = 2, kSystem = 3;

/// Everything set-up builds once: the accelerator, its bitstream, the
/// reference frames with their co-simulated outputs, and the boot media.
/// Not movable: `accel` refers to the module inside `flow`.
struct MissionSetup {
  MissionSetup() = default;
  MissionSetup(const MissionSetup&) = delete;
  MissionSetup& operator=(const MissionSetup&) = delete;

  hls::FlowResult flow;
  std::vector<std::uint8_t> bitstream;
  std::vector<std::vector<std::uint64_t>> frames;   ///< camera input images
  std::vector<std::vector<std::uint64_t>> expected; ///< golden edge maps
  std::vector<std::uint8_t> bl1;
  std::vector<std::uint8_t> bl2;
  /// One per stream, each held across every VBN job of its stream.
  std::vector<std::unique_ptr<hw::Simulator>> accels;
};

Status build_setup(MissionSetup& setup, std::uint64_t seed) {
  const apps::KernelSpec spec = apps::sobel_kernel(kFrameSide, kFrameSide);
  hls::FlowOptions options;
  options.top = spec.name;
  auto flow = hls::run_flow(spec.source, options);
  if (!flow.ok()) return flow.status();
  setup.flow = flow.take();
  auto backend = nx::run_backend(setup.flow.fsmd.module,
                                 nx::make_device(options.target));
  if (!backend.ok()) return backend.status();
  setup.bitstream = std::move(backend.value().bitstream);

  Rng rng(seed ^ 0xF4A3E5ULL);
  for (std::size_t i = 0; i < kReferenceFrames; ++i) {
    const apps::VbnFrame frame = apps::render_frame(
        kFrameSide, kFrameSide, 2.0 + rng.next_double() * 4.0,
        2.0 + rng.next_double() * 4.0, 1.0 + rng.next_double(), 15, rng);
    std::vector<std::uint64_t> image(frame.pixels.begin(), frame.pixels.end());
    auto cosim = hls::cosimulate(setup.flow, {}, {{0, image}});
    if (!cosim.ok()) return cosim.status();
    if (!cosim.value().match) {
      return Status::Error(ErrorCode::kInternal,
                           "co-simulation mismatch: " + cosim.value().mismatch);
    }
    ir::Interpreter golden(setup.flow.function);
    golden.set_memory(0, image);
    auto run = golden.run(std::vector<std::uint64_t>{});
    if (!run.ok()) return run.status();
    setup.expected.push_back(golden.memory(1));
    setup.frames.push_back(std::move(image));
  }
  setup.bl1.resize(1024);
  for (std::size_t i = 0; i < setup.bl1.size(); ++i) {
    setup.bl1[i] = static_cast<std::uint8_t>(i * 11 + 3);
  }
  setup.bl2.assign(2048, 0x5A);
  for (unsigned stream = 0; stream < kStreams; ++stream) {
    setup.accels.push_back(
        std::make_unique<hw::Simulator>(setup.flow.fsmd.module));
    if (!setup.accels.back()->status().ok()) {
      return setup.accels.back()->status();
    }
  }
  return Status::Ok();
}

/// Per-episode observations: correctness counters, simulated counts and the
/// run-twice fingerprint.
struct EpisodeStats {
  bool ok = true;
  std::string why;
  double boot_ms = 0.0;
  double recovery_ms = 0.0;
  double hv_s = 0.0;            ///< host seconds inside Hypervisor::run
  double simulated_s = 0.0;     ///< mission seconds Hypervisor::run covered
  std::uint64_t boot_cycles = 0;
  std::uint64_t flash_corrected = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t accel_cycles = 0;
  std::uint64_t noc_beats = 0;
  std::uint64_t noc_retries = 0;
  std::uint64_t noc_cycles = 0;
  /// Run-twice witness: hv RunStats, FdirReport and crossbar fingerprints,
  /// accelerator outputs and the boot report.
  svc::KeyBuilder fingerprint{0x4D495353u};  // "MISS"
  /// The rollback target, kept for the traced run's fork replay.
  boot::SocSnapshot checkpoint;
  std::uint64_t checkpoint_digest = 0;

  void fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
  /// Adds another episode's (or pass's) simulated counts to these.
  void add_counts(const EpisodeStats& other) {
    boot_cycles += other.boot_cycles;
    flash_corrected += other.flash_corrected;
    rollbacks += other.rollbacks;
    ctx_switches += other.ctx_switches;
    deadline_misses += other.deadline_misses;
    accel_cycles += other.accel_cycles;
    noc_beats += other.noc_beats;
    noc_retries += other.noc_retries;
    noc_cycles += other.noc_cycles;
  }
};

/// Mutable state the partition payloads share during one episode.
struct Payloads {
  MissionSetup* setup = nullptr;
  hw::Simulator* accel = nullptr;  ///< this stream's held simulator
  Tracer* tracer = nullptr;
  std::uint64_t episode = 0;
  EpisodeStats* stats = nullptr;
  noc::Crossbar* fabric = nullptr;
  apps::AocsState aocs;
  apps::AocsConfig aocs_config;
  apps::EorState eor;
  apps::EorConfig eor_config;
  std::uint64_t frame_cursor = 0;
  std::uint64_t last_frame = 0;
  std::uint64_t noc_seed = 0;
  bool corrupt_oracle = false;
};

/// One VBN frame through the held accelerator, checked against its
/// set-up reference.
void run_accelerator(Payloads& p) {
  MissionSetup& setup = *p.setup;
  const std::size_t index = p.frame_cursor++ % setup.frames.size();
  hw::Simulator& sim = *p.accel;
  ScopedSpan span(p.tracer, "hw.accel", p.episode);
  sim.reset();
  const std::vector<std::uint64_t>& image = setup.frames[index];
  for (std::size_t i = 0; i < image.size(); ++i) sim.write_memory(0, i, image[i]);
  sim.set_input("start", 1);
  auto cycles = sim.run_until("done", 1'000'000);
  if (!cycles.ok()) {
    p.stats->fail("accelerator: " + cycles.status().to_string());
    return;
  }
  p.stats->accel_cycles += cycles.value();
  const std::vector<std::uint64_t>& expected = setup.expected[index];
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::uint64_t want = expected[i];
    if (p.corrupt_oracle && i == 0) want ^= 1;
    const std::uint64_t got = sim.read_memory(1, i);
    if (got != want) {
      p.stats->fail("VBN frame " + std::to_string(index) +
                    " differs from its co-simulated reference at pixel " +
                    std::to_string(i));
      break;
    }
    p.stats->fingerprint.u64(got);
  }
  sim.set_input("start", 0);
  sim.step();
  p.last_frame = index;
}

/// The major frame's camera and telemetry beats across the crossbar.
void run_fabric(Payloads& p) {
  noc::Crossbar& fabric = *p.fabric;
  ScopedSpan span(p.tracer, "noc.run", p.episode);
  noc::WorkloadSpec camera;
  camera.pattern = noc::TrafficPattern::kCameraFrames;
  camera.endpoint = 0;
  camera.items = 4;
  camera.seed = p.noc_seed++ ^ p.last_frame;
  noc::WorkloadSpec telemetry;
  telemetry.pattern = noc::TrafficPattern::kPacketStream;
  telemetry.endpoint = 1;
  telemetry.items = 6;
  telemetry.seed = p.noc_seed++;
  fabric.bind_workload(0, noc::generate_workload(camera));
  fabric.bind_workload(1, noc::generate_workload(telemetry));
  const noc::FabricResult result = fabric.run();
  if (!result.status.ok()) {
    p.stats->fail("crossbar: " + result.status.to_string());
  }
  if (result.silent != 0) p.stats->fail("crossbar delivered silent corruption");
  for (const noc::PortStats& port : result.ports) {
    p.stats->noc_beats += port.completed;
    p.stats->noc_retries += port.retries;
  }
  p.stats->noc_cycles += result.cycles;
  p.stats->fingerprint.u64(result.fingerprint());
}

/// The SELENE plan (AOCS 10 Hz hard, VBN 5 Hz, EOR 1 Hz on four cores),
/// with payloads wired to the accelerator and the crossbar. Core 3 hosts
/// the system partition the supervisor acts through.
hv::HvConfig mission_config(Payloads& p) {
  hv::HvConfig config;
  config.plan.major_frame = 100'000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 20'000, kAocs, 0}, {20'000, 70'000, kVbn, 0}};
  config.plan.per_core[1] = {{0, 90'000, kVbn, 1}};
  config.plan.per_core[2] = {{0, 50'000, kEor, 0}};
  config.plan.per_core[3] = {{0, 10'000, kSystem, 0}};

  hv::PartitionConfig aocs;
  aocs.name = "AOCS";
  aocs.region = {0x00000, 0x10000};
  aocs.profile = {100'000, 20'000, 5'000};
  aocs.on_job = [&p](hv::PartitionApi& api) {
    ScopedSpan span(p.tracer, "apps.job", p.episode);
    apps::aocs_step(p.aocs, p.aocs_config);
    hv::Message message(12);
    for (int axis = 0; axis < 3; ++axis) {
      const auto v = static_cast<std::uint32_t>(p.aocs.attitude_error[axis]);
      for (int b = 0; b < 4; ++b) {
        message[axis * 4 + b] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
    (void)api.write_port("att_src", message);
    run_fabric(p);
  };
  hv::PartitionConfig vbn;
  vbn.name = "VBN";
  vbn.region = {0x10000, 0x20000};
  vbn.profile = {200'000, 0, 60'000};
  vbn.on_job = [&p](hv::PartitionApi& api) {
    ScopedSpan span(p.tracer, "apps.job", p.episode);
    run_accelerator(p);
    (void)api.read_sample("att_dst");
  };
  hv::PartitionConfig eor;
  eor.name = "EOR";
  eor.region = {0x30000, 0x10000};
  eor.profile = {1'000'000, 0, 30'000};
  eor.on_job = [&p](hv::PartitionApi&) {
    ScopedSpan span(p.tracer, "apps.job", p.episode);
    apps::eor_step(p.eor, p.eor_config);
  };
  hv::PartitionConfig system;
  system.name = "SYS";
  system.region = {0x40000, 0x10000};
  system.system = true;
  config.partitions = {aocs, vbn, eor, system};
  config.ports = {
      {"att_src", hv::PortKind::kSampling, hv::PortDir::kSource, kAocs, 16, 8,
       0},
      {"att_dst", hv::PortKind::kSampling, hv::PortDir::kDestination, kVbn, 16,
       8, 300'000},
  };
  config.channels = {{"att_src", {"att_dst"}}};
  return config;
}

noc::Crossbar make_fabric() {
  return noc::Crossbar(
      noc::FabricConfig{},
      {{"camera", 1, 1, 8, kVbn}, {"telemetry", 0, 1, 8, kAocs}},
      {{"vision", 0, 4, 4, 4}, {"downlink", 1, 2, 4, 4}});
}

void fold_run(EpisodeStats& stats, const hv::RunStats& run) {
  stats.ctx_switches += run.context_switches;
  stats.fingerprint.u64(run.simulated);
  stats.fingerprint.u64(run.context_switches);
  stats.fingerprint.u64(run.major_frames);
  stats.fingerprint.u64(run.port_messages);
  for (const hv::PartitionStats& partition : run.partitions) {
    stats.deadline_misses += partition.deadline_misses;
    stats.fingerprint.u64(partition.jobs_completed);
    stats.fingerprint.u64(partition.deadline_misses);
    stats.fingerprint.u64(partition.cpu_time);
    stats.fingerprint.u64(partition.max_response);
  }
  if (run.partitions[kAocs].deadline_misses != 0) {
    stats.fail("AOCS missed a deadline");
  }
}

EpisodeStats run_episode(MissionSetup& setup, unsigned stream,
                         std::uint64_t seed, std::uint64_t episode,
                         bool corrupt_oracle, Tracer* tracer) {
  EpisodeStats stats;
  Rng rng(fault::replica_seed(seed, episode));

  // (1) Boot from flash with seeded bit flips in one TMR replica.
  // Heap-held so that building and tearing down the 2 MiB x3 flash bank
  // and the DDR model sit inside boot spans.
  std::unique_ptr<boot::BootEnvironment> env_holder;
  {
    ScopedSpan span(tracer, "boot.stage", episode);
    env_holder = std::make_unique<boot::BootEnvironment>();
    boot::BootEnvironment& env = *env_holder;
    boot::LoadList list;
    boot::LoadEntry fpga;
    fpga.kind = boot::LoadKind::kBitstream;
    fpga.name = "vision";
    fpga.dest_addr = boot::MemoryMap::kDdrBase + 0x10000;
    list.entries.push_back(fpga);
    boot::LoadEntry app;
    app.kind = boot::LoadKind::kBl2;
    app.name = "app";
    app.dest_addr = boot::MemoryMap::kDdrBase;
    list.entries.push_back(app);
    boot::stage_boot_media(env, setup.bl1, list, {setup.bitstream, setup.bl2});
    env.flash.device(rng.next_below(env.flash.replicas()))
        .inject_bitflips(kFlashBitflips, rng);
  }
  boot::BootEnvironment& env = *env_holder;
  fault::FaultInjector injector;
  env.attach_injector(&injector);
  const Clock::time_point boot_start = Clock::now();
  boot::BootResult boot;
  {
    ScopedSpan span(tracer, "boot.bl1", episode);
    boot = boot::run_boot_chain(env);
  }
  stats.boot_ms = ms_between(boot_start, Clock::now());
  if (!boot.status.ok() || !env.soc.efpga_programmed) {
    stats.fail("boot: " + boot.status.to_string());
    return stats;
  }
  stats.boot_cycles = boot.report.total_cycles;
  stats.flash_corrected = boot.report.flash_corrected_bytes;
  stats.fingerprint.u64(boot.report.total_cycles);
  stats.fingerprint.u64(boot.report.flash_corrected_bytes);
  const std::uint64_t booted_digest = env.soc.efpga_config_digest();

  // (2) Supervise the Soc, the hypervisor and the crossbar; checkpoint.
  Payloads payloads;
  payloads.setup = &setup;
  payloads.accel = setup.accels[stream].get();
  payloads.tracer = tracer;
  payloads.episode = episode;
  payloads.stats = &stats;
  payloads.frame_cursor = rng.next_below(setup.frames.size());
  payloads.noc_seed = rng.next_u64();
  payloads.corrupt_oracle = corrupt_oracle;
  payloads.aocs.attitude_error = {
      apps::fx_from_milli(static_cast<int>(rng.next_in(-200, 200))),
      apps::fx_from_milli(static_cast<int>(rng.next_in(-200, 200))),
      apps::fx_from_milli(static_cast<int>(rng.next_in(-200, 200)))};
  std::unique_ptr<noc::Crossbar> fabric;
  std::unique_ptr<hv::Hypervisor> hypervisor;
  {
    ScopedSpan span(tracer, "hv.configure", episode);
    fabric = std::make_unique<noc::Crossbar>(make_fabric());
    payloads.fabric = fabric.get();
    hypervisor = std::make_unique<hv::Hypervisor>(mission_config(payloads));
  }
  fdir::FdirBus bus(4096);
  fdir::FdirConfig fdir_config;
  fdir_config.max_restart_attempts = 0;  // a storm is the rollback rung's job
  fdir::FdirSupervisor supervisor(fdir_config, bus);
  {
    ScopedSpan span(tracer, "fdir.attach", episode);
    supervisor.attach_soc(&env.soc, &injector, fault::FaultPlan{});
    supervisor.attach_hypervisor(hypervisor.get(), kSystem);
    supervisor.attach_noc(fabric.get());
  }
  {
    ScopedSpan span(tracer, "fdir.checkpoint", episode);
    if (!supervisor.checkpoint().ok()) stats.fail("checkpoint refused");
  }

  // (3) First half of the mission.
  const auto fly = [&] {
    const Clock::time_point start = Clock::now();
    Result<hv::RunStats> run = Status::Error(ErrorCode::kInternal, "");
    {
      ScopedSpan span(tracer, "hv.run", episode);
      run = hypervisor->run(kHalfMission);
    }
    stats.hv_s += seconds_since(start);
    if (!run.ok()) {
      stats.fail("hypervisor: " + run.status().to_string());
      return;
    }
    stats.simulated_s += static_cast<double>(run.value().simulated) * 1e-6;
    fold_run(stats, run.value());
    ScopedSpan span(tracer, "fdir.poll", episode);
    supervisor.poll();
  };
  fly();

  // (4) Configuration-memory storm: between scrub passes, upsets strike the
  // first two configuration frames (each a single- or double-bit flip),
  // until a scrub pass detects the second uncorrectable word and the
  // supervisor rolls back. Recovery is timed from that detecting scrub call
  // to the completed rollback. Two frames per pass is the most the ladder
  // absorbs with one rollback: a pass that rots every frame leaves stale
  // uncorrectable events behind the rollback, which re-trigger it.
  fault::FaultPlan storm;
  storm.seed = rng.next_u64();
  storm.points.push_back(
      {"efpga.config.rot", {.probability = 1.0, .window_end = 2}});
  for (int pass = 0; pass < 64 && supervisor.report().rollbacks == 0; ++pass) {
    ++storm.seed;
    injector.load_plan(storm);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "boot.scrub", episode);
      (void)env.soc.scrub_efpga();
    }
    {
      ScopedSpan span(tracer, "fdir.poll", episode);
      supervisor.poll();
    }
    stats.recovery_ms = ms_between(start, Clock::now());
  }
  stats.rollbacks = supervisor.report().rollbacks;
  if (stats.rollbacks != 1 || supervisor.mode() == fdir::FdirMode::kSafe) {
    stats.fail("storm ended in " + std::to_string(stats.rollbacks) +
               " rollbacks, mode " + fdir::to_string(supervisor.mode()));
  }
  if (env.soc.efpga_config_digest() != booted_digest) {
    stats.fail("rollback did not restore the post-boot configuration digest");
  }

  if (const fdir::Checkpoint* checkpoint = supervisor.checkpoints().newest()) {
    stats.checkpoint = checkpoint->snapshot;
    stats.checkpoint_digest = checkpoint->digest;
  }

  // (5) The mission resumes.
  fly();
  stats.fingerprint.u64(supervisor.report().fingerprint());
  ScopedSpan span(tracer, "boot.teardown", episode);
  env_holder.reset();
  return stats;
}

struct EpisodePass {
  std::vector<double> boot_ms, recovery_ms, sim_rate;
  std::uint64_t episodes = 0, failed = 0;
  double busy_s = 0.0;
  EpisodeStats totals;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> replay_checks;

  /// Folds another stream's pass into this one.
  void merge(const EpisodePass& other) {
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(boot_ms, other.boot_ms);
    append(recovery_ms, other.recovery_ms);
    append(sim_rate, other.sim_rate);
    episodes += other.episodes;
    failed += other.failed;
    busy_s += other.busy_s;
    totals.add_counts(other.totals);
    replay_checks.insert(replay_checks.end(), other.replay_checks.begin(),
                         other.replay_checks.end());
  }
};

/// Runs episode `e` on `stream` and folds it into `pass`. Traced, the
/// episode is one mission.episode span, and afterwards the eFPGA programming
/// BL1 did and the fork the rollback rung did are replayed through the public
/// Soc API (boot.efpga_program / boot.fork spans, outside the episode's wall).
void run_one_episode(EpisodePass& pass, MissionSetup& setup, unsigned stream,
                     const Options& options, std::uint64_t e,
                     RunResult& result, Tracer* tracer = nullptr) {
  const Clock::time_point start = Clock::now();
  EpisodeStats stats;
  {
    ScopedSpan unit(tracer, "mission.episode", e);
    stats = run_episode(setup, stream, options.seed, e, options.corrupt_oracle,
                        tracer);
  }
  pass.busy_s += seconds_since(start);
  ++pass.episodes;
  if (tracer != nullptr && stats.ok) {
    boot::Soc blank;
    {
      ScopedSpan span(tracer, "boot.efpga_program", e);
      if (!blank.program_efpga(setup.bitstream).ok()) {
        stats.fail("replayed eFPGA programming failed");
      }
    }
    ScopedSpan span(tracer, "boot.fork", e);
    const boot::Soc forked = boot::Soc::fork(stats.checkpoint);
    if (forked.efpga_config_digest() != stats.checkpoint_digest) {
      stats.fail("replayed fork lost the checkpoint digest");
    }
  }
  if (!stats.ok) {
    ++pass.failed;
    result.fail("episode " + std::to_string(e) + ": " + stats.why);
    return;
  }
  pass.boot_ms.push_back(stats.boot_ms);
  pass.recovery_ms.push_back(stats.recovery_ms);
  pass.sim_rate.push_back(stats.simulated_s / stats.hv_s);
  pass.totals.add_counts(stats);
  if (e % kReplayEvery == 0) {
    pass.replay_checks.push_back({e, stats.fingerprint.digest()});
  }
}

/// Untimed run-twice oracle over the sampled episodes of `pass`, re-run on
/// `stream`.
void check_replays(MissionSetup& setup, unsigned stream, const Options& options,
                   const EpisodePass& pass, RunResult& result) {
  for (const auto& [episode, fingerprint] : pass.replay_checks) {
    const EpisodeStats again =
        run_episode(setup, stream, options.seed, episode, false, nullptr);
    if (!again.ok || again.fingerprint.digest() != fingerprint) {
      ++result.failed;
      result.fail("episode " + std::to_string(episode) +
                  " does not fingerprint identically when re-run");
    }
  }
}

RunResult run_timed(const Options& options) {
  RunResult result;
  std::vector<double> setup_s;
  // Heap-held: the accelerator simulator refers to the module inside it.
  std::unique_ptr<MissionSetup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto fresh = std::make_unique<MissionSetup>();
    const Clock::time_point start = Clock::now();
    const Status status = build_setup(*fresh, options.seed);
    setup_s.push_back(seconds_since(start));
    if (!status.ok()) {
      result.fail("mission set-up: " + status.to_string());
      result.attempted = result.failed = 1;
      return result;
    }
    setup = std::move(fresh);
  }
  result.put("setup_s", median(setup_s), "s");

  // Stream s runs episodes s, s + kStreams, s + 2 kStreams, ... so every
  // episode index, and with it every episode's inputs, is drawn once. Each
  // stream re-runs its own replay checks after the deadline: on the main
  // thread they would take a fourth malloc arena, and whether that raised
  // the peak RSS by a flash bank (29 or 36 MiB) varied from run to run.
  std::vector<EpisodePass> passes(kStreams);
  std::vector<RunResult> stream_results(kStreams);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> streams;
    for (unsigned s = 0; s < kStreams; ++s) {
      streams.emplace_back([&, s] {
        for (std::uint64_t e = s; seconds_since(start) < options.seconds;
             e += kStreams) {
          run_one_episode(passes[s], *setup, s, options, e, stream_results[s]);
        }
        check_replays(*setup, s, options, passes[s], stream_results[s]);
      });
    }
    for (std::thread& stream : streams) stream.join();
  }
  EpisodePass pass;
  for (unsigned s = 0; s < kStreams; ++s) {
    pass.merge(passes[s]);
    const RunResult& stream = stream_results[s];
    result.failed += stream.failed;  // replays that fingerprinted differently
    if (!stream.correct) result.correct = false;
    result.notes.insert(result.notes.end(), stream.notes.begin(),
                        stream.notes.end());
  }
  result.attempted = pass.episodes;
  result.failed += pass.failed;

  result.put("throughput", median(pass.sim_rate), "1/s");
  result.note("throughput counts simulated mission seconds per host second "
              "of Hypervisor::run (median over episodes)");
  result.put_latency(
      "recovery, from the scrub call that detects the storm to the "
      "completed rollback",
      pass.recovery_ms);
  result.note_latency("boot (run_boot_chain)", pass.boot_ms);
  result.put("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[200];
  std::snprintf(line, sizeof(line),
                "%llu episodes of %.1f simulated s over %u streams; "
                "run-twice checks %zu",
                static_cast<unsigned long long>(pass.episodes),
                2.0 * static_cast<double>(kHalfMission) * 1e-6, kStreams,
                pass.replay_checks.size());
  result.note(line);
  return result;
}

RunResult run_traced(const Options& options) {
  RunResult result;
  MissionSetup setup;
  const Status status = build_setup(setup, options.seed);
  if (!status.ok()) {
    result.fail("mission set-up: " + status.to_string());
    result.attempted = result.failed = 1;
    return result;
  }
  // Fixed, seed-determined work so every count repeats exactly.
  const std::uint64_t episodes = std::max<std::uint64_t>(
      4, static_cast<std::uint64_t>(4 * options.seconds));
  {
    RunResult warmup;  // untimed: faults in the allocator and caches
    EpisodePass pass;
    for (std::uint64_t e = 0; e < 2; ++e) {
      run_one_episode(pass, setup, 0, options, e, warmup);
    }
  }
  // The same episodes untraced and traced, alternating so slow drift of the
  // host hits both alike.
  Tracer tracer;
  EpisodePass untraced, traced;
  for (std::uint64_t e = 0; e < episodes; ++e) {
    run_one_episode(untraced, setup, 0, options, e, result);
    run_one_episode(traced, setup, 0, options, e, result, &tracer);
  }
  result.attempted = untraced.episodes + traced.episodes;
  result.failed = untraced.failed + traced.failed;
  check_replays(setup, 0, options, traced, result);
  put_trace_summary(result, tracer, "mission.episode", untraced.busy_s,
                    traced.busy_s);

  const auto totals = tracer.totals();
  const double n = static_cast<double>(std::max<std::uint64_t>(traced.episodes, 1));
  const auto per_episode = [&](const char* span, bool self) {
    const auto it = totals.find(span);
    if (it == totals.end()) return 0.0;
    return (self ? it->second.self_ms : it->second.total_ms) / n;
  };
  result.put("boot.bl1_ms", per_episode("boot.bl1", false), "ms");
  result.put("boot.efpga_program_ms", per_episode("boot.efpga_program", false),
             "ms");
  result.put("boot.fork_ms", per_episode("boot.fork", false), "ms");
  result.put("boot.scrub_ms", per_episode("boot.scrub", false), "ms");
  result.put("fdir.checkpoint_ms", per_episode("fdir.checkpoint", false), "ms");
  result.put("fdir.poll_ms", per_episode("fdir.poll", false), "ms");
  result.put("hv.run_self_ms", per_episode("hv.run", true), "ms");
  result.put("hw.accel_ms", per_episode("hw.accel", false), "ms");
  result.put("noc.run_ms", per_episode("noc.run", false), "ms");
  const EpisodeStats& t = traced.totals;
  result.put("boot.sim_cycles", static_cast<double>(t.boot_cycles), "count");
  result.put("boot.flash_corrected_bytes",
             static_cast<double>(t.flash_corrected), "count");
  result.put("fdir.rollbacks", static_cast<double>(t.rollbacks), "count");
  if (t.rollbacks != traced.episodes - traced.failed) {
    result.fail("rollbacks do not equal the storms");
  }
  result.put("hv.ctx_switches", static_cast<double>(t.ctx_switches), "count");
  result.put("hv.deadline_misses", static_cast<double>(t.deadline_misses),
             "count");
  result.put("hw.accel_cycles", static_cast<double>(t.accel_cycles), "count");
  result.put("hw.event_step_ns",
             per_episode("hw.accel", false) * n * 1e6 /
                 static_cast<double>(std::max<std::uint64_t>(t.accel_cycles, 1)),
             "ns");
  result.put("noc.beats", static_cast<double>(t.noc_beats), "count");
  result.put("noc.retries", static_cast<double>(t.noc_retries), "count");
  result.put("noc.cycles", static_cast<double>(t.noc_cycles), "count");

  if (!options.trace_file.empty() &&
      !tracer.write_chrome_json(options.trace_file, environment())) {
    result.fail("could not write " + options.trace_file);
  }
  return result;
}

}  // namespace

RunResult run_mission(const Options& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace perfbench
