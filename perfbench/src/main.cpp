// hermes_perfbench — the repo benchmark.
//
//   hermes_perfbench --workload <compile_mix|seu_campaign|mission>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-file <path>] [--corrupt-oracle 1]
//
// --trace 0 runs the closed loop for --seconds and reports the end-to-end
// metrics; --trace 1 runs fixed, seed-determined work untraced and traced,
// replays it through each layer's public functions, measures pool scaling
// and reports the per-layer metrics. Either way the last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is 0 only
// when every correctness oracle passed and no operation failed.
// --corrupt-oracle flips one oracle reference, to show the gate trips.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every untraced run prints exactly these; BENCHMARK.json lists them too.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"throughput", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

/// Every traced run prints all of these. A workload that does not exercise
/// a layer reports its metrics as 0.
constexpr MetricSpec kPerLayer[] = {
    {"frontend.parse_ms", "ms"},     {"frontend.typecheck_ms", "ms"},
    {"ir.lower_ms", "ms"},           {"ir.passes_ms", "ms"},
    {"ir.instrs_removed", "count"},  {"hls.schedule_ms", "ms"},
    {"hls.bind_ms", "ms"},           {"hls.fsmd_ms", "ms"},
    {"hls.verilog_ms", "ms"},        {"hls.characterize_ms", "ms"},
    {"nxmap.synth_ms", "ms"},        {"nxmap.techmap_ms", "ms"},
    {"nxmap.place_ms", "ms"},        {"nxmap.route_ms", "ms"},
    {"nxmap.sta_ms", "ms"},          {"nxmap.power_ms", "ms"},
    {"nxmap.pack_ms", "ms"},         {"svc.hits", "count"},
    {"svc.misses", "count"},         {"svc.computes", "count"},
    {"svc.inflight_waits", "count"}, {"svc.hit_ratio", "ratio"},
    {"svc.queue_wait_ms", "ms"},     {"svc.pool_speedup_2", "x"},
    {"svc.pool_speedup_4", "x"},     {"fault.campaign_ms", "ms"},
    {"fault.batches", "count"},      {"fault.diverged", "count"},
    {"fault.pool_speedup_2", "x"},   {"fault.pool_speedup_4", "x"},
    {"hw.sliced_build_ms", "ms"},    {"hw.sliced_step_ns", "ns"},
    {"hw.event_step_ns", "ns"},      {"hw.jit_step_ns", "ns"},
    {"hw.accel_ms", "ms"},           {"hw.accel_cycles", "count"},
    {"boot.bl1_ms", "ms"},           {"boot.efpga_program_ms", "ms"},
    {"boot.sim_cycles", "count"},    {"boot.flash_corrected_bytes", "count"},
    {"boot.fork_ms", "ms"},          {"boot.scrub_ms", "ms"},
    {"fdir.checkpoint_ms", "ms"},    {"fdir.poll_ms", "ms"},
    {"fdir.rollbacks", "count"},     {"hv.run_self_ms", "ms"},
    {"hv.ctx_switches", "count"},    {"hv.deadline_misses", "count"},
    {"noc.run_ms", "ms"},            {"noc.beats", "count"},
    {"noc.retries", "count"},        {"noc.cycles", "count"},
    {"trace.overhead_pct", "%"},     {"trace.coverage", "ratio"},
};

/// Holds the run to the metric registry: exactly the registered names, with
/// their registered units; layers a traced workload skipped read 0.
template <std::size_t N>
void enforce_metrics(RunResult& result, const MetricSpec (&specs)[N],
                     bool fill_missing) {
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (fill_missing) {
        result.put(spec.name, 0.0, spec.unit);
      } else {
        result.fail(std::string("metric ") + spec.name + " was not measured");
      }
    } else if (it->second.unit != spec.unit) {
      result.fail(std::string("metric ") + spec.name + " has unit " +
                  it->second.unit + ", registered " + spec.unit);
    }
  }
  for (const auto& [name, metric] : result.metrics) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    if (!known) result.fail("metric " + name + " is not registered");
  }
}

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: hermes_perfbench --workload "
               "<compile_mix|seu_campaign|mission> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>] [--corrupt-oracle 1]\n",
               message);
  return 2;
}

void print_result(const RunResult& result) {
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else if (flag == "--corrupt-oracle") {
      options.corrupt_oracle = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  RunResult result;
  if (options.workload == "compile_mix") {
    result = perfbench::run_compile_mix(options);
  } else if (options.workload == "seu_campaign") {
    result = perfbench::run_seu_campaign(options);
  } else if (options.workload == "mission") {
    result = perfbench::run_mission(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.trace) {
    enforce_metrics(result, kPerLayer, /*fill_missing=*/true);
  } else {
    enforce_metrics(result, kEndToEnd, /*fill_missing=*/false);
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) result.fail(name + " is not finite");
  }
  if (result.attempted == 0) result.fail("no operation was attempted");
  for (const auto& [key, value] : perfbench::environment()) {
    result.note("env " + key + "=" + value);
  }
  print_result(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
