// Shared vocabulary of the repo benchmark: wall-clock timing, the benchmark's
// own percentiles, the in-memory span recorder of the traced run, and the
// result record every workload fills.
//
// Timing is std::chrono::steady_clock wall time throughout. Spans are taken
// only here, around calls into each layer's public functions, on the
// benchmark's client thread; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of `samples` (mean of the two middle values for an even count).
double median(std::vector<double> samples);

/// The tail of a latency sample: the highest order statistic that still has
/// at least `kTailBeyond` samples above it, and the percentile it sits at.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - kTailBeyond) / n
  std::size_t samples = 0;
};
inline constexpr std::size_t kTailBeyond = 10;
Tail tail_of(std::vector<double> samples);

/// Window of the gated tail: p95 of 200 samples. A run-wide p99.x tail is
/// set by a handful of host preemptions and swings between runs; the median
/// of per-window tails tracks the system instead.
inline constexpr std::size_t kTailWindow = 200;

/// One reported metric. `value` is printed with every digit it has.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the gate fields of the
/// result line, its metrics, and free-text notes printed before it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records the workload's closed-loop latency sample as latency_p50_ms
  /// (median of all samples) and latency_tail_ms (median over consecutive
  /// windows of kTailWindow samples of each window's tail_of), noting what
  /// it times, the percentile and the sample counts.
  void put_latency(const std::string& what, const std::vector<double>& ms);
  /// Notes the median and tail of a latency that is not a gated metric.
  void note_latency(const std::string& what, const std::vector<double>& ms);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed oracle: the run is incorrect and the reason printed.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("ORACLE FAILURE: " + why);
  }
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;        ///< Chrome trace-event JSON (traced run)
  bool corrupt_oracle = false;   ///< self-test: flip one oracle reference
};

// ---------------------------------------------------------------------------
// Span recorder (traced run only)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;          ///< "<layer>.<what>", e.g. "nxmap.place"
  std::int64_t start_ns = 0; ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;           ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0; ///< job / campaign / episode id
};

/// Per-name aggregate: call count, total duration and self time (duration
/// minus the time covered by child spans).
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name, std::uint64_t request);
  void close(int index);

  /// Totals per span name, self time computed from the parent links.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// Writes Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& env) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing (the untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Build and host facts recorded beside the scaling numbers.
std::map<std::string, std::string> environment();

/// Peak resident set of this process (getrusage), in MiB.
double peak_rss_mb();

/// Shared traced-run bookkeeping: trace.overhead_pct from an untraced and a
/// traced wall over identical work; trace.coverage as the share of the
/// `root` spans' wall (one per unit of work) that their child layer spans
/// cover — the sum of the layers' self times over the workload wall.
void put_trace_summary(RunResult& result, const Tracer& tracer,
                       const char* root, double untraced_s, double traced_s);

RunResult run_compile_mix(const Options& options);
RunResult run_seu_campaign(const Options& options);
RunResult run_mission(const Options& options);

}  // namespace perfbench
