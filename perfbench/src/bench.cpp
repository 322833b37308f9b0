#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_of(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // With fewer than kTailBeyond + 1 samples no order statistic has enough
  // samples beyond it; fall back to the maximum and say so via percentile.
  const std::size_t rank = n > kTailBeyond ? n - 1 - kTailBeyond : n - 1;
  tail.value = samples[rank];
  tail.percentile =
      n > kTailBeyond ? 100.0 * static_cast<double>(n - kTailBeyond) /
                            static_cast<double>(n)
                      : 100.0;
  return tail;
}

void RunResult::put_latency(const std::string& what,
                            const std::vector<double>& ms) {
  put("latency_p50_ms", median(ms), "ms");
  std::vector<double> window_tails;
  Tail window;
  for (std::size_t w = 0; w + kTailWindow <= ms.size(); w += kTailWindow) {
    window = tail_of({ms.begin() + static_cast<std::ptrdiff_t>(w),
                      ms.begin() + static_cast<std::ptrdiff_t>(w + kTailWindow)});
    window_tails.push_back(window.value);
  }
  if (window_tails.empty()) {
    window = tail_of(ms);  // shorter than one window: the run-wide tail
    window_tails.push_back(window.value);
  }
  put("latency_tail_ms", median(window_tails), "ms");
  note_latency("latency_* time " + what, ms);
  char line[160];
  std::snprintf(line, sizeof(line),
                "latency_tail_ms is the median over %zu windows of %zu "
                "samples of each window's p%.2f",
                window_tails.size(), window.samples, window.percentile);
  note(line);
}

void RunResult::note_latency(const std::string& what,
                             const std::vector<double>& ms) {
  const Tail tail = tail_of(ms);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: p50 %.4f ms, tail %.4f ms = p%.2f of %zu samples "
                "(%zu beyond it)",
                what.c_str(), median(ms), tail.value, tail.percentile,
                tail.samples,
                tail.samples > kTailBeyond ? kTailBeyond : std::size_t{0});
  note(line);
}

int Tracer::open(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  // Spans are strictly nested on the one recording thread.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Children run inside their parent on the same thread, so the part of a
  // parent covered by children is the sum of the children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& entry = totals[span.name];
    ++entry.calls;
    entry.total_ms += static_cast<double>(duration) * 1e-6;
    entry.self_ms += static_cast<double>(duration - child_ns[i]) * 1e-6;
  }
  return totals;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& env) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"request\":%llu,\"parent\":%d,\"id\":%zu}}",
                  json_escape(span.name).c_str(),
                  json_escape(span.name.substr(0, span.name.find('.'))).c_str(),
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  static_cast<unsigned long long>(span.request), span.parent,
                  i);
    out << line << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : env) {
    out << (first ? "" : ",") << '"' << json_escape(key) << "\":\""
        << json_escape(value) << '"';
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

std::map<std::string, std::string> environment() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", std::string("gcc ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"gbench_library_build", PERFBENCH_GBENCH_BUILD},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void put_trace_summary(RunResult& result, const Tracer& tracer,
                       const char* root, double untraced_s, double traced_s) {
  result.put("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s,
             "%");
  const auto totals = tracer.totals();
  const auto it = totals.find(root);
  const double coverage =
      it == totals.end() || it->second.total_ms <= 0.0
          ? 0.0
          : (it->second.total_ms - it->second.self_ms) / it->second.total_ms;
  result.put("trace.coverage", coverage, "ratio");
}

}  // namespace perfbench
