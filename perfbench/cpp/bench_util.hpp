// Shared plumbing for the serving benchmark: clocks, order statistics,
// the in-memory span log, metric tables and process resource probes.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }
inline double s_since(Clock::time_point a) { return ms_since(a) / 1e3; }

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// total / count, or 0 when nothing was counted.
inline double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// The highest percentile is reported only when at least ten samples lie
/// beyond it; a p95 therefore needs 200 samples.
inline bool p95_supported(std::size_t samples) { return samples >= 200; }

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout
  std::size_t nproc = 1;  ///< std::thread::hardware_concurrency()
  /// Set-up is timed from here: process start, or in a traced run the end
  /// of the primitive timings that run first.
  Clock::time_point setup_start;
};

/// One named measurement.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a workload run reports. `metrics` holds the untraced
/// end-to-end figures, `layers` the traced per-layer ones; `info` is free
/// text (mix counts, configuration) echoed on the report line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;         ///< timeouts + typed failures + mismatches
  std::uint64_t mismatches = 0;     ///< oracle or signature disagreements
  /// Self-checks of the measurement that failed (the traced layer-sum
  /// bar); like a mismatch, any entry makes the run incorrect.
  std::vector<std::string> failed_checks;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> info;

  void e2e(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
};

/// Request-scoped spans kept in memory and written out once the run ends.
/// A span names the layer whose public call it brackets; the spans of one
/// request share its request id, and its "request" span encloses the rest.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t request = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Record a finished span (a no-op when tracing is off).
  void add(const char* name, std::uint64_t request, std::int64_t start_ns,
           std::int64_t end_ns) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({spans_.size() + 1, request, name, start_ns, end_ns});
  }

  /// One JSON object per line: {"id","request","name","start_us","dur_us"}.
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& s : spans_)
      std::fprintf(f,
                   "{\"id\":%llu,\"request\":%llu,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Progress marker on stderr, so a run the watchdog kills shows which
/// phase (set-up, timed loop, checks, teardown) it was stuck in.
inline void phase(const char* workload, const char* name) {
  std::fprintf(stderr, "perfbench: %s: %s\n", workload, name);
  std::fflush(stderr);
}

/// Process CPU seconds (user + system) so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Process peak resident set size, MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Run `build` `reps` times and return the median wall-clock seconds;
/// `teardown` (untimed) runs between repetitions. The first repetition is
/// timed from `start`, so process start-up counts toward set-up.
inline double median_setup_s(int reps, Clock::time_point start,
                             const std::function<void(int)>& build,
                             const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown();
    const auto t0 = i == 0 ? start : Clock::now();
    build(i);
    times.push_back(s_since(t0));
  }
  return median(times);
}

/// Timing of a short operation: repeat `op` until `min_ms` of wall clock has
/// passed (at least `min_reps` times) and return the median microseconds.
inline double median_us(const std::function<void()>& op, int min_reps = 5,
                        double min_ms = 200) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (static_cast<int>(us.size()) < min_reps || ms_since(start) < min_ms) {
    const auto t0 = Clock::now();
    op();
    us.push_back(ms_since(t0) * 1e3);
  }
  return median(us);
}

}  // namespace perfbench
