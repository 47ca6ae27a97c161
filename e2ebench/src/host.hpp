// Process and host readings for the benchmark: CPU time, peak RSS, thread
// count, steal ticks and the run context printed with every result.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace e2ebench {

/// `text` as a JSON string literal (control characters dropped).
std::string json_string(const std::string& text);

/// User + system CPU seconds of this process (getrusage).
double cpu_seconds();
/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();
/// Current thread count of this process (/proc/self/status).
int thread_count();
/// Host-wide steal ticks (/proc/stat "cpu" line); -1 when unreadable.
long long steal_ticks();

/// JSON object describing the build and the host: compiler, flags, build
/// type, SPOOFTRACK_OBS, SIMD level, nproc, CPU model, load average.
std::string context_json();

/// Samples this process's thread count every few milliseconds on a thread
/// of its own and keeps the maximum, not counting the sampler itself.
class ThreadWatch {
 public:
  ThreadWatch();
  ~ThreadWatch() { stop(); }
  ThreadWatch(const ThreadWatch&) = delete;
  ThreadWatch& operator=(const ThreadWatch&) = delete;

  /// Ends sampling; idempotent.
  void stop();
  int peak() const { return peak_.load(); }
  /// CPU seconds the sampler itself used (valid after stop()).
  double own_cpu_seconds() const { return own_cpu_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{1};
  std::atomic<double> own_cpu_{0};
  std::thread sampler_;  // declared last: uses the members above
};

}  // namespace e2ebench
