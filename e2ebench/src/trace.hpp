// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a library layer in a span
// (name, start, end, parent). Spans stay in memory and are written once, at
// exit, as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev). A
// layer's self time is its spans' durations minus the parts their child
// spans cover; children are spans opened on the same thread while the
// parent was open.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

struct Span {
  const char* name = "";  // string literal: layer.operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Index of the next span to be recorded; pass to the queries below to
  /// restrict them to spans recorded after this point.
  std::size_t mark() const;

  /// Records a finished span with an explicit interval (spans whose bounds
  /// are observed around a callback rather than a scope). Parent is the
  /// calling thread's innermost open scoped span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  /// Self time per span name, in milliseconds, over spans since `from`.
  std::map<std::string, double> self_ms(std::size_t from) const;
  /// Durations in nanoseconds of the spans named `name` since `from`.
  std::vector<double> durations_ns(const std::string& name,
                                   std::size_t from) const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path, const std::string& workload) const;

 private:
  friend class ScopedSpan;
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void push(const Span& span);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span on the calling thread; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

}  // namespace e2ebench
