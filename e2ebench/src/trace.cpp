#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <unordered_map>

namespace e2ebench {

namespace {

thread_local std::vector<std::uint64_t> open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1) + 1;
  return index;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::size_t Tracer::mark() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::push(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled()) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id();
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.tid = thread_index();
  push(span);
}

std::map<std::string, double> Tracer::self_ms(std::size_t from) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> covered;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) {
      covered[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::int64_t self = s.end_ns - s.start_ns;
    if (const auto it = covered.find(s.id); it != covered.end()) {
      self -= it->second;
    }
    out[s.name] += static_cast<double>(self) / 1e6;
  }
  return out;
}

std::vector<double> Tracer::durations_ns(const std::string& name,
                                         std::size_t from) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
    }
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& workload) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name(s.name);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << name
        << "\",\"cat\":\"" << name.substr(0, name.find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"workload\":\"" << workload << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = open_spans.empty() ? 0 : open_spans.back();
  span_.tid = thread_index();
  open_spans.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  open_spans.pop_back();
  Tracer::global().push(span_);
}

}  // namespace e2ebench
