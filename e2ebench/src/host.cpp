#include "host.hpp"

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>

#include "util/simd.hpp"

namespace e2ebench {

namespace {

/// Value of a "Key:   value" line in a /proc status-style file, or "".
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const auto colon = line.find_first_not_of(" \t", key.size());
    if (colon == std::string::npos || line[colon] != ':') continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // "VmHWM:   123456 kB"
  const std::string value = proc_field("/proc/self/status", "VmHWM");
  return value.empty() ? 0.0 : std::stod(value) / 1024.0;
}

int thread_count() {
  const std::string value = proc_field("/proc/self/status", "Threads");
  return value.empty() ? 0 : std::stoi(value);
}

long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long fields[8] = {};
  if (!(in >> label) || label != "cpu") return -1;
  for (long long& field : fields) {
    if (!(in >> field)) return -1;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

std::string context_json() {
  std::ostringstream out;
  std::string load;
  {
    std::ifstream in("/proc/loadavg");
    std::getline(in, load);
  }
  out << "{\"compiler\":" << json_string(__VERSION__)
      << ",\"flags\":" << json_string(E2E_CXX_FLAGS)
      << ",\"build_type\":\"" << E2E_BUILD_TYPE << "\""
      << ",\"spooftrack_obs\":" << (E2E_OBS ? "true" : "false")
      << ",\"simd\":\""
      << spooftrack::util::simd_level_name(
             spooftrack::util::active_simd_level())
      << "\""
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":"
      << json_string(proc_field("/proc/cpuinfo", "model name"))
      << ",\"loadavg\":" << json_string(load) << "}";
  return out.str();
}

ThreadWatch::ThreadWatch()
    : sampler_([this] {
        while (!stop_.load()) {
          // The sampler is one of the counted threads; leave it out.
          const int seen = thread_count() - 1;
          int peak = peak_.load();
          while (seen > peak && !peak_.compare_exchange_weak(peak, seen)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        timespec used{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &used);
        own_cpu_.store(static_cast<double>(used.tv_sec) +
                       static_cast<double>(used.tv_nsec) / 1e9);
      }) {}

void ThreadWatch::stop() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
}

}  // namespace e2ebench
