// e2ebench: the end-to-end benchmark program (see ../README.md).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--tree ID] [--worker-gate]
//
// Prints a context line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from the traced run. --worker-gate instead runs the worker-count
// determinism gate on a reduced plan.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "trace.hpp"

namespace {

using namespace e2ebench;

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

int usage(const std::string& error) {
  std::cerr << "e2ebench: " << error << "\n"
            << "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1"
               " [--tree ID] [--worker-gate]\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string tree = "unknown";
  bool gate = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--worker-gate") {
      gate = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--tree") {
        tree = value;
      } else {
        return usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr) return usage("unknown workload '" + options.workload + "'");
  if (!gate && (!have_seed || !have_seconds || !have_trace)) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }

  // Pin every pool: the testbed's and the scheduler's worker counts are set
  // from the spec, and SPOOFTRACK_THREADS covers the pools that read only
  // the environment (campaign propagation under the barrier schedule).
  setenv("SPOOFTRACK_THREADS", std::to_string(spec->workers).c_str(), 1);

  namespace fs = std::filesystem;
  const std::string out_root = kOutRoot;
  options.out_dir = out_root + "/run-" + std::to_string(getpid());
  fs::remove_all(options.out_dir);
  fs::create_directories(options.out_dir);

  const long long steal_before = steal_ticks();
  const double cpu_before = cpu_seconds();
  const std::int64_t start = now_ns();
  RunResult result;
  int peak_threads = 0;
  double sampler_cpu = 0;
  try {
    ThreadWatch watch;
    result = gate            ? run_worker_gate(*spec, options)
             : options.trace ? run_traced(*spec, options)
                             : run_untraced(*spec, options);
    watch.stop();
    peak_threads = watch.peak();
    sampler_cpu = watch.own_cpu_seconds();
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << spec->name << " aborted: " << e.what() << "\n";
    fs::remove_all(options.out_dir);
    return 1;
  }
  const double wall = static_cast<double>(now_ns() - start) / 1e9;
  // The thread sampler is the benchmark's, not the workload's.
  const double cpu = cpu_seconds() - cpu_before - sampler_cpu;
  const long long steal_after = steal_ticks();

  // No pool may outgrow the workload's worker count. The CPU bound allows
  // for the granularity of the CPU clock.
  const auto workers = static_cast<double>(spec->workers);
  // The traced run drives propagate_campaign's barrier path directly, whose
  // util::parallel_for parks the caller in join() beside its workers, so
  // only its CPU time is held to the bound.
  if (!gate && !options.trace && peak_threads > static_cast<int>(spec->workers)) {
    result.fail("peak thread count " + std::to_string(peak_threads) +
                " exceeds the workload's " + std::to_string(spec->workers) +
                " workers");
  }
  if (!gate && cpu > workers * wall * 1.01 + 0.05) {
    result.fail("CPU time " + number(cpu) + " s exceeds " + number(workers) +
                " workers x " + number(wall) + " s wall");
  }
  if (options.trace && !gate) {
    result.metrics.push_back({"host.peak_threads", "count",
                              static_cast<double>(peak_threads)});
  }

  if (options.trace && !gate) {
    const std::string path = out_root + "/trace-" + spec->name + "-" +
                             std::to_string(options.seed) + ".json";
    if (!Tracer::global().write_chrome(path, spec->name)) {
      result.fail("cannot write the span file " + path);
    }
    result.digests["span_file"] = path;
  }
  fs::remove_all(options.out_dir);

  std::ostringstream context;
  context << "{\"workload\":" << json_string(spec->name)
          << ",\"seed\":" << options.seed << ",\"seconds\":" << number(options.seconds)
          << ",\"trace\":" << (options.trace ? 1 : 0)
          << ",\"workers\":" << spec->workers
          << ",\"SPOOFTRACK_THREADS\":" << json_string(std::getenv("SPOOFTRACK_THREADS"))
          << ",\"tree\":" << json_string(tree) << ",\"host\":" << context_json()
          << ",\"wall_s\":" << number(wall) << ",\"cpu_s\":" << number(cpu)
          << ",\"steal_ticks\":"
          << (steal_before < 0 || steal_after < 0 ? -1 : steal_after - steal_before)
          << ",\"peak_threads\":" << peak_threads << ",\"samples\":{";
  const char* sep = "";
  for (const auto& [name, count] : result.samples) {
    context << sep << json_string(name) << ":" << count;
    sep = ",";
  }
  context << "},\"raw\":{";
  sep = "";
  for (const auto& [name, values] : result.raw) {
    context << sep << json_string(name) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      context << (i == 0 ? "" : ",") << number(values[i]);
    }
    context << "]";
    sep = ",";
  }
  context << "},\"digests\":{";
  sep = "";
  for (const auto& [name, digest] : result.digests) {
    context << sep << json_string(name) << ":" << json_string(digest);
    sep = ",";
  }
  context << "},\"errors\":[";
  sep = "";
  for (const auto& error : result.errors) {
    context << sep << json_string(error);
    sep = ",";
  }
  context << "]}";
  std::cout << "context " << context.str() << "\n";

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  sep = "";
  for (const Metric& metric : result.metrics) {
    std::cout << sep << json_string(metric.name) << ": {\"value\": "
              << number(metric.value) << ", \"unit\": " << json_string(metric.unit)
              << "}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
