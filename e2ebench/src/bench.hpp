// Shared definitions of the end-to-end benchmark: workload specs, the run
// result, and the operator-path steps both the untraced and the traced run
// execute.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config_gen.hpp"
#include "core/experiment.hpp"
#include "core/scheduler.hpp"
#include "measure/catchment_store.hpp"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // this run's scratch files, under kOutRoot
};

enum class Kind { kCampaign, kIncident, kResume };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::uint32_t stubs;
  std::uint32_t transit;
  std::uint32_t probes;
  std::uint32_t rounds;  // traceroute rounds per configuration
  bool measured;         // false: routing ground truth
  std::size_t workers;   // every pool, and SPOOFTRACK_THREADS
  int setup_repeats;     // setup_s is the median over these
  int runbook_repeats;   // report-path runs per runbook step
};

const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Testbed configuration of a workload (workers pinned).
spooftrack::core::TestbedConfig testbed_config(const WorkloadSpec& spec);
/// The CLI's default 705-configuration plan options.
spooftrack::core::GeneratorOptions plan_options();

/// Directory, relative to the source tree, of scratch and span files.
inline constexpr const char* kOutRoot = ".e2ebench_out";

/// Topology seed of every workload (see testbed_config).
inline constexpr std::uint64_t kTopologySeed = 42;

/// Greedy runbook length (the Fig. 8 horizon) and incident replay shape.
inline constexpr std::size_t kRunbookSteps = 100;
inline constexpr std::size_t kReplayConfigs = 20;
inline constexpr std::size_t kIncidentsPerRound = 200;
/// Attack shape and honeypot option of examples/ddos_localization.cpp:
/// attacker i (from 0) sends 80 * (i + 1) packets/s for one second per
/// replayed configuration, at most 400 per flow.
inline constexpr std::size_t kAttackersPerIncident = 3;
inline constexpr double kAttackerBasePps = 80.0;
inline constexpr double kMaxPacketsPerFlow = 400;
inline constexpr std::uint64_t kAttackMinPackets = 50;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;             // oracle and check failures
  std::map<std::string, std::string> digests;  // determinism gate
  std::map<std::string, std::size_t> samples;  // sample count per metric
  std::map<std::string, std::vector<double>> raw;  // small sample sets, as measured

  void fail(const std::string& error) {
    if (error.empty()) return;
    correct = false;
    errors.push_back(error);
  }
};

/// One incident: attacker source indices (into the analysis sources), each
/// with its own packet rate.
struct Incident {
  std::vector<std::size_t> attackers;
  std::vector<double> pps;
};
/// The seeded incident series every round replays.
std::vector<Incident> incident_series(std::uint64_t seed, std::size_t sources);

/// Outcome of one incident series over a runbook prefix.
struct SeriesOutcome {
  std::vector<double> latency_ms;  // per incident, generation excluded
  double inspect_ases = 0;         // mean over the series
  std::uint64_t packets = 0;
  std::uint64_t components = 0;
  std::uint64_t attackers_found = 0;
  std::uint64_t digest = 0;        // suspect lists
};

/// Replays `series` over the first kReplayConfigs configurations of
/// `runbook`: packets come from the true catchments (outside the clock), a
/// fresh AmpPotHoneypot ingests each incident, then clustering of the
/// replayed rows, mixture decomposition and likelihood ranking name the
/// suspects. With `check` set, oracles (d) and (e) run on every incident.
SeriesOutcome run_series(const std::vector<Incident>& series,
                         const spooftrack::core::DeploymentResult& deployment,
                         const spooftrack::measure::CatchmentStore& matrix,
                         const std::vector<std::size_t>& runbook,
                         std::size_t link_count, std::uint64_t seed,
                         bool check, RunResult& result);

std::uint64_t matrix_digest(const spooftrack::measure::CatchmentStore& matrix,
                            const std::vector<spooftrack::topology::AsId>& sources);
std::uint64_t runbook_digest(const spooftrack::core::ScheduleTrace& trace);
std::string hex(std::uint64_t value);

/// Median of raw samples (mean of the middle two for an even count); tails
/// use util::percentile's nearest rank.
double median(std::vector<double> samples);

RunResult run_untraced(const WorkloadSpec& spec, const Options& options);
RunResult run_traced(const WorkloadSpec& spec, const Options& options);

/// Worker-count determinism gate: a reduced plan under 1 and 2 workers must
/// give byte-identical artifacts, runbooks and suspect lists.
RunResult run_worker_gate(const WorkloadSpec& spec, const Options& options);

}  // namespace e2ebench
