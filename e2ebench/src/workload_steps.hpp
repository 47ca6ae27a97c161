// Operator-path steps shared by the untraced and the traced run. Each step
// opens the span of the layer it calls into (a no-op while tracing is off).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/scheduler.hpp"

namespace e2ebench {

template <typename T>
struct Timed {
  T value;
  double seconds = 0;
};

struct Setup {
  std::unique_ptr<spooftrack::core::PeeringTestbed> testbed;
  std::vector<spooftrack::bgp::Configuration> plan;
};

struct Runbook {
  spooftrack::core::DeploymentArtifact artifact;  // as loaded back
  spooftrack::core::Clustering clustering;        // full matrix (Fig. 3)
  spooftrack::core::ScheduleTrace schedule;       // kRunbookSteps greedy
  std::uint64_t artifact_bytes = 0;
  std::vector<double> seconds;  // wall time of each repeat
  bool repeats_agree = true;    // every repeat gave the same runbook
};

/// Testbed (topology synthesis included) and the 705-configuration plan.
Setup build_setup(const spooftrack::core::TestbedConfig& config);

/// PeeringTestbed::deploy, wall-timed.
Timed<spooftrack::core::DeploymentResult> deploy(
    const spooftrack::core::PeeringTestbed& testbed,
    const std::vector<spooftrack::bgp::Configuration>& plan);

/// Saves the deployment's artifact to `path` (untimed), then times the
/// report path `repeats` times: load it back, cluster it, run the greedy
/// runbook.
Runbook runbook(const spooftrack::core::PeeringTestbed& testbed,
                const spooftrack::core::DeploymentResult& result,
                const std::string& path, std::size_t workers, int repeats);

/// The deployment's artifact, serialized in memory.
std::string artifact_bytes(const spooftrack::core::PeeringTestbed& testbed,
                           const spooftrack::core::DeploymentResult& result);

/// resume-2k7: a journaled campaign armed to crash at the kJournalPreWrite
/// barrier of the plan's midpoint (`configs` / 2; 0 runs it uninterrupted),
/// and the configuration that resumes it.
spooftrack::core::TestbedConfig crash_config(const WorkloadSpec& spec,
                                             const std::string& dir,
                                             std::size_t configs);
spooftrack::core::TestbedConfig resume_config(const WorkloadSpec& spec,
                                              const std::string& dir);
/// Runs the armed campaign; "" when it stopped at its kill-point.
std::string crash_campaign(const spooftrack::core::PeeringTestbed& testbed,
                           const std::vector<spooftrack::bgp::Configuration>& plan);

/// Replaces `to` with a copy of directory `from`.
void restore_dir(const std::string& from, const std::string& to);
/// Total bytes of the regular files directly in `dir`.
std::uint64_t dir_bytes(const std::string& dir);

}  // namespace e2ebench
