// Independent oracles for the benchmark's outputs. Each check recomputes the
// property from the library's public outputs with code of its own (no call
// back into the code under test for the answer) and returns an empty string
// when the output holds, or a one-line description of the first violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/scheduler.hpp"
#include "measure/catchment_store.hpp"
#include "topology/as_graph.hpp"
#include "traffic/spoofer.hpp"

namespace e2ebench {

/// Partition of the sources by their full catchment column over `rows`
/// (all rows when empty), labelled densely in first-appearance order.
std::vector<std::uint32_t> group_by_column(
    const spooftrack::measure::CatchmentStore& matrix,
    const std::vector<std::size_t>& rows = {});

/// Relabels any partition densely in first-appearance order, so two
/// partitions are equal exactly when their canonical labels are.
std::vector<std::uint32_t> canonical(const std::vector<std::uint32_t>& labels);

/// (a) The clustering groups sources exactly by their full column.
std::string check_clustering(const spooftrack::measure::CatchmentStore& matrix,
                             const spooftrack::core::Clustering& clustering);

/// (b) Runbook: distinct configurations; every step's mean cluster size
/// equals the grouping of (a) over the deployed prefix; the value never
/// increases; step 1 is the brute-force argmin (ties: lowest index).
std::string check_runbook(const spooftrack::measure::CatchmentStore& matrix,
                          const spooftrack::core::ScheduleTrace& trace);

/// (c) One data-plane path: `path` runs from `source` to `origin` over real
/// graph adjacencies, is valley-free (up*, at most one peer, down*), and
/// enters the origin from `link_provider`.
std::string check_path(const spooftrack::topology::AsGraph& graph,
                       const std::vector<spooftrack::topology::AsId>& path,
                       spooftrack::topology::AsId source,
                       spooftrack::topology::AsId origin,
                       spooftrack::topology::Asn link_provider);

/// (c) Routes `config_sample` configurations through
/// PeeringTestbed::route and checks `sources_per_config` seeded sources'
/// forwarding paths with check_path against the link `truth` names.
std::string check_routes(const spooftrack::core::PeeringTestbed& testbed,
                         const std::vector<spooftrack::bgp::Configuration>& configs,
                         const std::vector<spooftrack::bgp::CatchmentMap>& truth,
                         std::uint64_t seed, std::size_t config_sample,
                         std::size_t sources_per_config);

/// (d) Traffic side of one replayed configuration: the honeypot's per-link
/// counts match the generated packets link by link (so they sum to the
/// packets generated), and every packet arrived on its source's true
/// catchment.
std::string check_traffic(
    const std::vector<spooftrack::traffic::ArrivedPacket>& packets,
    const std::vector<std::uint64_t>& link_counts,
    const spooftrack::bgp::CatchmentMap& truth);

/// (e) Attribution side: weights plus residual equal 1, and each
/// component's weight is at most the smallest observed share on its
/// cluster's link across the replayed configurations.
std::string check_mixture(
    const spooftrack::core::MixtureResult& mixture,
    const spooftrack::measure::CatchmentStore& deployed_rows,
    const spooftrack::core::Clustering& clustering,
    const std::vector<std::vector<double>>& link_volume_per_config);

/// (f) Byte identity of two serialized artifacts.
std::string check_same_bytes(const std::string& got, const std::string& want);

}  // namespace e2ebench
