// Each benchmark oracle accepts the library's real output on a tiny
// topology and rejects the same output with one planted error.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/scheduler.hpp"
#include "oracles.hpp"
#include "traffic/honeypot.hpp"
#include "traffic/spoofer.hpp"

namespace e2ebench {
namespace {

namespace sp = spooftrack;

sp::core::TestbedConfig tiny_config(bool measured) {
  sp::core::TestbedConfig config;
  config.seed = 11;
  config.tier1_count = 4;
  config.transit_count = 25;
  config.stub_count = 150;
  config.probe_count = 60;
  config.traceroute_rounds = 1;
  config.feed.peer_count = 30;
  config.measured_catchments = measured;
  config.measure_workers = 1;
  return config;
}

struct Tiny {
  explicit Tiny(bool measured)
      : testbed(tiny_config(measured)),
        plan(testbed.generator().location_phase()),
        deployment(testbed.deploy(plan)) {}
  sp::core::PeeringTestbed testbed;
  std::vector<sp::bgp::Configuration> plan;
  sp::core::DeploymentResult deployment;
};

const Tiny& measured() {
  static const Tiny tiny(true);
  return tiny;
}

const Tiny& ground_truth() {
  static const Tiny tiny(false);
  return tiny;
}

TEST(OracleA, AcceptsClusteringAndRejectsAMovedSource) {
  const auto& matrix = measured().deployment.matrix;
  auto clustering = sp::core::cluster_sources(matrix);
  EXPECT_EQ(check_clustering(matrix, clustering), "");

  // Move source 0 into the cluster of a source whose column differs.
  const auto labels = group_by_column(matrix);
  const auto other = std::find_if(labels.begin(), labels.end(),
                                  [&](std::uint32_t l) { return l != labels[0]; });
  ASSERT_NE(other, labels.end());
  clustering.cluster_of[0] = clustering.cluster_of[other - labels.begin()];
  EXPECT_NE(check_clustering(matrix, clustering), "");
}

TEST(OracleA, RejectsAWrongClusterCount) {
  const auto& matrix = measured().deployment.matrix;
  auto clustering = sp::core::cluster_sources(matrix);
  ++clustering.cluster_count;
  EXPECT_NE(check_clustering(matrix, clustering), "");
}

TEST(OracleB, AcceptsGreedyRunbookAndRejectsPlantedErrors) {
  const auto& matrix = measured().deployment.matrix;
  const auto trace = sp::core::greedy_schedule(matrix, 10, 1);
  EXPECT_EQ(check_runbook(matrix, trace), "");

  auto swapped = trace;
  std::swap(swapped.order[0], swapped.order[1]);
  EXPECT_NE(check_runbook(matrix, swapped), "");

  auto inflated = trace;
  inflated.mean_cluster_size[3] += 0.5;
  EXPECT_NE(check_runbook(matrix, inflated), "");

  auto repeated = trace;
  repeated.order[4] = repeated.order[2];
  EXPECT_NE(check_runbook(matrix, repeated), "");
}

TEST(OracleC, AcceptsEngineRoutesAndRejectsPlantedPaths) {
  const Tiny& tiny = ground_truth();
  const auto& testbed = tiny.testbed;
  EXPECT_EQ(check_routes(testbed, tiny.plan, tiny.deployment.truth, 5, 6, 100), "");

  const auto& graph = testbed.graph();
  const auto origin = testbed.origin_id();
  const auto outcome = testbed.route(tiny.plan[0]);
  const auto& truth = tiny.deployment.truth[0];
  // A source at least three hops out.
  sp::topology::AsId source = 0;
  std::vector<sp::topology::AsId> path;
  for (; source < graph.size(); ++source) {
    if (source == origin || truth.link_of[source] == sp::bgp::kNoCatchment) continue;
    path = sp::bgp::forwarding_path(outcome, source, origin);
    if (path.size() >= 4) break;
  }
  ASSERT_GE(path.size(), 4u);
  const auto provider = testbed.origin().links[truth.link_of[source]].provider;
  EXPECT_EQ(check_path(graph, path, source, origin, provider), "");

  // Entering the origin through another link.
  const auto other = testbed.origin().links[(truth.link_of[source] + 1) %
                                            testbed.origin().links.size()].provider;
  EXPECT_NE(check_path(graph, path, source, origin, other), "");

  // A hop between ASes that share no edge.
  auto jumped = path;
  for (sp::topology::AsId x = 0; x < graph.size(); ++x) {
    if (!graph.relationship(jumped[0], x) && x != jumped[0]) {
      jumped[1] = x;
      break;
    }
  }
  EXPECT_NE(check_path(graph, jumped, source, origin, provider), "");

  // A valley: down to a customer, then up to another of its providers.
  for (sp::topology::AsId stub = 0; stub < graph.size(); ++stub) {
    const auto providers = graph.neighbors_with(stub, sp::topology::Rel::kProvider);
    if (providers.size() < 2 || stub == origin) continue;
    auto tail = sp::bgp::forwarding_path(outcome, providers[1], origin);
    if (tail.size() < 2) continue;
    std::vector<sp::topology::AsId> valley = {providers[0], stub};
    valley.insert(valley.end(), tail.begin(), tail.end());
    const auto via = graph.asn_of(valley[valley.size() - 2]);
    EXPECT_NE(check_path(graph, valley, providers[0], origin, via), "");
    return;
  }
  FAIL() << "no multihomed AS in the tiny topology";
}

struct Replay {
  std::vector<sp::traffic::ArrivedPacket> packets;
  std::vector<std::uint64_t> counts;
};

Replay replay_one(const Tiny& tiny, std::size_t config) {
  sp::traffic::SpoofedTrafficGenerator generator(3);
  std::vector<sp::traffic::SpoofedFlow> flows(2);
  for (std::size_t a = 0; a < flows.size(); ++a) {
    flows[a].source_as = tiny.deployment.sources[3 + 7 * a];
    flows[a].victim = {198, 51, 100, 9};
    flows[a].packets_per_second = 40.0 * static_cast<double>(a + 1);
  }
  Replay replay;
  replay.packets = generator.deliver(flows, tiny.deployment.truth[config], 1.0, 1e6);
  const std::size_t links = tiny.testbed.origin().links.size();
  sp::traffic::AmpPotHoneypot pot(links);
  for (const auto& p : replay.packets) pot.receive(p.link, p.datagram, p.timestamp);
  for (std::size_t l = 0; l < links; ++l) {
    replay.counts.push_back(pot.packets_on(static_cast<sp::bgp::LinkId>(l)));
  }
  return replay;
}

TEST(OracleD, AcceptsHoneypotCountsAndRejectsPlantedErrors) {
  const Tiny& tiny = measured();
  const auto& truth = tiny.deployment.truth[0];
  Replay replay = replay_one(tiny, 0);
  ASSERT_FALSE(replay.packets.empty());
  EXPECT_EQ(check_traffic(replay.packets, replay.counts, truth), "");

  auto miscounted = replay.counts;
  ++miscounted[replay.packets[0].link];
  EXPECT_NE(check_traffic(replay.packets, miscounted, truth), "");

  auto misrouted = replay.packets;
  misrouted[0].link = static_cast<sp::bgp::LinkId>(
      (misrouted[0].link + 1) % tiny.testbed.origin().links.size());
  EXPECT_NE(check_traffic(misrouted, replay.counts, truth), "");
}

TEST(OracleE, AcceptsMixtureAndRejectsPlantedWeights) {
  const Tiny& tiny = measured();
  sp::measure::CatchmentStore rows;
  std::vector<std::vector<double>> volumes;
  for (std::size_t c = 0; c < 8; ++c) {
    rows.append_row(tiny.deployment.matrix.row(c));
    const Replay replay = replay_one(tiny, c);
    volumes.emplace_back(replay.counts.begin(), replay.counts.end());
  }
  const auto clustering = sp::core::cluster_sources(rows);
  const auto mixture = sp::core::attribute_mixture(rows, clustering, volumes);
  ASSERT_FALSE(mixture.components.empty());
  EXPECT_EQ(check_mixture(mixture, rows, clustering, volumes), "");

  auto unbalanced = mixture;
  unbalanced.residual_fraction += 0.1;
  EXPECT_NE(check_mixture(unbalanced, rows, clustering, volumes), "");

  auto overweight = mixture;
  overweight.components[0].weight += 0.2;
  overweight.residual_fraction -= 0.2;
  EXPECT_NE(check_mixture(overweight, rows, clustering, volumes), "");
}

TEST(OracleF, RejectsAnArtifactWithOneFlippedByte) {
  const Tiny& tiny = measured();
  std::ostringstream out;
  sp::core::save_artifact(
      sp::core::make_artifact(tiny.deployment, 11, tiny.testbed.graph().size(),
                              tiny.testbed.origin().links.size()),
      out);
  const std::string bytes = out.str();
  EXPECT_EQ(check_same_bytes(bytes, bytes), "");
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_NE(check_same_bytes(flipped, bytes), "");
  EXPECT_NE(check_same_bytes(bytes.substr(1), bytes), "");
}

}  // namespace
}  // namespace e2ebench
