#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "bgp/engine.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace sp = spooftrack;

namespace {

/// Splits a partition by one more catchment row: two sources stay together
/// exactly when they were together and share this row's cell. New labels
/// are handed out in first-appearance order, so the labelling is
/// canonical.
class ColumnGrouper {
 public:
  explicit ColumnGrouper(std::size_t sources)
      : label_(sources, 0), count_(sources == 0 ? 0 : 1) {}

  void refine(std::span<const std::uint8_t> row) {
    std::unordered_map<std::uint64_t, std::uint32_t> next;
    next.reserve(count_ * 2);
    for (std::size_t s = 0; s < label_.size(); ++s) {
      const std::uint64_t key = (std::uint64_t{label_[s]} << 8) | row[s];
      const auto [it, inserted] =
          next.try_emplace(key, static_cast<std::uint32_t>(next.size()));
      label_[s] = it->second;
    }
    count_ = next.size();
  }

  const std::vector<std::uint32_t>& labels() const { return label_; }
  double mean_size() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(label_.size()) /
                             static_cast<double>(count_);
  }

 private:
  std::vector<std::uint32_t> label_;
  std::size_t count_;
};

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::vector<std::uint32_t> group_by_column(
    const sp::measure::CatchmentStore& matrix,
    const std::vector<std::size_t>& rows) {
  ColumnGrouper grouper(matrix.sources());
  if (rows.empty()) {
    for (std::size_t r = 0; r < matrix.configs(); ++r) grouper.refine(matrix.row(r));
  } else {
    for (const std::size_t r : rows) grouper.refine(matrix.row(r));
  }
  return grouper.labels();
}

std::vector<std::uint32_t> canonical(const std::vector<std::uint32_t>& labels) {
  std::unordered_map<std::uint32_t, std::uint32_t> renamed;
  std::vector<std::uint32_t> out(labels.size());
  for (std::size_t s = 0; s < labels.size(); ++s) {
    out[s] = renamed.try_emplace(labels[s],
                                 static_cast<std::uint32_t>(renamed.size()))
                 .first->second;
  }
  return out;
}

std::string check_clustering(const sp::measure::CatchmentStore& matrix,
                             const sp::core::Clustering& clustering) {
  if (clustering.cluster_of.size() != matrix.sources()) {
    return "clustering covers " + std::to_string(clustering.cluster_of.size()) +
           " sources, matrix has " + std::to_string(matrix.sources());
  }
  const std::vector<std::uint32_t> want = group_by_column(matrix);
  const std::vector<std::uint32_t> got = canonical(clustering.cluster_of);
  for (std::size_t s = 0; s < want.size(); ++s) {
    if (want[s] != got[s]) {
      return "source " + std::to_string(s) +
             " is grouped differently from its catchment column";
    }
  }
  const std::uint32_t groups =
      want.empty() ? 0 : *std::max_element(want.begin(), want.end()) + 1;
  if (groups != clustering.cluster_count) {
    return "cluster_count " + std::to_string(clustering.cluster_count) +
           " but columns form " + std::to_string(groups) + " groups";
  }
  return "";
}

std::string check_runbook(const sp::measure::CatchmentStore& matrix,
                          const sp::core::ScheduleTrace& trace) {
  const std::size_t steps = trace.order.size();
  if (trace.mean_cluster_size.size() != steps) {
    return "runbook has " + std::to_string(steps) + " configurations but " +
           std::to_string(trace.mean_cluster_size.size()) + " values";
  }
  if (steps == 0) return matrix.configs() == 0 ? "" : "empty runbook";
  std::set<std::size_t> seen;
  for (const std::size_t c : trace.order) {
    if (c >= matrix.configs() || !seen.insert(c).second) {
      return "runbook repeats or overruns configuration " + std::to_string(c);
    }
  }

  // Step 1 by brute force: the row with the most distinct cells gives the
  // smallest mean cluster size; ties go to the lowest index.
  std::size_t best = 0;
  std::size_t best_distinct = 0;
  for (std::size_t c = 0; c < matrix.configs(); ++c) {
    bool present[256] = {};
    std::size_t distinct = 0;
    for (const std::uint8_t cell : matrix.row(c)) {
      distinct += present[cell] ? 0 : 1;
      present[cell] = true;
    }
    if (distinct > best_distinct) {
      best_distinct = distinct;
      best = c;
    }
  }
  if (trace.order[0] != best) {
    return "runbook step 1 deploys configuration " +
           std::to_string(trace.order[0]) + ", brute-force argmin is " +
           std::to_string(best);
  }

  ColumnGrouper grouper(matrix.sources());
  for (std::size_t k = 0; k < steps; ++k) {
    grouper.refine(matrix.row(trace.order[k]));
    const double want = grouper.mean_size();
    if (!close(trace.mean_cluster_size[k], want)) {
      return "runbook step " + std::to_string(k + 1) + " reports mean size " +
             std::to_string(trace.mean_cluster_size[k]) + ", grouping gives " +
             std::to_string(want);
    }
    if (k > 0 && trace.mean_cluster_size[k] > trace.mean_cluster_size[k - 1]) {
      return "runbook mean cluster size increases at step " +
             std::to_string(k + 1);
    }
  }
  return "";
}

std::string check_path(const sp::topology::AsGraph& graph,
                       const std::vector<sp::topology::AsId>& path,
                       sp::topology::AsId source, sp::topology::AsId origin,
                       sp::topology::Asn link_provider) {
  using sp::topology::Rel;
  const std::string who = "path from AS " + std::to_string(graph.asn_of(source));
  if (path.size() < 2 || path.front() != source || path.back() != origin) {
    return who + " does not run from the source to the origin";
  }
  int phase = 0;  // 0 = climbing, 1 = crossed a peer link, 2 = descending
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto rel = graph.relationship(path[i], path[i + 1]);
    if (!rel) return who + " uses a non-adjacent hop at position " + std::to_string(i);
    if (*rel == Rel::kProvider) {
      if (phase != 0) return who + " climbs after its peak (valley)";
    } else if (*rel == Rel::kPeer) {
      if (phase != 0) return who + " crosses a second peer or peers downhill";
      phase = 1;
    } else {
      phase = 2;
    }
  }
  if (graph.asn_of(path[path.size() - 2]) != link_provider) {
    return who + " enters the origin from AS " +
           std::to_string(graph.asn_of(path[path.size() - 2])) +
           ", truth names the link of AS " + std::to_string(link_provider);
  }
  return "";
}

std::string check_routes(const sp::core::PeeringTestbed& testbed,
                         const std::vector<sp::bgp::Configuration>& configs,
                         const std::vector<sp::bgp::CatchmentMap>& truth,
                         std::uint64_t seed, std::size_t config_sample,
                         std::size_t sources_per_config) {
  const auto& graph = testbed.graph();
  const auto& links = testbed.origin().links;
  sp::util::Rng rng{sp::util::hash_combine(seed, 0xC0C0ULL)};
  for (std::size_t k = 0; k < config_sample && !configs.empty(); ++k) {
    const std::size_t c = rng.next_below(configs.size());
    const sp::bgp::RoutingOutcome outcome = testbed.route(configs[c]);
    std::vector<sp::topology::AsId> path;
    for (std::size_t j = 0; j < sources_per_config; ++j) {
      const auto source =
          static_cast<sp::topology::AsId>(rng.next_below(graph.size()));
      if (source == testbed.origin_id()) continue;
      const sp::bgp::LinkId link = truth[c].link_of[source];
      sp::bgp::forwarding_path_into(outcome, source, testbed.origin_id(), path);
      if (link == sp::bgp::kNoCatchment) {
        if (!path.empty()) {
          return "configuration " + configs[c].label +
                 ": a source without a catchment has a forwarding path";
        }
        continue;
      }
      if (link >= links.size()) return "truth names an unknown link";
      const std::string error = check_path(graph, path, source,
                                           testbed.origin_id(),
                                           links[link].provider);
      if (!error.empty()) return "configuration " + configs[c].label + ": " + error;
    }
  }
  return "";
}

std::string check_traffic(const std::vector<sp::traffic::ArrivedPacket>& packets,
                          const std::vector<std::uint64_t>& link_counts,
                          const sp::bgp::CatchmentMap& truth) {
  std::vector<std::uint64_t> expect(link_counts.size(), 0);
  for (const auto& packet : packets) {
    if (packet.true_source >= truth.size() ||
        packet.link != truth.link_of[packet.true_source]) {
      return "a packet arrived on a link other than its source's catchment";
    }
    if (packet.link >= expect.size()) return "a packet arrived on an unknown link";
    ++expect[packet.link];
  }
  for (std::size_t link = 0; link < expect.size(); ++link) {
    if (expect[link] != link_counts[link]) {
      return "honeypot counted " + std::to_string(link_counts[link]) +
             " packets on link " + std::to_string(link) + ", " +
             std::to_string(expect[link]) + " were sent there";
    }
  }
  return "";
}

std::string check_mixture(const sp::core::MixtureResult& mixture,
                          const sp::measure::CatchmentStore& deployed_rows,
                          const sp::core::Clustering& clustering,
                          const std::vector<std::vector<double>>& volumes) {
  double total = mixture.residual_fraction;
  for (const auto& component : mixture.components) total += component.weight;
  if (std::fabs(total - 1.0) > 1e-9) {
    return "mixture weights plus residual sum to " + std::to_string(total);
  }
  for (const auto& component : mixture.components) {
    const auto first = std::find(clustering.cluster_of.begin(),
                                 clustering.cluster_of.end(), component.cluster);
    if (first == clustering.cluster_of.end()) return "component names an empty cluster";
    const std::size_t member =
        static_cast<std::size_t>(first - clustering.cluster_of.begin());
    double bound = 1.0;
    for (std::size_t c = 0; c < deployed_rows.configs(); ++c) {
      const sp::bgp::LinkId link =
          sp::measure::CatchmentStore::decode(deployed_rows.row(c)[member]);
      double share = 0.0;
      double sum = 0.0;
      for (const double v : volumes[c]) sum += v;
      if (link < volumes[c].size() && sum > 0.0) share = volumes[c][link] / sum;
      bound = std::min(bound, share);
    }
    if (component.weight > bound + 1e-12) {
      return "component of cluster " + std::to_string(component.cluster) +
             " weighs " + std::to_string(component.weight) +
             ", above its smallest observed share " + std::to_string(bound);
    }
  }
  return "";
}

std::string check_same_bytes(const std::string& got, const std::string& want) {
  if (got.size() != want.size()) {
    return "artifact is " + std::to_string(got.size()) + " bytes, reference " +
           std::to_string(want.size());
  }
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  if (diff.first != got.end()) {
    return "artifact differs from the reference at byte " +
           std::to_string(diff.first - got.begin());
  }
  return "";
}

}  // namespace e2ebench
