// The four workloads, untraced: every end-to-end metric comes from here.
//
// Each workload is the operator's path from the paper at one scale, with the
// stage it is chosen for doing the timed work: the 705-configuration
// campaign (§IV), the greedy runbook over its matrix (§V-C, Fig. 8), and a
// series of spoofing incidents replayed over the runbook (§III-C, §V-D).
// Timed work runs in whole rounds until --seconds have passed, and every
// round repeats the same operations on the same inputs, so their digests
// must agree round to round.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "core/attribution.hpp"
#include "core/cluster.hpp"
#include "core/io.hpp"
#include "fault/fault.hpp"
#include "host.hpp"
#include "oracles.hpp"
#include "trace.hpp"
#include "traffic/honeypot.hpp"
#include "traffic/spoofer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload_steps.hpp"

namespace e2ebench {

namespace sp = spooftrack;
namespace fs = std::filesystem;

namespace {

// stubs/transit/probes/rounds follow the CLI flags of the same names; the
// 2.7k topology is the CLI default (2,659 ASes). Routing ground truth needs
// no probes, so routing-26k keeps the default count unused.
constexpr WorkloadSpec kWorkloads[] = {
    {"campaign-10k", Kind::kCampaign, 10000, 600, 800, 2, true, 2, 20, 15},
    {"routing-26k", Kind::kCampaign, 24000, 1500, 800, 2, false, 1, 3, 1},
    {"incident-2k7", Kind::kIncident, 2500, 150, 800, 2, true, 1, 3, 1},
    {"resume-2k7", Kind::kResume, 2500, 150, 800, 2, true, 2, 3, 5},
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

sp::core::TestbedConfig testbed_config(const WorkloadSpec& spec) {
  sp::core::TestbedConfig config;
  // The measured Internet at each scale is one fixed snapshot: topology,
  // routing policies, collector peers, probes and measurement noise all
  // derive from kTopologySeed (the CLI's default seed). The run's seed
  // draws the attacks (incident_series): measurement noise drawn per seed
  // moved mean_cluster_size by 8% and inspect_ases by 49% (quartile spread
  // over ten seeds on campaign-10k), more than any bound can allow.
  config.seed = kTopologySeed;
  config.stub_count = spec.stubs;
  config.transit_count = spec.transit;
  config.probe_count = spec.probes;
  config.traceroute_rounds = spec.rounds;
  config.measured_catchments = spec.measured;
  config.measure_workers = spec.workers;
  return config;
}

sp::core::GeneratorOptions plan_options() {
  sp::core::GeneratorOptions gen;
  gen.max_removals = 3;
  gen.max_poison_configs = 347;
  gen.max_community_configs = 0;
  return gen;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::uint64_t matrix_digest(const sp::measure::CatchmentStore& matrix,
                            const std::vector<sp::topology::AsId>& sources) {
  std::uint64_t h = sp::util::mix64(matrix.configs() ^ (matrix.sources() << 32));
  for (const sp::topology::AsId id : sources) h = sp::util::hash_combine(h, id);
  for (std::size_t r = 0; r < matrix.configs(); ++r) {
    const auto row = matrix.row(r);
    for (std::size_t s = 0; s < row.size(); s += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, row.data() + s, std::min<std::size_t>(8, row.size() - s));
      h = sp::util::hash_combine(h, word);
    }
  }
  return h;
}

std::uint64_t runbook_digest(const sp::core::ScheduleTrace& trace) {
  std::uint64_t h = sp::util::mix64(trace.order.size());
  for (std::size_t k = 0; k < trace.order.size(); ++k) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &trace.mean_cluster_size[k], sizeof(bits));
    h = sp::util::hash_combine(sp::util::hash_combine(h, trace.order[k]), bits);
  }
  return h;
}

std::vector<Incident> incident_series(std::uint64_t seed, std::size_t sources) {
  sp::util::Rng rng{sp::util::hash_combine(seed, 0x1AC1DE47ULL)};
  // Attackers are dealt from seeded shuffles of the source set, so a series
  // spreads its attackers over the whole population before reusing one.
  std::vector<std::size_t> deck;
  std::vector<Incident> series(kIncidentsPerRound);
  for (std::size_t k = 0; k < series.size(); ++k) {
    Incident& incident = series[k];
    // The attack of examples/ddos_localization.cpp: three attackers at
    // 80, 160 and 240 packets/s (distinct rates, because equal-rate sources
    // are a degenerate tie for any volume decomposition).
    const std::size_t count = std::min(kAttackersPerIncident, sources);
    while (incident.attackers.size() < count) {
      if (deck.empty()) {
        deck.resize(sources);
        for (std::size_t s = 0; s < sources; ++s) deck[s] = s;
        for (std::size_t s = sources; s > 1; --s) {
          std::swap(deck[s - 1], deck[rng.next_below(s)]);
        }
      }
      const std::size_t pick = deck.back();
      deck.pop_back();
      if (std::find(incident.attackers.begin(), incident.attackers.end(), pick) ==
          incident.attackers.end()) {
        incident.attackers.push_back(pick);
        incident.pps.push_back(kAttackerBasePps *
                               static_cast<double>(incident.attackers.size()));
      }
    }
  }
  return series;
}

SeriesOutcome run_series(const std::vector<Incident>& series,
                         const sp::core::DeploymentResult& deployment,
                         const sp::measure::CatchmentStore& matrix,
                         const std::vector<std::size_t>& runbook,
                         std::size_t link_count, std::uint64_t seed, bool check,
                         RunResult& result) {
  const std::size_t replay = std::min(kReplayConfigs, runbook.size());
  sp::measure::CatchmentStore rows;
  for (std::size_t j = 0; j < replay; ++j) rows.append_row(matrix.row(runbook[j]));

  const sp::netcore::Ipv4Addr victim{198, 51, 100, 9};
  SeriesOutcome out;
  std::uint64_t inspected_total = 0;
  std::uint64_t digest = sp::util::mix64(series.size());
  for (std::size_t k = 0; k < series.size(); ++k) {
    const Incident& incident = series[k];
    // Packet generation stands in for the Internet: outside the clock.
    std::vector<std::vector<sp::traffic::ArrivedPacket>> packets(replay);
    {
      ScopedSpan span("traffic.generate");
      sp::traffic::SpoofedTrafficGenerator generator(sp::util::hash_combine(seed, k));
      std::vector<sp::traffic::SpoofedFlow> flows(incident.attackers.size());
      for (std::size_t a = 0; a < flows.size(); ++a) {
        flows[a].source_as = deployment.sources[incident.attackers[a]];
        flows[a].victim = victim;
        flows[a].protocol = sp::traffic::AmpProtocol::kNtpMonlist;
        flows[a].packets_per_second = incident.pps[a];
      }
      for (std::size_t j = 0; j < replay; ++j) {
        packets[j] = generator.deliver(flows, deployment.truth[runbook[j]], 1.0,
                                       kMaxPacketsPerFlow);
      }
    }

    std::vector<std::vector<std::uint64_t>> counts(replay);
    std::vector<std::vector<double>> shares(replay);
    sp::core::Clustering clustering;
    sp::core::MixtureResult mixture;
    std::vector<std::uint32_t> suspects;
    const std::int64_t start = now_ns();
    {
      ScopedSpan span("incident");
      {
        ScopedSpan ingest("traffic.ingest");
        sp::traffic::HoneypotOptions pot_options;
        pot_options.attack_min_packets = kAttackMinPackets;
        sp::traffic::AmpPotHoneypot pot(link_count, pot_options);
        std::vector<std::uint64_t> before(link_count, 0);
        for (std::size_t j = 0; j < replay; ++j) {
          for (const auto& packet : packets[j]) {
            pot.receive(packet.link, packet.datagram,
                        static_cast<double>(j) + packet.timestamp);
          }
          counts[j].resize(link_count);
          shares[j].assign(link_count, 0.0);
          std::uint64_t total = 0;
          for (std::size_t l = 0; l < link_count; ++l) {
            const std::uint64_t now =
                pot.packets_on(static_cast<sp::bgp::LinkId>(l));
            counts[j][l] = now - before[l];
            before[l] = now;
            total += counts[j][l];
          }
          for (std::size_t l = 0; l < link_count && total > 0; ++l) {
            shares[j][l] = static_cast<double>(counts[j][l]) /
                           static_cast<double>(total);
          }
        }
      }
      {
        ScopedSpan span_cluster("core.cluster");
        clustering = sp::core::cluster_sources(rows);
      }
      {
        ScopedSpan span_mixture("core.mixture");
        mixture = sp::core::attribute_mixture(rows, clustering, shares);
      }
      {
        ScopedSpan span_rank("core.rank");
        const auto ranked = sp::core::attribute_clusters(rows, clustering, shares);
        std::vector<char> listed(clustering.cluster_count, 0);
        for (const auto& component : mixture.components) {
          suspects.push_back(component.cluster);
          listed[component.cluster] = 1;
        }
        for (const std::uint32_t c : ranked.ranking) {
          if (!listed[c]) suspects.push_back(c);
        }
      }
    }
    out.latency_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);

    // Outside the clock: what the operator had to inspect, and the oracles.
    const auto sizes = clustering.sizes();
    std::set<std::uint32_t> pending;
    for (const std::size_t a : incident.attackers) pending.insert(clustering.cluster_of[a]);
    for (const auto& component : mixture.components) {
      for (const std::size_t a : incident.attackers) {
        out.attackers_found += clustering.cluster_of[a] == component.cluster ? 1 : 0;
      }
    }
    std::uint64_t inspected = 0;
    for (const std::uint32_t c : suspects) {
      if (pending.empty()) break;
      inspected += sizes[c];
      pending.erase(c);
    }
    if (!pending.empty()) {
      result.fail("an attacker's cluster is missing from the suspect ranking");
    }
    inspected_total += inspected;
    out.components += mixture.components.size();
    for (const auto& arrived : packets) out.packets += arrived.size();
    for (const std::uint32_t c : suspects) digest = sp::util::hash_combine(digest, c);
    for (const auto& component : mixture.components) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &component.weight, sizeof(bits));
      digest = sp::util::hash_combine(digest, bits);
    }

    if (check) {
      if (k == 0) result.fail(check_clustering(rows, clustering));
      for (std::size_t j = 0; j < replay; ++j) {
        result.fail(check_traffic(packets[j], counts[j],
                                  deployment.truth[runbook[j]]));
      }
      result.fail(check_mixture(mixture, rows, clustering, shares));
    }
  }
  out.inspect_ases = series.empty() ? 0.0
                                    : static_cast<double>(inspected_total) /
                                          static_cast<double>(series.size());
  out.digest = digest;
  return out;
}

// ---------------------------------------------------------------------------
// Steps shared with the traced run (workload_steps.hpp).
// ---------------------------------------------------------------------------

Setup build_setup(const sp::core::TestbedConfig& config) {
  Setup setup;
  {
    ScopedSpan span("core.testbed");
    setup.testbed = std::make_unique<sp::core::PeeringTestbed>(config);
  }
  {
    ScopedSpan span("core.plan");
    setup.plan = setup.testbed->generator(plan_options()).full_plan(setup.testbed->graph());
  }
  return setup;
}

Timed<sp::core::DeploymentResult> deploy(const sp::core::PeeringTestbed& testbed,
                                         const std::vector<sp::bgp::Configuration>& plan) {
  Timed<sp::core::DeploymentResult> out;
  const std::int64_t start = now_ns();
  {
    ScopedSpan span("pipeline.deploy");
    out.value = testbed.deploy(plan);
  }
  out.seconds = seconds_since(start);
  return out;
}

Runbook runbook(const sp::core::PeeringTestbed& testbed,
                const sp::core::DeploymentResult& result, const std::string& path,
                std::size_t workers, int repeats) {
  Runbook out;
  {
    ScopedSpan span("core.save");
    sp::core::save_artifact_file(
        sp::core::make_artifact(result, testbed.config().seed,
                                testbed.graph().size(),
                                testbed.origin().links.size()),
        path);
  }
  out.artifact_bytes = fs::file_size(path);
  std::uint64_t first = 0;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t start = now_ns();
    {
      ScopedSpan span("runbook");
      {
        ScopedSpan load("core.load");
        out.artifact = sp::core::load_artifact_file(path);
      }
      {
        ScopedSpan cluster("core.cluster");
        out.clustering = sp::core::cluster_sources(out.artifact.matrix);
      }
      {
        ScopedSpan greedy("core.greedy");
        out.schedule =
            sp::core::greedy_schedule(out.artifact.matrix, kRunbookSteps, workers);
      }
    }
    out.seconds.push_back(seconds_since(start));
    const std::uint64_t digest = runbook_digest(out.schedule);
    if (r == 0) first = digest;
    out.repeats_agree = out.repeats_agree && digest == first;
  }
  return out;
}

std::string artifact_bytes(const sp::core::PeeringTestbed& testbed,
                           const sp::core::DeploymentResult& result) {
  std::ostringstream out;
  sp::core::save_artifact(
      sp::core::make_artifact(result, testbed.config().seed, testbed.graph().size(),
                              testbed.origin().links.size()),
      out);
  return out.str();
}

sp::core::TestbedConfig crash_config(const WorkloadSpec& spec, const std::string& dir,
                                     std::size_t configs) {
  sp::core::TestbedConfig config = testbed_config(spec);
  config.journal.dir = dir;
  config.faults.crash_site = sp::fault::Site::kJournalPreWrite;
  config.faults.crash_at = configs / 2;  // 0 disarms the kill-point
  return config;
}

sp::core::TestbedConfig resume_config(const WorkloadSpec& spec,
                                      const std::string& dir) {
  sp::core::TestbedConfig config = testbed_config(spec);
  config.journal.dir = dir;
  config.journal.resume = true;
  return config;
}

std::string crash_campaign(const sp::core::PeeringTestbed& testbed,
                           const std::vector<sp::bgp::Configuration>& plan) {
  try {
    ScopedSpan span("journal.crash_run");
    testbed.deploy(plan);
  } catch (const sp::fault::SimulatedCrash&) {
    return "";
  }
  return "the journaled campaign ran to completion past its kill-point";
}

void restore_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// The untraced run.
// ---------------------------------------------------------------------------

namespace {

std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Round-to-round determinism: the first round's digests are the
/// reference every later round must repeat.
void expect_same(RunResult& result, const std::string& key,
                 const std::string& value) {
  const auto [it, inserted] = result.digests.try_emplace(key, value);
  if (!inserted && it->second != value) {
    result.fail(key + " differs between rounds (" + it->second + " vs " + value + ")");
  }
}

void check_runbook_outputs(RunResult& result, const Runbook& book) {
  result.fail(check_clustering(book.artifact.matrix, book.clustering));
  result.fail(check_runbook(book.artifact.matrix, book.schedule));
}

void record_round(RunResult& result, const Runbook& book,
                  const SeriesOutcome& series) {
  if (!book.repeats_agree) result.fail("runbook differs between repeats");
  expect_same(result, "matrix",
              hex(matrix_digest(book.artifact.matrix, book.artifact.sources)));
  expect_same(result, "runbook", hex(runbook_digest(book.schedule)));
  expect_same(result, "suspects", hex(series.digest));
  expect_same(result, "mean_cluster_size", exact(book.clustering.mean_size()));
  expect_same(result, "inspect_ases", exact(series.inspect_ases));
}

}  // namespace

RunResult run_untraced(const WorkloadSpec& spec, const Options& options) {
  RunResult result;
  const std::string artifact_path = options.out_dir + "/deployment.artifact";
  const std::string crashed = options.out_dir + "/journal-crashed";
  const std::string work = options.out_dir + "/journal-work";
  std::vector<double> setup_s, configs_per_s, runbook_ms, incident_ms;

  // Set-up, repeated; the last one is kept. incident-2k7 starts from a
  // finished campaign, resume-2k7 from a campaign stopped at its
  // kill-point: both count as set-up there.
  Setup setup;
  std::unique_ptr<sp::core::PeeringTestbed> resumer;
  std::optional<sp::core::DeploymentResult> deployment;
  std::optional<Runbook> book;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    setup = {};
    resumer.reset();
    deployment.reset();
    const std::int64_t start = now_ns();
    setup = build_setup(testbed_config(spec));
    if (spec.kind == Kind::kIncident) {
      auto deployed = deploy(*setup.testbed, setup.plan);
      configs_per_s.push_back(static_cast<double>(setup.plan.size()) / deployed.seconds);
      deployment = std::move(deployed.value);
    } else if (spec.kind == Kind::kResume) {
      const sp::core::PeeringTestbed armed(
          crash_config(spec, crashed, setup.plan.size()));
      result.fail(crash_campaign(armed, setup.plan));
      resumer = std::make_unique<sp::core::PeeringTestbed>(
          resume_config(spec, work));
    }
    setup_s.push_back(seconds_since(start));
  }
  const std::size_t links = setup.testbed->origin().links.size();

  // Oracle (f) reference: the same campaign journaled without a crash.
  std::string reference;
  if (spec.kind == Kind::kResume) {
    const sp::core::PeeringTestbed whole(
        crash_config(spec, options.out_dir + "/journal-reference", 0));
    reference = artifact_bytes(whole, whole.deploy(setup.plan));
  }

  // Timed rounds: whole rounds until --seconds have passed (at least two,
  // so the incident tail has enough samples). Oracles run on the first
  // round outside the clock and outside the round budget.
  std::vector<Incident> series;
  SeriesOutcome last;
  const std::int64_t timed_start = now_ns();
  double excluded = 0;
  std::size_t rounds = 0;
  while (result.failed == 0 &&
         (rounds < 2 || seconds_since(timed_start) - excluded < options.seconds)) {
    const bool first = rounds++ == 0;
    try {
      const sp::core::PeeringTestbed& testbed =
          spec.kind == Kind::kResume ? *resumer : *setup.testbed;
      if (spec.kind != Kind::kIncident) {
        if (spec.kind == Kind::kResume) restore_dir(crashed, work);
        ++result.attempted;
        auto deployed = deploy(testbed, setup.plan);
        configs_per_s.push_back(static_cast<double>(setup.plan.size()) / deployed.seconds);
        deployment = std::move(deployed.value);
      }
      result.attempted += spec.runbook_repeats;
      book = runbook(testbed, *deployment, artifact_path, spec.workers,
                     spec.runbook_repeats);
      for (const double t : book->seconds) runbook_ms.push_back(t * 1e3);
      if (series.empty()) {
        series = incident_series(options.seed, book->artifact.sources.size());
      }
      if (first) {
        const std::int64_t start = now_ns();
        check_runbook_outputs(result, *book);
        if (!spec.measured) {
          result.fail(check_routes(*setup.testbed, setup.plan, deployment->truth,
                                   options.seed, 8, 200));
        }
        if (spec.kind == Kind::kResume) {
          result.fail(check_same_bytes(artifact_bytes(testbed, *deployment), reference));
        }
        excluded += seconds_since(start);
      }
      result.attempted += series.size();
      last = run_series(series, *deployment, book->artifact.matrix,
                        book->schedule.order, links, options.seed, first, result);
      incident_ms.insert(incident_ms.end(), last.latency_ms.begin(),
                         last.latency_ms.end());
      record_round(result, *book, last);
    } catch (const std::exception& e) {
      ++result.failed;
      result.errors.push_back(std::string("operation failed: ") + e.what());
    }
  }

  result.raw = {{"setup_s", setup_s}, {"configs_per_s", configs_per_s},
                {"runbook_ms", runbook_ms}};
  result.samples = {{"setup_s", setup_s.size()},
                    {"configs_per_s", configs_per_s.size()},
                    {"runbook_ms", runbook_ms.size()},
                    {"incident_ms", incident_ms.size()},
                    {"rounds", rounds}};
  result.metrics = {
      {"setup_s", "s", median(setup_s)},
      {"configs_per_s", "configs/s", median(configs_per_s)},
      {"runbook_ms", "ms", median(runbook_ms)},
      {"incident_p50_ms", "ms", median(incident_ms)},
      {"incident_p95_ms", "ms", sp::util::percentile(incident_ms, 95)},
      {"mean_cluster_size", "ASes", book ? book->clustering.mean_size() : 0.0},
      {"inspect_ases", "ASes", last.inspect_ases},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  return result;
}

RunResult run_worker_gate(const WorkloadSpec& spec, const Options& options) {
  RunResult result;
  constexpr std::size_t kReducedPlan = 64;  // the location phase
  std::map<std::string, std::string> first;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    setenv("SPOOFTRACK_THREADS", std::to_string(workers).c_str(), 1);
    sp::core::TestbedConfig config = testbed_config(spec);
    config.measure_workers = workers;
    Setup setup = build_setup(config);
    setup.plan.resize(std::min(kReducedPlan, setup.plan.size()));
    std::optional<sp::core::DeploymentResult> deployed;
    if (spec.kind == Kind::kResume) {
      const std::string crashed = options.out_dir + "/gate-journal";
      sp::core::TestbedConfig armed = crash_config(spec, crashed,
                                                   setup.plan.size());
      armed.measure_workers = workers;
      result.fail(crash_campaign(sp::core::PeeringTestbed(armed), setup.plan));
      sp::core::TestbedConfig resumed = resume_config(spec, crashed);
      resumed.measure_workers = workers;
      deployed = sp::core::PeeringTestbed(resumed).deploy(setup.plan);
    } else {
      deployed = setup.testbed->deploy(setup.plan);
    }
    const Runbook book = runbook(*setup.testbed, *deployed,
                                 options.out_dir + "/gate.artifact", workers, 1);
    const auto series = incident_series(options.seed, book.artifact.sources.size());
    const SeriesOutcome outcome =
        run_series(series, *deployed, book.artifact.matrix, book.schedule.order,
                   setup.testbed->origin().links.size(), options.seed, false, result);
    const std::map<std::string, std::string> digests = {
        {"artifact", hex(sp::util::hash_combine(
                         0, std::hash<std::string>{}(artifact_bytes(*setup.testbed,
                                                                    *deployed))))},
        {"runbook", hex(runbook_digest(book.schedule))},
        {"suspects", hex(outcome.digest)},
    };
    for (const auto& [key, value] : digests) {
      result.digests[key + "@" + std::to_string(workers)] = value;
      const auto [it, inserted] = first.try_emplace(key, value);
      if (!inserted && it->second != value) {
        result.fail(key + " differs between 1 and 2 workers");
      }
    }
  }
  setenv("SPOOFTRACK_THREADS", std::to_string(spec.workers).c_str(), 1);
  result.attempted = 1;
  return result;
}

}  // namespace e2ebench
