// The traced run: every per-layer metric comes from here.
//
// It rebuilds the workload's campaign from the layers' public functions —
// propagate_campaign, whose sink snapshots feeds (FeedSimulator::collect)
// and probe paths (ProbePathSet::extract); then per configuration
// TracerouteSim::run_on_path, PathRepair::repair and CatchmentInference::infer
// — on measurement substrates built from the same TestbedConfig the way
// PeeringTestbed builds them. Each call gets a span. The rebuilt campaign
// must reproduce deploy()'s per-configuration results exactly, or the spans
// would describe other work. The runbook and the incident series then run
// through the same steps as the untraced run.
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "journal/journal.hpp"
#include "measure/address_plan.hpp"
#include "measure/driver.hpp"
#include "measure/feed.hpp"
#include "measure/inference.hpp"
#include "measure/ip2as.hpp"
#include "measure/ixp_table.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
#include "topology/synth.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload_steps.hpp"

namespace e2ebench {

namespace sp = spooftrack;
namespace fs = std::filesystem;

namespace {

using sp::util::hash_combine;

/// The testbed's topology synthesis, run on its own (PeeringTestbed
/// synthesizes inside its constructor, where no span can reach).
sp::topology::SynthTopology synthesize(const sp::core::TestbedConfig& config) {
  sp::topology::SynthConfig synth;
  synth.seed = config.seed;
  synth.tier1_count = config.tier1_count;
  synth.transit_count = config.transit_count;
  synth.stub_count = config.stub_count;
  synth.transit_extra_providers = config.transit_extra_providers;
  synth.stub_extra_providers = config.stub_extra_providers;
  synth.transit_peering_prob = config.transit_peering_prob;
  synth.stub_tier1_provider_prob = config.stub_tier1_provider_prob;
  synth.reserved_attract_bonus = config.provider_attract_bonus;
  synth.reserved_position_fraction = config.provider_position_fraction;
  synth.origin_asn = sp::core::kPeeringAsn;
  for (const auto& mux : sp::core::table1_muxes()) {
    synth.reserved_transit_asns.push_back(mux.provider_asn);
  }
  return sp::topology::synthesize(synth);
}

/// Measurement substrates, seeded from the TestbedConfig exactly as
/// PeeringTestbed seeds its own.
struct Substrates {
  Substrates(const sp::core::PeeringTestbed& testbed)
      : config(testbed.config()),
        graph(testbed.graph()),
        plan(graph),
        ixps(graph, config.ixp_count, config.ixp_edge_fraction,
             hash_combine(config.seed, 0x1A9)),
        ip2as(sp::measure::Ip2AsMap::from_plan(
            graph, plan, sp::core::kPeeringAsn,
            {config.ip2as.missing_fraction,
             hash_combine(config.seed, config.ip2as.seed)})),
        feeds(graph, {config.feed.peer_count, config.feed.large_cone_bias,
                      hash_combine(config.seed, config.feed.seed)}),
        tracer(graph, plan, ixps, traceroute_options(config)),
        repair(graph, ip2as, ixps, sp::core::kPeeringAsn),
        inference(graph, testbed.origin()) {}
  Substrates(const Substrates&) = delete;
  Substrates& operator=(const Substrates&) = delete;

  static sp::measure::TracerouteOptions traceroute_options(
      const sp::core::TestbedConfig& config) {
    sp::measure::TracerouteOptions options = config.traceroute;
    options.seed = hash_combine(config.seed, options.seed);
    return options;
  }

  const sp::core::TestbedConfig& config;
  const sp::topology::AsGraph& graph;
  sp::measure::AddressPlan plan;
  sp::measure::IxpTable ixps;
  sp::measure::Ip2AsMap ip2as;
  sp::measure::FeedSimulator feeds;
  sp::measure::TracerouteSim tracer;
  sp::measure::PathRepair repair;
  sp::measure::CatchmentInference inference;
};

struct Rebuilt {
  std::vector<sp::measure::InferenceResult> measured;
  std::vector<sp::bgp::CatchmentMap> truth;
  sp::core::CampaignRunStats stats;
  std::uint64_t traceroutes = 0;
  std::uint64_t hops = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
};

/// Campaign identity as recorded in a journal segment header
/// (docs/checkpointing.md: magic u64, version u32, seq u32, identity hash
/// u64, config count u64, crc u32).
sp::journal::CampaignIdentity journal_identity(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    char header[36] = {};
    if (!in.read(header, sizeof(header))) continue;
    sp::journal::CampaignIdentity identity;
    std::memcpy(&identity.hash, header + 16, sizeof(identity.hash));
    std::memcpy(&identity.config_count, header + 24, sizeof(identity.config_count));
    return identity;
  }
  throw std::runtime_error("no journal segment in " + dir);
}

/// Rebuilds the campaign deploy() ran. With `journal_dir` set, committed
/// configurations are recovered from the journal (replay and digest-checked
/// partials) instead of measured, as a resume does.
Rebuilt rebuild_campaign(const sp::core::PeeringTestbed& testbed,
                         const Substrates& sub,
                         const std::vector<sp::bgp::Configuration>& plan,
                         std::size_t workers, const std::string& journal_dir) {
  Tracer& tracer = Tracer::global();
  const std::size_t n = plan.size();
  const bool measured = testbed.config().measured_catchments;
  Rebuilt out;
  std::vector<char> skip(n, 0);
  if (measured) out.measured.resize(n);
  if (!measured) out.truth.resize(n);

  if (!journal_dir.empty()) {
    ScopedSpan span("journal.recover");
    const auto replayed = sp::journal::replay(journal_dir, journal_identity(journal_dir));
    for (const auto& record : replayed.records) {
      const std::size_t i = record.config_index;
      out.measured[i] =
          sp::journal::load_partial(journal_dir, i, record.row_digest).inference;
      skip[i] = 1;
    }
    out.journal_records = replayed.records.size();
    out.journal_bytes = dir_bytes(journal_dir);
  }

  sp::core::CampaignRunnerOptions runner;
  runner.warm_start = testbed.config().warm_campaign;
  const sp::core::CampaignPlan campaign = sp::core::plan_campaign(plan, runner);
  std::vector<std::size_t> slot_of(n, 0);
  std::vector<char> lead(n, 0);  // first delivery of a propagated outcome
  std::vector<char> slot_live(campaign.unique.size(), 0);
  for (std::size_t u = 0; u < campaign.fanout.size(); ++u) {
    lead[campaign.fanout[u].front()] = 1;
    for (const std::size_t i : campaign.fanout[u]) {
      slot_of[i] = u;
      slot_live[u] |= skip[i] ? 0 : 1;
    }
  }

  struct Snapshot {
    std::shared_ptr<const std::vector<sp::measure::FeedEntry>> feeds;
    std::shared_ptr<const sp::measure::ProbePathSet> paths;
  };
  std::vector<Snapshot> snapshots(campaign.unique.size());
  // A chain's propagation step is the interval between its previous sink
  // return and the sink call delivering the step's outcome.
  std::vector<std::int64_t> chain_last(
      sp::core::campaign_chain_count(n, runner), now_ns());
  {
    ScopedSpan span("bgp.campaign");
    out.stats = sp::core::propagate_campaign(
        testbed.engine(), testbed.origin(), plan,
        [&](std::size_t chain, std::size_t i, const sp::bgp::RoutingOutcome& outcome) {
          if (lead[i]) tracer.record("bgp.step", chain_last[chain], now_ns());
          if (!measured) {
            ScopedSpan catchments("bgp.catchments");
            out.truth[i] = sp::bgp::extract_catchments(outcome, plan[i]);
          } else if (lead[i] && slot_live[slot_of[i]]) {
            Snapshot& snap = snapshots[slot_of[i]];
            {
              ScopedSpan feed("measure.feed");
              snap.feeds = std::make_shared<const std::vector<sp::measure::FeedEntry>>(
                  sub.feeds.collect(outcome));
            }
            {
              ScopedSpan extract("measure.extract");
              snap.paths = std::make_shared<const sp::measure::ProbePathSet>(
                  sp::measure::ProbePathSet::extract(outcome, testbed.probe_ases(),
                                                     testbed.origin_id()));
            }
          }
          chain_last[chain] = now_ns();
        },
        runner);
  }
  if (!measured) return out;

  // Configurations fan out over worker slots in a fixed stride, each slot
  // with its own scratch, as the measurement driver does; the calling
  // thread runs slot 0, so the fan-out holds exactly `workers` threads.
  const auto& probes = testbed.probe_ases();
  const std::uint32_t rounds = testbed.config().traceroute_rounds;
  std::vector<std::uint64_t> traces_of(workers, 0), hops_of(workers, 0);
  std::vector<std::exception_ptr> error_of(workers);
  auto run_slot = [&](std::size_t slot) {
    try {
      sp::measure::MeasurementDriver::Scratch scratch;
      scratch.traces.resize(probes.size() * rounds);
      for (std::size_t i = slot; i < n; i += workers) {
        if (skip[i]) continue;
        const Snapshot& snap = snapshots[slot_of[i]];
        ScopedSpan config("measure.config");
        {
          ScopedSpan traceroute("measure.traceroute");
          std::size_t k = 0;
          for (std::size_t p = 0; p < probes.size(); ++p) {
            const auto path = snap.paths->path(p);
            for (std::uint32_t round = 0; round < rounds; ++round) {
              sub.tracer.run_on_path(path, probes[p], testbed.origin_id(),
                                     hash_combine(i, round), scratch.traces[k++]);
            }
          }
        }
        {
          ScopedSpan repair("measure.repair");
          sub.repair.repair(scratch.traces, *snap.feeds, scratch.repair,
                            scratch.repaired);
        }
        {
          ScopedSpan inference("measure.inference");
          out.measured[i] = sub.inference.infer(*snap.feeds, scratch.repaired,
                                                scratch.inference);
        }
        traces_of[slot] += scratch.traces.size();
        for (const auto& trace : scratch.traces) hops_of[slot] += trace.hops.size();
      }
    } catch (...) {
      error_of[slot] = std::current_exception();
    }
  };
  {
    std::vector<std::thread> helpers;
    for (std::size_t slot = 1; slot < workers; ++slot) {
      helpers.emplace_back(run_slot, slot);
    }
    run_slot(0);
    for (std::thread& helper : helpers) helper.join();
  }
  for (const std::exception_ptr& error : error_of) {
    if (error) std::rethrow_exception(error);
  }
  for (std::size_t s = 0; s < workers; ++s) {
    out.traceroutes += traces_of[s];
    out.hops += hops_of[s];
  }
  return out;
}

std::string compare(const Rebuilt& rebuilt,
                    const sp::core::DeploymentResult& reference) {
  for (std::size_t i = 0; i < reference.configs.size(); ++i) {
    const bool same = reference.measured.empty()
                          ? rebuilt.truth[i].link_of == reference.truth[i].link_of
                          : rebuilt.measured[i] == reference.measured[i];
    if (!same) {
      return "rebuilt campaign differs from deploy() at configuration " +
             std::to_string(i) + " (" + reference.configs[i].label + ")";
    }
  }
  return "";
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace

RunResult run_traced(const WorkloadSpec& spec, const Options& options) {
  Tracer& tracer = Tracer::global();
  RunResult result;
  const sp::core::TestbedConfig config = testbed_config(spec);
  const std::string crashed = options.out_dir + "/journal-crashed";
  const std::string work = options.out_dir + "/journal-work";
  const std::string rebuild_dir = options.out_dir + "/journal-rebuild";

  // Set-up, traced once.
  tracer.set_enabled(true);
  const std::size_t setup_mark = tracer.mark();
  {
    ScopedSpan span("topology.synth");
    synthesize(config);
  }
  Setup setup = build_setup(config);
  const sp::core::PeeringTestbed& testbed = *setup.testbed;
  std::unique_ptr<Substrates> sub;
  {
    ScopedSpan span("measure.substrates");
    sub = std::make_unique<Substrates>(testbed);
  }

  // The deploy() whose results the rebuilt campaign must reproduce.
  std::unique_ptr<sp::core::PeeringTestbed> resumer;
  if (spec.kind == Kind::kResume) {
    const sp::core::PeeringTestbed armed(
        crash_config(spec, crashed, setup.plan.size()));
    result.fail(crash_campaign(armed, setup.plan));
    resumer = std::make_unique<sp::core::PeeringTestbed>(
        resume_config(spec, work));
    restore_dir(crashed, work);
  }
  const auto deployed = deploy(resumer ? *resumer : testbed, setup.plan);
  const sp::core::DeploymentResult& reference = deployed.value;
  tracer.set_enabled(false);

  // The same round untraced, traced, and untraced again; the tracing
  // overhead is the traced wall time minus the mean of the untraced ones,
  // which cancels a drift in host speed across the three.
  struct RoundOut {
    Rebuilt rebuilt;
    Runbook book;
    SeriesOutcome series;
    double wall_ms = 0;
  };
  auto round = [&](bool traced) {
    RoundOut out;
    if (spec.kind == Kind::kResume) restore_dir(crashed, rebuild_dir);
    tracer.set_enabled(traced);
    const std::int64_t start = now_ns();
    out.rebuilt = rebuild_campaign(testbed, *sub, setup.plan, spec.workers,
                                   spec.kind == Kind::kResume ? rebuild_dir : "");
    out.book = runbook(testbed, reference, options.out_dir + "/deployment.artifact",
                       spec.workers, 1);
    const auto series = incident_series(options.seed, out.book.artifact.sources.size());
    out.series = run_series(series, reference, out.book.artifact.matrix,
                            out.book.schedule.order, testbed.origin().links.size(),
                            options.seed, false, result);
    out.wall_ms = static_cast<double>(now_ns() - start) / 1e6;
    tracer.set_enabled(false);
    result.fail(compare(out.rebuilt, reference));
    result.attempted += 2 + series.size();
    return out;
  };
  const RoundOut before = round(false);
  const std::size_t round_mark = tracer.mark();
  const RoundOut traced = round(true);
  const std::size_t round_end = tracer.mark();
  const RoundOut after = round(false);
  const double untraced_ms = (before.wall_ms + after.wall_ms) / 2;

  const auto setup_self = tracer.self_ms(setup_mark);
  auto setup_ms = [&](const char* name) {
    const auto it = setup_self.find(name);
    return it == setup_self.end() ? 0.0 : it->second;
  };
  // Self times of the traced round only (the set-up spans precede it).
  const auto self = tracer.self_ms(round_mark);
  auto ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::vector<double> steps = tracer.durations_ns("bgp.step", round_mark);
  const std::vector<double> configs = tracer.durations_ns("measure.config", round_mark);
  const double deploy_ms = deployed.seconds * 1e3;
  const double propagate_ms = sum(steps) / 1e6;
  const double layer_sum_ms = ms("journal.recover") + propagate_ms +
                              ms("bgp.catchments") + ms("measure.feed") +
                              ms("measure.extract") + ms("measure.traceroute") +
                              ms("measure.repair") + ms("measure.inference");
  const Rebuilt& r = traced.rebuilt;
  const double greedy_ms = ms("core.greedy");
  const std::size_t greedy_steps = traced.book.schedule.order.size();
  result.samples = {{"bgp.step", steps.size()}, {"measure.config", configs.size()}};

  result.metrics = {
      {"topology.synth_ms", "ms", setup_ms("topology.synth")},
      {"core.testbed_ms", "ms", setup_ms("core.testbed")},
      {"core.plan_ms", "ms", setup_ms("core.plan")},
      {"bgp.propagate_ms", "ms", propagate_ms},
      {"bgp.config_p50_us", "us", median(steps) / 1e3},
      {"bgp.config_p95_us", "us", sp::util::percentile(steps, 95) / 1e3},
      {"bgp.rounds", "count", static_cast<double>(r.stats.total_rounds)},
      {"bgp.cold_runs", "count", static_cast<double>(r.stats.cold_runs)},
      {"bgp.warm_runs", "count", static_cast<double>(r.stats.warm_runs)},
      {"measure.feed_ms", "ms", ms("measure.feed")},
      {"measure.extract_ms", "ms", ms("measure.extract")},
      {"measure.traceroute_ms", "ms", ms("measure.traceroute")},
      {"measure.repair_ms", "ms", ms("measure.repair")},
      {"measure.inference_ms", "ms", ms("measure.inference")},
      {"measure.config_p50_ms", "ms", median(configs) / 1e6},
      {"measure.config_p95_ms", "ms", sp::util::percentile(configs, 95) / 1e6},
      {"measure.traceroutes", "count", static_cast<double>(r.traceroutes)},
      {"measure.hops", "count", static_cast<double>(r.hops)},
      {"pipeline.deploy_ms", "ms", deploy_ms},
      {"pipeline.layer_sum_ms", "ms", layer_sum_ms},
      {"pipeline.speedup", "x", deploy_ms > 0 ? layer_sum_ms / deploy_ms : 0.0},
      {"journal.recover_ms", "ms", ms("journal.recover")},
      {"journal.records", "count", static_cast<double>(r.journal_records)},
      {"journal.bytes", "bytes", static_cast<double>(r.journal_bytes)},
      {"core.save_ms", "ms", ms("core.save")},
      {"core.load_ms", "ms", ms("core.load")},
      {"core.artifact_bytes", "bytes", static_cast<double>(traced.book.artifact_bytes)},
      {"core.cluster_ms", "ms", ms("core.cluster")},
      {"core.greedy_ms", "ms", greedy_ms},
      {"core.greedy_step_mean_ms", "ms",
       greedy_steps == 0 ? 0.0 : greedy_ms / static_cast<double>(greedy_steps)},
      {"traffic.ingest_ms", "ms", ms("traffic.ingest")},
      {"traffic.packets", "count", static_cast<double>(traced.series.packets)},
      {"traffic.generate_ms", "ms", ms("traffic.generate")},
      {"core.mixture_ms", "ms", ms("core.mixture")},
      {"core.rank_ms", "ms", ms("core.rank")},
      {"core.components", "count", static_cast<double>(traced.series.components)},
      {"core.attackers_found", "count",
       static_cast<double>(traced.series.attackers_found)},
      {"trace.overhead_ms", "ms", traced.wall_ms - untraced_ms},
      {"trace.spans", "count", static_cast<double>(round_end - round_mark)},
  };
  result.digests = {
      {"matrix", hex(matrix_digest(traced.book.artifact.matrix,
                                   traced.book.artifact.sources))},
      {"runbook", hex(runbook_digest(traced.book.schedule))},
      {"suspects", hex(traced.series.digest)},
  };
  result.raw = {{"round_ms", {before.wall_ms, traced.wall_ms, after.wall_ms}}};
  if (result.digests["suspects"] != hex(before.series.digest) ||
      result.digests["suspects"] != hex(after.series.digest)) {
    result.fail("traced and untraced incident series disagree");
  }

  return result;
}

}  // namespace e2ebench
