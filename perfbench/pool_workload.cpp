// pool-contended and pool-ranked: whole-pool emulations through
// condor::run_pool_simulation on a synthetic park whose machines carry
// their availability laws directly, as harvestd's park does.
//
//   pool-contended  checkpoint traffic queues at a 4-shard fleet; the
//                   contended spine and the server/fleet layers dominate.
//   pool-ranked     uncontended, model-ranked matchmaking with a good
//                   failure predictor: the network-minimizing setup, where
//                   matchmaker scoring does nearly all the work.
//
// The traced run attaches the engines' own PhaseProfiler hook; by the
// hooks contract its results must be bit-identical to the untraced run's.
#include <cmath>

#include "driver.hpp"
#include "harvest/condor/pool_simulation.hpp"
#include "harvest/obs/prof.hpp"
#include "harvest/trace/synthetic.hpp"

namespace perfbench {
namespace {

using namespace harvest;

constexpr int kMinReps = 3;

// Model-ranked negotiation grows steeply with park and queue size (8.5 s a
// call at 512 machines x 128 jobs on a 4-core x86 host), so pool-ranked
// runs at half that scale to fit several calls into one run.
std::size_t park_machines(bool ranked) { return ranked ? 256 : 512; }

/// The park harvestd builds: a seeded synthetic pool's ground-truth laws.
std::vector<condor::TimelinePool::MachineSpec> make_park(std::size_t machines,
                                                         std::uint64_t seed) {
  trace::PoolSpec spec;
  spec.machine_count = machines;
  spec.durations_per_machine = 60;
  spec.seed = seed;
  std::vector<condor::TimelinePool::MachineSpec> specs;
  specs.reserve(machines);
  for (auto& m : trace::generate_pool(spec)) {
    condor::TimelinePool::MachineSpec s;
    s.id = m.trace.machine_id;
    s.availability_law = std::move(m.ground_truth);
    specs.push_back(std::move(s));
  }
  return specs;
}

condor::PoolSimConfig pool_config(bool ranked, std::uint64_t seed) {
  condor::PoolSimConfig cfg;
  cfg.seed = seed;
  cfg.work_per_job_s = 8.0 * 3600.0;
  if (ranked) {
    cfg.job_count = 64;
    cfg.family = core::ModelFamily::kWeibull;
    cfg.policy = condor::MatchPolicy::kModelRanked;
    predict::PredictorConfig pc;
    pc.precision = 0.9;
    pc.recall = 0.8;
    pc.window_s = 600.0;
    cfg.scenario.predictor = pc;
  } else {
    cfg.job_count = 256;
    cfg.family = core::ModelFamily::kHyperexp2;
    cfg.policy = condor::MatchPolicy::kRandom;
    server::FleetConfig fc;
    fc.shards = 4;
    fc.routing = server::RoutingPolicy::kStatic;
    fc.server.capacity_mbps = 12.0;
    fc.server.slots = 3;
    fc.server.stagger_window_s = 120.0;
    cfg.scenario.fleet = fc;
  }
  return cfg;
}

void digest_stats(Digest& d, const server::ServerStats& s) {
  for (const std::uint64_t v :
       {s.submitted, s.started, s.queued, s.deferred, s.rejected, s.completed,
        s.interrupted, static_cast<std::uint64_t>(s.peak_queue_depth),
        static_cast<std::uint64_t>(s.peak_active)}) {
    d.add(v);
  }
  d.add(s.moved_mb);
  d.add(s.total_wait_s);
  d.add(s.total_service_s);
}

/// Digest over every deterministic output: makespan, each job's stats, the
/// fleet ledger (aggregate and per shard) and the predictor tallies.
std::string digest_of(const condor::PoolSimResult& res) {
  Digest d;
  d.add(res.makespan_s);
  for (const auto& j : res.jobs) {
    d.add(static_cast<std::uint64_t>(j.finished));
    d.add(j.completion_s);
    d.add(j.useful_work_s);
    d.add(j.lost_work_s);
    d.add(j.moved_mb);
    d.add(j.server_wait_s);
    for (const std::size_t v : {j.placements, j.evictions, j.rejected_submits,
                                j.proactive_checkpoints}) {
      d.add(static_cast<std::uint64_t>(v));
    }
  }
  digest_stats(d, res.fleet.total);
  for (const auto& shard : res.fleet.shards) digest_stats(d, shard);
  for (const std::uint64_t v :
       {res.predictor.events, res.predictor.true_alerts,
        res.predictor.false_alerts, res.predictor.missed}) {
    d.add(v);
  }
  return d.hex();
}

/// The pool's output checks; returns the number of failed jobs.
std::uint64_t check_result(const condor::PoolSimResult& res, bool contended,
                           Outcome& out) {
  const std::uint64_t unfinished = res.jobs.size() - res.finished_count();
  if (unfinished > 0) {
    out.fail(std::to_string(unfinished) + " jobs did not finish");
  }
  if (contended) {
    double jobs_mb = 0.0;
    for (const auto& j : res.jobs) jobs_mb += j.moved_mb;
    const double ledger_mb = res.fleet.total.moved_mb;
    if (!(std::abs(jobs_mb - ledger_mb) <=
          1e-6 * std::max(1.0, std::abs(ledger_mb)))) {
      out.fail("per-job MB " + std::to_string(jobs_mb) +
               " != fleet ledger MB " + std::to_string(ledger_mb));
    }
  }
  return unfinished;
}

/// Phases the library's PROF_PHASE scopes report under the default engine
/// selection. The megapool engine's phases (and the thread pool it alone
/// creates) never run here.
const std::vector<const char*>& pool_phases() {
  static const std::vector<const char*> kPhases = {
      "fit.models",
      "contended.negotiate",
      "contended.drain",
      "fleet.submit",
      "fleet.drain",
      "server.admission",
      "server.drain",
      "server.schedule",
      "uncontended.negotiate",
      "uncontended.placement"};
  return kPhases;
}

}  // namespace

Outcome run_pool(const Options& opts, bool ranked) {
  Outcome out;
  std::vector<condor::TimelinePool::MachineSpec> park;
  const double setup_s = median_setup_s(
      [&] { park = make_park(park_machines(ranked), opts.seed); });
  const condor::PoolSimConfig cfg = pool_config(ranked, opts.seed);
  const bool contended = cfg.scenario.fleet.has_value();

  ScaledClock clock;
  std::vector<double> traced_walls;
  condor::PoolSimResult first;
  obs::prof::ProfileReport report;
  const auto check = [&](const condor::PoolSimResult& res, const char* what) {
    out.attempted += res.jobs.size();
    out.failed += check_result(res, contended, out);
    const std::string digest = digest_of(res);
    if (out.digest.empty()) {
      out.digest = digest;
      first = res;
    } else if (digest != out.digest) {
      out.fail(std::string(what) + " digest " + digest +
               " differs from the first run's " + out.digest);
    }
  };

  const auto start = Clock::now();
  while (clock.raw.empty() || (opts.trace && traced_walls.empty()) ||
         seconds_since(start) < opts.seconds ||
         (!opts.trace && clock.raw.size() < kMinReps)) {
    condor::PoolSimResult res;
    clock.time([&] { res = condor::run_pool_simulation(park, cfg); });
    check(res, "untraced run");
    if (opts.trace) {
      obs::prof::PhaseProfiler profiler;
      condor::PoolSimConfig traced_cfg = cfg;
      traced_cfg.hooks.profiler = &profiler;
      const auto t = Clock::now();
      res = condor::run_pool_simulation(park, traced_cfg);
      traced_walls.push_back(seconds_since(t));
      check(res, "profiled run");
      // The report of the median-wall run would need every report kept;
      // the last one is as representative and bounded in memory.
      report = profiler.report();
      if (!report.conservation_ok) {
        out.fail("profiler conservation (self <= wall per thread) broken");
      }
    }
  }
  if (!out.correct) out.failed = out.attempted;

  double useful_s = 0.0;
  double completion_s = 0.0;
  double moved_mb = 0.0;
  double lost_s = 0.0;
  std::uint64_t placements = 0;
  std::uint64_t evictions = 0;
  for (const auto& j : first.jobs) {
    useful_s += j.useful_work_s;
    completion_s += j.completion_s;
    moved_mb += j.moved_mb;
    lost_s += j.lost_work_s;
    placements += j.placements;
    evictions += j.evictions;
  }
  const double raw_wall_s = median(clock.raw);
  const server::ServerStats& ledger = first.fleet.total;
  out.note("mean_completion_h", first.mean_completion_s() / 3600.0);
  out.note("transfer_wait_s", ledger.mean_wait_s());
  out.note("makespan_h", first.makespan_s / 3600.0);
  out.note("raw_wall_s", raw_wall_s);
  if (!opts.trace) {
    out.metric("setup_s", setup_s);
    out.metric("wall_s", median(clock.scaled));
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("network_mb_per_useful_h", moved_mb / (useful_s / 3600.0));
    out.metric("efficiency", useful_s / completion_s);
    out.note("reps", static_cast<double>(clock.raw.size()));
    return out;
  }

  double self_total = 0.0;
  for (const auto& row : report.phases) {
    if (!row.latency) self_total += row.self_s;
  }
  for (const char* phase : pool_phases()) {
    const std::string base = std::string("prof.") + phase;
    out.metric(base + ".self_s", report.self_seconds(phase));
    out.metric(base + ".count",
               static_cast<double>(report.scope_count(phase)));
  }
  const double traced_wall = traced_walls.back();
  out.metric("pool.unattributed_s", traced_wall - self_total);
  out.metric("server.submitted", static_cast<double>(ledger.submitted));
  out.metric("server.completed", static_cast<double>(ledger.completed));
  out.metric("server.interrupted", static_cast<double>(ledger.interrupted));
  out.metric("server.rejected", static_cast<double>(ledger.rejected));
  out.metric("server.useful_ratio",
             ledger.submitted > 0 ? static_cast<double>(ledger.completed) /
                                        static_cast<double>(ledger.submitted)
                                  : 0.0);
  out.metric("server.peak_queue",
             static_cast<double>(ledger.peak_queue_depth));
  out.metric("server.mean_wait_s", ledger.mean_wait_s());
  out.metric("fleet.imbalance",
             contended ? first.fleet.imbalance_ratio() : 0.0);
  out.metric("condor.placements", static_cast<double>(placements));
  out.metric("condor.evictions", static_cast<double>(evictions));
  out.metric("condor.lost_work_h", lost_s / 3600.0);
  const predict::PredictorStats& ps = first.predictor;
  out.metric("predict.events", static_cast<double>(ps.events));
  out.metric("predict.true_alerts", static_cast<double>(ps.true_alerts));
  out.metric("predict.false_alerts", static_cast<double>(ps.false_alerts));
  out.metric("predict.precision_obs", ps.observed_precision());
  out.metric("predict.recall_obs", ps.observed_recall());
  out.metric("proactive.checkpoints",
             static_cast<double>(first.total_proactive_checkpoints()));
  out.metric("trace.overhead_ratio", median(traced_walls) / raw_wall_s);
  out.note("traced_wall_s", traced_wall);
  out.note("profiled_self_s", self_total);
  return out;
}

}  // namespace perfbench
