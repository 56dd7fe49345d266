// paper-sweep: the paper's §5.1 simulation study (Figs. 3/4) through
// sim::run_sweep, inline on one thread. The traced run recomputes the same
// sweep from the benchmark's own loop over the library's public layer
// calls (trace split → model fit → T_opt search → trace simulation),
// timing each call, and must reproduce run_sweep's per-machine results bit
// for bit.
#include <cstdio>
#include <map>
#include <stdexcept>

#include "driver.hpp"
#include "harvest/core/planner.hpp"
#include "harvest/sim/job_sim.hpp"
#include "harvest/sim/sweep.hpp"
#include "harvest/trace/synthetic.hpp"

namespace perfbench {
namespace {

using namespace harvest;

// The standard synthetic pool of the reproduction benches: 160 machines x
// 120 recorded availability durations.
constexpr std::size_t kMachines = 160;
constexpr std::size_t kDurations = 120;
constexpr int kMinReps = 3;
// Recorded periods are capped at a one-day monitoring horizon. The
// optimizer memoizes a schedule up to the longest period it meets, so an
// uncapped heavy-tailed draw (a 30-day period) alone can double the
// sweep's work and make wall time a lottery over seeds.
constexpr double kMaxPeriodS = 1.0 * 24.0 * 3600.0;

/// The stratified laws of stratified_laws(), sampled from the seed.
std::vector<trace::AvailabilityTrace> make_traces(std::uint64_t seed) {
  const std::vector<dist::DistributionPtr> laws = stratified_laws(kMachines);
  std::vector<trace::AvailabilityTrace> traces;
  traces.reserve(kMachines);
  for (std::size_t m = 0; m < kMachines; ++m) {
    char id[16];
    std::snprintf(id, sizeof id, "m%04zu", m);
    trace::AvailabilityTrace tr = trace::sample_trace(
        *laws[m], kDurations, seed * 0x9E3779B97F4A7C15ULL + m, id);
    for (double& d : tr.durations) d = std::min(d, kMaxPeriodS);
    traces.push_back(std::move(tr));
  }
  return traces;
}

sim::SweepConfig sweep_config() {
  sim::SweepConfig cfg;
  // The checkpoint-cost grid of the paper's Figures 3-4 / Tables 1 and 3.
  cfg.costs = {50, 100, 200, 250, 400, 500, 750, 1000, 1250, 1500};
  cfg.families.assign(core::paper_families().begin(),
                      core::paper_families().end());
  return cfg;
}

/// The deterministic outputs of one sweep, reduced to what the benchmark
/// reports and checks.
struct SweepFigures {
  std::string digest;
  std::uint64_t cells = 0;    ///< (machine, family, cost) cells attempted
  std::uint64_t skipped = 0;  ///< cells dropped from the paired result
  double useful_s = 0.0;
  double machine_s = 0.0;
  double network_mb = 0.0;
};

/// `machine_s[i]` is the experimental-suffix length of trace i: the machine
/// time a job simulated on it consumes.
SweepFigures figures_of(const sim::SweepResult& res,
                        const std::vector<double>& machine_s) {
  SweepFigures out;
  Digest digest;
  const std::uint64_t families = res.families.size();
  for (const auto& row : res.rows) {
    digest.add(row.cost);
    out.cells += kMachines * families;
    out.skipped += (kMachines - row.machines()) * families;
    for (std::size_t f = 0; f < families; ++f) {
      for (std::size_t i = 0; i < row.machines(); ++i) {
        digest.add(row.efficiency[f][i]);
        digest.add(row.network_mb[f][i]);
        // Paired rows hold machines in trace order; with a machine skipped
        // the index no longer names its trace, so the run fails instead.
        if (row.machines() == kMachines) {
          out.useful_s += row.efficiency[f][i] * machine_s[i];
          out.machine_s += machine_s[i];
          out.network_mb += row.network_mb[f][i];
        }
      }
    }
  }
  out.digest = digest.hex();
  return out;
}

/// Per-layer tallies of one traced sweep.
struct LayerTimes {
  double wall_s = 0.0;
  double split_s = 0.0;
  double fit_s = 0.0;
  double em_s = 0.0;
  double optimize_s = 0.0;
  double simulate_s = 0.0;
  double probe_s = 0.0;
  std::vector<double> fit_us;
  std::vector<double> topt_us;
  std::uint64_t periods = 0;
  std::uint64_t transfers = 0;
  std::uint64_t probe_mismatches = 0;
};

double lap(Clock::time_point& t) {
  const auto now = Clock::now();
  const double dt = std::chrono::duration<double>(now - t).count();
  t = now;
  return dt;
}

/// run_sweep recomputed call by call, with each layer timed. Mirrors
/// sim::run_trace_experiment (skip rules, schedule options) and run_sweep
/// (machines paired across families) so the result must be identical.
sim::SweepResult traced_sweep(
    const std::vector<trace::AvailabilityTrace>& traces,
    const sim::SweepConfig& cfg, LayerTimes& lt) {
  const auto start = Clock::now();
  const sim::ExperimentConfig& exp = cfg.experiment;
  core::ScheduleOptions sched_opts;
  sched_opts.optimizer = exp.optimizer;
  sched_opts.condition_on_age = exp.condition_on_age;

  sim::SweepResult result;
  result.families = cfg.families;
  for (const double cost : cfg.costs) {
    core::IntervalCosts costs;
    costs.checkpoint = cost;
    costs.recovery = cost;
    std::vector<std::map<std::string, std::pair<double, double>>> per_family(
        cfg.families.size());
    for (std::size_t f = 0; f < cfg.families.size(); ++f) {
      const core::ModelFamily family = cfg.families[f];
      const bool em = family == core::ModelFamily::kHyperexp2 ||
                      family == core::ModelFamily::kHyperexp3;
      for (const auto& tr : traces) {
        if (tr.size() < exp.train_count + 1) continue;
        auto t = Clock::now();
        const trace::TraceSplit split =
            trace::split_train_test(tr, exp.train_count);
        lt.split_s += lap(t);

        dist::DistributionPtr model;
        bool fitted = true;
        try {
          model = core::Planner::fit_model(split.train, family);
        } catch (const std::exception&) {
          fitted = false;
        }
        const double fit_dt = lap(t);
        lt.fit_s += fit_dt;
        if (em) lt.em_s += fit_dt;
        lt.fit_us.push_back(fit_dt * 1e6);
        if (!fitted) continue;

        // Probe: a first simulation learns how many schedule entries the
        // trace needs, so the optimizer can be timed apart from the
        // simulator below.
        core::CheckpointSchedule probe =
            core::Planner::make_schedule(model, costs, sched_opts);
        lap(t);
        const sim::JobSimResult first =
            sim::simulate_job_on_trace(split.test, probe, exp.job);
        lt.probe_s += lap(t);
        const std::size_t n = probe.computed();

        core::CheckpointSchedule schedule =
            core::Planner::make_schedule(model, costs, sched_opts);
        lt.optimize_s += lap(t);
        for (std::size_t i = 0; i < n; ++i) {
          (void)schedule.entry(i);
          const double dt = lap(t);
          lt.optimize_s += dt;
          lt.topt_us.push_back(dt * 1e6);
        }
        const sim::JobSimResult res =
            sim::simulate_job_on_trace(split.test, schedule, exp.job);
        lt.simulate_s += lap(t);

        if (res.efficiency() != first.efficiency() ||
            res.network_mb != first.network_mb) {
          ++lt.probe_mismatches;
        }
        lt.periods += split.test.size();
        lt.transfers +=
            res.checkpoints_completed + res.checkpoints_interrupted +
            res.recoveries_completed + res.recoveries_interrupted;
        per_family[f][tr.machine_id] = {res.efficiency(), res.network_mb};
      }
    }
    sim::SweepRow row;
    row.cost = cost;
    row.efficiency.resize(cfg.families.size());
    row.network_mb.resize(cfg.families.size());
    for (const auto& [id, unused] : per_family[0]) {
      (void)unused;
      bool everywhere = true;
      for (std::size_t f = 1; f < per_family.size(); ++f) {
        everywhere = everywhere && per_family[f].count(id) > 0;
      }
      if (!everywhere) continue;
      for (std::size_t f = 0; f < per_family.size(); ++f) {
        const auto& [eff, mb] = per_family[f].at(id);
        row.efficiency[f].push_back(eff);
        row.network_mb[f].push_back(mb);
      }
    }
    result.rows.push_back(std::move(row));
  }
  lt.wall_s = seconds_since(start);
  return result;
}

}  // namespace

Outcome run_paper_sweep(const Options& opts) {
  Outcome out;
  std::vector<trace::AvailabilityTrace> traces;
  const double setup_s =
      median_setup_s([&] { traces = make_traces(opts.seed); });
  const sim::SweepConfig cfg = sweep_config();
  std::vector<double> machine_s;
  for (const auto& tr : traces) {
    double total = 0.0;
    for (std::size_t i = cfg.experiment.train_count; i < tr.size(); ++i) {
      total += tr.durations[i];
    }
    machine_s.push_back(total);
  }

  ScaledClock clock;
  std::vector<LayerTimes> traced;
  SweepFigures first;
  const auto check = [&](const SweepFigures& fig, const char* what) {
    out.attempted += fig.cells;
    out.failed += fig.skipped;
    if (out.digest.empty()) {
      out.digest = fig.digest;
      first = fig;
    } else if (fig.digest != out.digest) {
      out.fail(std::string(what) + " digest " + fig.digest +
               " differs from the first run's " + out.digest);
    }
  };

  const auto start = Clock::now();
  while (clock.raw.empty() || (opts.trace && traced.empty()) ||
         seconds_since(start) < opts.seconds ||
         (!opts.trace && clock.raw.size() < kMinReps)) {
    sim::SweepResult res;
    clock.time([&] { res = sim::run_sweep(traces, cfg); });
    check(figures_of(res, machine_s), "run_sweep");
    if (opts.trace) {
      LayerTimes lt;
      const sim::SweepResult res2 = traced_sweep(traces, cfg, lt);
      check(figures_of(res2, machine_s), "traced sweep");
      if (lt.probe_mismatches > 0) {
        out.fail("a simulation on a memoized schedule differed from the "
                 "probe simulation");
      }
      traced.push_back(std::move(lt));
    }
  }
  if (first.skipped > 0) {
    out.fail("machines were skipped; machine time cannot be attributed");
  }
  if (!out.correct) out.failed = out.attempted;

  const double raw_wall_s = median(clock.raw);
  out.note("raw_wall_s", raw_wall_s);
  if (!opts.trace) {
    out.metric("setup_s", setup_s);
    out.metric("wall_s", median(clock.scaled));
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("network_mb_per_useful_h",
               first.network_mb / (first.useful_s / 3600.0));
    out.metric("efficiency", first.useful_s / first.machine_s);
    out.note("reps", static_cast<double>(clock.raw.size()));
    out.note("cells_per_call", static_cast<double>(first.cells));
    return out;
  }

  const auto med = [&](double LayerTimes::*field) {
    std::vector<double> v;
    for (const auto& lt : traced) v.push_back(lt.*field);
    return median(std::move(v));
  };
  std::vector<double> unattributed;
  for (const auto& l : traced) {
    unattributed.push_back(l.wall_s - l.split_s - l.fit_s - l.optimize_s -
                           l.simulate_s - l.probe_s);
  }
  const LayerTimes& lt0 = traced.front();
  const double traced_wall = med(&LayerTimes::wall_s);
  out.metric("trace.split_s", med(&LayerTimes::split_s));
  out.metric("fit.calls", static_cast<double>(lt0.fit_us.size()));
  out.metric("fit.self_s", med(&LayerTimes::fit_s));
  out.metric("fit.p50_us", quantile(lt0.fit_us, 0.50));
  out.metric("fit.p99_us", quantile(lt0.fit_us, 0.99));
  out.metric("fit.em_self_s", med(&LayerTimes::em_s));
  out.metric("core.topt_searches", static_cast<double>(lt0.topt_us.size()));
  out.metric("core.optimize_s", med(&LayerTimes::optimize_s));
  out.metric("core.topt_p50_us", quantile(lt0.topt_us, 0.50));
  out.metric("sim.periods", static_cast<double>(lt0.periods));
  out.metric("sim.transfers", static_cast<double>(lt0.transfers));
  out.metric("sim.simulate_s", med(&LayerTimes::simulate_s));
  out.metric("sweep.probe_s", med(&LayerTimes::probe_s));
  out.metric("sweep.unattributed_s", median(std::move(unattributed)));
  out.metric("trace.overhead_ratio", traced_wall / raw_wall_s);
  out.note("traced_wall_s", traced_wall);
  out.note("traced_reps", static_cast<double>(traced.size()));
  return out;
}

}  // namespace perfbench
