// paper-sweep: the paper's design-space sweep at its own operating point.
//
// The §3 default (perfbench/scenarios/paper_default.ini: 57.6k disks,
// (10+2)/(17+3), 1% AFR, one-year mission) is parsed from INI text and
// estimated for C/C, C/D, D/C, D/D x {R_ALL, R_MIN} with every applicable
// method (sim, split, dp; markov only applies to C/C). One round is one
// such sweep, 26 estimates, all with a seed drawn from the run seed. This
// is the rare-event regime: the fleet and pool simulators do nearly all
// the work; server and EC do none. The key operation is split on a
// declustered-local scheme (C/D, D/D): four per sweep, ~60% of its time.
#include <cmath>
#include <map>
#include <memory>

#include "analysis/fleet_sim.hpp"
#include "bench.hpp"
#include "core/estimator.hpp"
#include "core/spec_io.hpp"
#include "util/ini.hpp"

namespace perfbench {
namespace {

using namespace mlec;

struct Case {
  Scenario scenario;
  std::vector<const Estimator*> methods;
  double last_dp = -1.0;  ///< dp nines of the latest sweep (-1: none)
};

std::vector<Case> build_cases(const std::string& ini_text) {
  Scenario base;
  {
    SpanScope span("core.parse");
    base = load_scenario(IniFile::parse_string(ini_text));
  }
  std::vector<Case> cases;
  for (MlecScheme scheme : kAllMlecSchemes)
    for (RepairMethod repair : {RepairMethod::kRepairAll, RepairMethod::kRepairMinimum}) {
      Case c;
      c.scenario = base;
      c.scenario.system.scheme = scheme;
      c.scenario.system.repair = repair;
      for (const Estimator* e : estimator_registry())
        if (e->applicability(c.scenario).empty()) c.methods.push_back(e);
      cases.push_back(std::move(c));
    }
  return cases;
}

/// Timings are process CPU seconds unless named *_wall_s.
struct SweepTotals {
  std::vector<double> sweep_wall_s;
  std::uint64_t estimates = 0;
  double estimate_s = 0.0;
  std::uint64_t fleet_missions = 0, pool_missions = 0;
  double fleet_s = 0.0, pool_s = 0.0;
  std::vector<double> declustered_split_s, declustered_split_wall_s;  ///< the key operation
};

/// A finite, ordered estimate: 0 <= lo <= pdl <= hi <= 1 and nines = -log10(pdl).
bool well_formed(const Estimate& e) {
  const bool ordered = e.pdl_lo >= 0.0 && e.pdl_lo <= e.pdl && e.pdl <= e.pdl_hi && e.pdl_hi <= 1.0;
  const bool nines = e.pdl > 0.0 ? std::abs(e.nines + std::log10(e.pdl)) < 1e-9 : std::isinf(e.nines);
  return ordered && nines;
}

}  // namespace

void run_paper_sweep(const Options& options, Report& report) {
  const std::string ini_text = read_file(options.root + "/perfbench/scenarios/paper_default.ini");

  // Set-up: parse, build the per-scheme fleet contexts, and warm every
  // (scenario, method) pair once on a small mission count.
  std::vector<Case> cases;
  const double setup_s = timed_setup(5, [&] {
    cases = build_cases(ini_text);
    for (const Case& c : cases) {
      make_fleet_context(c.scenario.fleet_config());
      Scenario small = c.scenario;
      small.missions = 20;
      small.split_missions = 200;
      EstimateOptions eo;
      eo.shards = kShards;
      for (const Estimator* e : c.methods) e->estimate(small, eo);
    }
  });

  SweepTotals totals;
  const auto sweep = [&](std::size_t round) {
    const std::uint64_t seed = mix_seed(options.seed, round);
    tracer().current_op = round;
    double sweep_s = 0.0;
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      Scenario scenario = cases[ci].scenario;
      scenario.seed = mix_seed(seed, ci);
      std::map<std::string, Estimate> by_method;
      for (const Estimator* e : cases[ci].methods) {
        const std::string name(e->name());
        EstimateOptions eo;
        eo.shards = kShards;
        Estimate est;
        bool ok = true;
        const Stopwatch watch;
        try {
          const char* span_name = name == "sim"     ? "core.estimate.sim"
                                  : name == "split" ? "core.estimate.split"
                                  : name == "dp"    ? "core.estimate.dp"
                                                    : "core.estimate.markov";
          SpanScope span(span_name);
          est = e->estimate(scenario, eo);
        } catch (const std::exception&) {
          ok = false;
        }
        const double wall = watch.wall_s(), cpu = watch.cpu_s();
        sweep_s += wall;
        ++totals.estimates;
        totals.estimate_s += cpu;
        if (name == "sim") {
          totals.fleet_missions += est.samples;
          totals.fleet_s += cpu;
        } else if (name == "split") {
          totals.pool_missions += est.samples;
          totals.pool_s += cpu;
          if (local_placement(scenario.system.scheme) == Placement::kDeclustered) {
            totals.declustered_split_s.push_back(cpu);
            totals.declustered_split_wall_s.push_back(wall);
          }
        }
        ok = ok && well_formed(est) && !est.degraded;
        report.op(ok, to_string(scenario.system.scheme) + " " + to_string(scenario.system.repair) +
                          " " + name + " estimate malformed or threw");
        if (ok) by_method[name] = est;
      }
      // sim's 95% interval must contain dp's PDL at the same operating point.
      if (by_method.count("sim") && by_method.count("dp"))
        report.check(by_method["sim"].pdl_lo <= by_method["dp"].pdl &&
                         by_method["dp"].pdl <= by_method["sim"].pdl_hi,
                     "sim interval excludes dp PDL for " + to_string(scenario.system.scheme));
      cases[ci].last_dp = by_method.count("dp") ? by_method["dp"].nines : -1.0;
    }
    // R_MIN never loses nines against R_ALL (dp, per scheme).
    for (std::size_t ci = 0; ci + 1 < cases.size(); ci += 2)
      report.check(cases[ci + 1].last_dp >= cases[ci].last_dp,
                   "dp nines under R_MIN below R_ALL for " +
                       to_string(cases[ci].scenario.system.scheme));
    totals.sweep_wall_s.push_back(sweep_s);
    return sweep_s;
  };
  run_rounds(options, report, sweep);

  // Untimed check pass: fleet disk failures per mission against the Poisson
  // mean N * AFR * T, at a 4-sigma band (a false alarm once in ~16k seeds).
  {
    const FleetSimConfig config = cases.front().scenario.fleet_config();
    constexpr std::uint64_t kMissions = 200;
    const FleetSimResult fleet = simulate_fleet(config, kMissions, mix_seed(options.seed, 1u << 30));
    const double n = static_cast<double>(config.dc.total_disks());
    const double mean = n * cases.front().scenario.system.afr * config.mission_hours / 8766.0;
    const double per_mission = static_cast<double>(fleet.disk_failures) / kMissions;
    const double band = 4.0 * std::sqrt(mean / kMissions);
    report.note("check.fleet_failures_per_mission", per_mission, "count");
    report.note("check.poisson_mean", mean, "count");
    report.check(std::abs(per_mission - mean) <= band,
                 "fleet disk failures per mission outside the Poisson band");
  }

  report.note("sweep_s (wall)", median(totals.sweep_wall_s), "s");
  report.note("sweeps", static_cast<double>(totals.sweep_wall_s.size()), "count");
  report.note("key_op_wall_p50_ms", median(totals.declustered_split_wall_s) * 1e3, "ms");
  report.note("fleet_missions_per_s", static_cast<double>(totals.fleet_missions) / totals.fleet_s, "1/s");
  report.note("pool_missions_per_s", static_cast<double>(totals.pool_missions) / totals.pool_s, "1/s");

  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("ops_per_cpu_s", static_cast<double>(totals.estimates) / totals.estimate_s, "1/s");
  report.e2e("key_op_cpu_p50_ms", median(totals.declustered_split_s) * 1e3, "ms");
}

}  // namespace perfbench
