// crosscheck: the three committed examples/scenarios/crosscheck_*.ini run
// through run_crosscheck with every applicable method, a fresh seed per
// pass. One round is one pass over the three files. The same simulators as
// paper-sweep, but in the hot-AFR regime where losses are observed:
// catastrophe handling, the LRC loss test and per-estimate fixed costs weigh
// far more here. The key operation is the crosscheck of crosscheck_mlec,
// where all four methods apply.
#include <cmath>
#include <limits>
#include <map>

#include "analysis/crosscheck.hpp"
#include "bench.hpp"
#include "core/spec_io.hpp"
#include "util/ini.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace mlec;

constexpr const char* kFiles[] = {"crosscheck_slec", "crosscheck_mlec", "crosscheck_lrc"};

/// Estimates of one (scenario, method) pooled over a run's passes.
struct Pool {
  std::uint64_t losses = 0, missions = 0;  // sim: exact binomial pooling
  double pdl_sum = 0.0, half_width_sum = 0.0;
  std::size_t n = 0;
  bool stochastic = false;
  std::string method;

  void add(const Estimate& e) {
    ++n;
    stochastic = e.stochastic;
    pdl_sum += e.pdl;
    half_width_sum += (e.pdl_hi - e.pdl_lo) / 2.0;
    if (method == "sim") {
      losses += static_cast<std::uint64_t>(std::llround(e.pdl * static_cast<double>(e.samples)));
      missions += e.samples;
    }
  }
  /// Pooled 95% interval in nines, [lo, hi] with lo <= hi.
  std::pair<double, double> nines() const {
    const auto to_nines = [](double p) {
      return p > 0.0 ? -std::log10(p) : std::numeric_limits<double>::infinity();
    };
    double lo, hi;
    if (method == "sim") {
      ProportionEstimate pe;
      pe.add_many(losses, missions);
      const auto ci = pe.wilson();
      lo = ci.lo;
      hi = ci.hi;
    } else {
      // Independent passes: the mean's half-width shrinks by sqrt(n).
      const double mean = pdl_sum / static_cast<double>(n);
      const double half = stochastic ? half_width_sum / static_cast<double>(n) / std::sqrt(n) : 0.0;
      lo = std::max(mean - half, 0.0);
      hi = mean + half;
    }
    return {to_nines(hi), to_nines(lo)};
  }
};

double gap(std::pair<double, double> a, std::pair<double, double> b) {
  if (a.second < b.first) return b.first - a.second;
  if (b.second < a.first) return a.first - b.second;
  return 0.0;
}

}  // namespace

void run_crosscheck(const Options& options, Report& report) {
  std::vector<std::string> texts;
  for (const char* f : kFiles)
    texts.push_back(read_file(options.root + "/examples/scenarios/" + f + ".ini"));

  std::vector<Scenario> scenarios;
  const double setup_s = timed_setup(5, [&] {
    scenarios.clear();
    for (const std::string& text : texts) {
      SpanScope span("core.parse");
      scenarios.push_back(load_scenario(IniFile::parse_string(text)));
    }
    // Warm-up: one full pass at the files' own seeds.
    for (const Scenario& s : scenarios) {
      CrosscheckOptions co;
      co.estimate.shards = kShards;
      mlec::run_crosscheck(s, co);
    }
  });

  std::map<std::string, Pool> pools;  // "<file>/<method>"
  // CPU seconds, except pass_wall_s; key: one crosscheck of crosscheck_mlec.
  std::vector<double> pass_wall_s, key_s, key_wall_s;
  std::size_t crosschecks = 0, divergent = 0;
  double crosscheck_s = 0.0;
  const auto pass = [&](std::size_t round) {
    tracer().current_op = round;
    double total = 0.0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      Scenario s = scenarios[i];
      s.seed = mix_seed(options.seed, round * 8 + i);
      CrosscheckOptions co;
      co.estimate.shards = kShards;
      const Stopwatch watch;
      CrosscheckReport cr;
      bool ok = true;
      try {
        SpanScope span("analysis.run_crosscheck");
        cr = mlec::run_crosscheck(s, co);
      } catch (const std::exception&) {
        ok = false;
      }
      const double wall = watch.wall_s(), cpu = watch.cpu_s();
      total += wall;
      if (i == 1) {
        key_s.push_back(cpu);
        key_wall_s.push_back(wall);
      }
      ++crosschecks;
      crosscheck_s += cpu;
      for (const CrosscheckRow& row : cr.rows) {
        ok = ok && !row.failed && !(row.applicable && row.estimate.degraded);
        if (row.ran()) {
          Pool& pool = pools[std::string(kFiles[i]) + "/" + row.method];
          pool.method = row.method;
          pool.add(row.estimate);
        }
      }
      ok = ok && cr.methods_run() >= 3;
      report.op(ok, std::string(kFiles[i]) + " crosscheck threw or a method failed");
      if (!cr.agreed()) ++divergent;
    }
    pass_wall_s.push_back(total);
    return total;
  };
  run_rounds(options, report, pass);

  // Pooled over the run, every pair of methods on one scenario agrees within
  // the harness's 1-nines tolerance. Single-seed divergences happen by chance
  // (about 1% of seeds) and are only counted.
  for (const char* f : kFiles)
    for (const auto& [key_a, a] : pools)
      for (const auto& [key_b, b] : pools) {
        if (key_a >= key_b || key_a.rfind(f, 0) != 0 || key_b.rfind(f, 0) != 0) continue;
        const double g = gap(a.nines(), b.nines());
        report.check(g <= 1.0, key_a + " vs " + key_b + " pooled estimates " + std::to_string(g) +
                                   " nines apart");
      }
  for (const auto& [key, pool] : pools) report.note("pooled_nines_lo." + key, pool.nines().first, "nines");
  report.note("single_seed_divergences", static_cast<double>(divergent), "count");
  report.note("crosschecks_per_s (wall)", 3.0 / median(pass_wall_s), "1/s");
  report.note("key_op_wall_p50_ms", median(key_wall_s) * 1e3, "ms");
  report.note("passes", static_cast<double>(pass_wall_s.size()), "count");

  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("ops_per_cpu_s", static_cast<double>(crosschecks) / crosscheck_s, "1/s");
  report.e2e("key_op_cpu_p50_ms", median(key_s) * 1e3, "ms");
}

}  // namespace perfbench
