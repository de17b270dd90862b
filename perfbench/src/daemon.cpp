// daemon: an in-process EstimationService + Server on loopback with a
// durable state dir, driven by one client thread that opens one connection
// per request, as `mlecctl submit` does.
//
// One round starts a fresh daemon on a fresh state dir under the work dir
// (inside the checkout; its filesystem is printed), runs a fixed plan of 90
// requests in a seeded order, checks the answers, and stops the daemon.
// Every round holds the same multiset of work; only the order, the seeds
// and the scenario variants come from the run seed. The plan mixes five
// kinds:
//   cold      15 dp + 15 markov on crosscheck_mlec variants (AFR drawn per
//             request, so every fingerprint is new)
//   campaign  sim and split on each of the three crosscheck INIs (6)
//   hit       30 finished jobs resubmitted verbatim
//   iso       15 finished jobs re-spelled: keys reversed in every section,
//             20 TB written as 20000GB, a comment added
//   join      one per crosscheck INI (sim): submit without waiting, the same
//             submit waiting (it joins the in-flight job), then watch the
//             first job -- 3 requests each
// The ledger therefore grows to ~40 jobs per round and the server holds 90
// finished connections before the round's stop() reaps them.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/chaos.hpp"
#include "bench.hpp"
#include "daemon.hpp"
#include "core/spec_io.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "util/ini.hpp"

namespace perfbench {
namespace {

using namespace mlec;
using namespace mlec::server;

constexpr const char* kFiles[] = {"crosscheck_slec", "crosscheck_mlec", "crosscheck_lrc"};

enum class Kind { kCold, kCampaign, kHit, kIso, kJoin };

/// One planned request (a join is three). `variant` picks the method for
/// cold requests and the INI (and method) for campaigns and joins.
struct Planned {
  Kind kind;
  std::size_t variant = 0;
};

std::vector<Planned> round_plan() {
  std::vector<Planned> plan;
  for (std::size_t i = 0; i < 30; ++i) plan.push_back({Kind::kCold, i % 2});
  for (std::size_t i = 0; i < 6; ++i) plan.push_back({Kind::kCampaign, i});
  for (std::size_t i = 0; i < 30; ++i) plan.push_back({Kind::kHit});
  for (std::size_t i = 0; i < 15; ++i) plan.push_back({Kind::kIso});
  for (std::size_t i = 0; i < 3; ++i) plan.push_back({Kind::kJoin, i});
  return plan;
}

/// A finished job the plan can resubmit.
struct Done {
  std::string ini;
  std::string method;
  std::uint64_t seed;
  std::uint64_t fingerprint;
  Estimate estimate;
};

std::string replace_line(const std::string& text, const std::string& key, const std::string& value) {
  const auto at = text.find("\n" + key + " = ");
  if (at == std::string::npos) throw std::runtime_error("scenario has no key " + key);
  const auto end = text.find('\n', at + 1);
  return text.substr(0, at + 1) + key + " = " + value + text.substr(end);
}

/// Same scenario, different spelling: every section's keys in reverse
/// order, the disk capacity in GB, and a comment line.
std::string respell(const std::string& ini) {
  std::vector<std::pair<std::string, std::vector<std::string>>> sections;
  std::size_t pos = 0;
  while (pos < ini.size()) {
    auto end = ini.find('\n', pos);
    if (end == std::string::npos) end = ini.size();
    std::string line = ini.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') sections.push_back({line, {}});
    else if (!sections.empty()) {
      if (line.rfind("disk_capacity_tb = 20", 0) == 0 && line.size() == 21)
        line = "disk_capacity_tb = 20000GB";
      sections.back().second.push_back(line);
    }
  }
  std::string out = "# re-spelled submission\n";
  for (const auto& [header, keys] : sections) {
    out += header + "\n";
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) out += *it + "\n";
  }
  return out;
}

/// The response's estimate; nullopt when it carries none or a malformed one.
std::optional<Estimate> estimate_of(const json::Value& resp) {
  const json::Value* e = resp.get("estimate");
  if (e == nullptr) return std::nullopt;
  try {
    return estimate_from_json(*e);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Both present and bit-identical in every answer field.
bool same_estimate(const std::optional<Estimate>& a, const std::optional<Estimate>& b) {
  return a && b && diff_estimates(*a, *b).empty();
}

}  // namespace

json::Value submit_request(const std::string& ini, const std::string& method, std::uint64_t seed,
                           bool wait) {
  json::Value req = json::Value::object();
  req.set("op", "submit");
  req.set("scenario_ini", ini);
  req.set("method", method);
  req.set("client", "perfbench");
  req.set("seed", json::u64_to_string(seed));
  req.set("wait", wait);
  return req;
}

Daemon::Daemon(std::string state_dir) : dir_(std::move(state_dir)) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  ServiceConfig config;
  config.state_dir = dir_;
  config.pool = nullptr;
  config.runners = 1;
  config.shards = kShards;
  service_ = std::make_unique<EstimationService>(config);
  service_->start();
  server_ = std::make_unique<Server>(*service_, ServerConfig{"127.0.0.1", 0});
  server_->start();
}

Daemon::~Daemon() {
  server_->stop();
  service_->stop();
  server_.reset();
  service_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

json::Value Daemon::request(const json::Value& req) {
  Client client("127.0.0.1", server_->port());
  return client.request(req);
}

void run_daemon(const Options& options, Report& report) {
  std::vector<std::string> campaign_inis;
  for (const char* f : kFiles)
    campaign_inis.push_back(read_file(options.root + "/examples/scenarios/" + f + ".ini"));
  const std::string cold_base = campaign_inis[1];
  const std::string state_root = options.work_dir + "/mlecd-state";
  std::printf("# daemon          fsync skipped while the workload runs (see fsync_shim.cpp)\n");
  skip_fsync = true;
  const std::uint64_t skipped_before = fsyncs_skipped.load();

  // Per-kind request latency: process CPU seconds (all threads: client,
  // connection, runner) and wall seconds.
  std::vector<double> setups;
  std::vector<double> latency[5], latency_wall[5];
  std::uint64_t requests = 0, joins_joined = 0;
  double request_s = 0.0, request_wall_s = 0.0, ledger_kb = 0.0;

  const auto round = [&](std::size_t r) {
    Choice choice(mix_seed(options.seed, r));
    // Set-up: fresh state dir, daemon start, and a warm-up ping + dp submit.
    const Stopwatch setup_watch;
    Daemon daemon(state_root + "-" + std::to_string(options.seed));
    {
      json::Value ping = json::Value::object();
      ping.set("op", "ping");
      daemon.request(ping);
      daemon.request(submit_request(cold_base, "dp", 1, true));
    }
    setups.push_back(setup_watch.cpu_s());

    std::vector<Planned> plan = round_plan();
    for (std::size_t i = plan.size(); i > 1; --i) std::swap(plan[i - 1], plan[choice.below(i)]);
    // Hits need a finished job: the first cold request goes first.
    std::swap(*std::find_if(plan.begin(), plan.end(),
                            [](const Planned& p) { return p.kind == Kind::kCold; }),
              plan[0]);

    std::vector<Done> done;
    double round_s = 0.0;
    struct Timed {
      bool ok;
      double wall, cpu;
    };
    const auto timed = [&](Kind kind, const json::Value& req, json::Value& resp) {
      tracer().current_op = requests;
      const Stopwatch watch;
      bool ok = true;
      try {
        SpanScope span(kind == Kind::kHit ? "server.request.hit"
                       : kind == Kind::kIso ? "server.request.iso"
                       : kind == Kind::kCold ? "server.request.cold"
                       : kind == Kind::kCampaign ? "server.request.campaign"
                                                 : "server.request.join");
        resp = daemon.request(req);
        // A watch stream ends in a terminal event instead of an ok flag.
        ok = resp.bool_or("ok", false) || resp.str_or("event", "") == "done";
      } catch (const std::exception&) {
        ok = false;
      }
      const Timed t{ok, watch.wall_s(), watch.cpu_s()};
      ++requests;
      request_s += t.cpu;
      request_wall_s += t.wall;
      round_s += t.wall;
      return t;
    };
    const auto record = [&](Kind kind, const Timed& t) {
      latency[static_cast<int>(kind)].push_back(t.cpu);
      latency_wall[static_cast<int>(kind)].push_back(t.wall);
    };

    for (const auto [kind, variant] : plan) {
      json::Value resp;
      if (kind == Kind::kCold || kind == Kind::kCampaign) {
        Done d;
        if (kind == Kind::kCold) {
          char afr[32];
          std::snprintf(afr, sizeof afr, "%.6f", 0.2 + 0.6 * choice.uniform());
          d.ini = replace_line(cold_base, "afr", afr);
          d.method = variant == 0 ? "dp" : "markov";
        } else {
          d.ini = campaign_inis[variant % 3];
          d.method = variant < 3 ? "sim" : "split";
        }
        d.seed = choice.next() >> 1;
        const Timed t = timed(kind, submit_request(d.ini, d.method, d.seed, true), resp);
        const std::optional<Estimate> estimate = estimate_of(resp);
        const bool good = t.ok && resp.str_or("state", "") == "done" &&
                          !resp.bool_or("cached", true) && estimate.has_value();
        if (good) {
          d.fingerprint = json::u64_from_string(resp.str_or("fingerprint", "0"));
          d.estimate = *estimate;
          done.push_back(d);
          record(kind, t);
        }
        report.op(good, std::string(kind == Kind::kCold ? "cold " : "campaign ") + d.method +
                            " submission failed");
      } else if (kind == Kind::kHit || kind == Kind::kIso) {
        const Done& d = done[choice.below(done.size())];
        const std::string ini = kind == Kind::kHit ? d.ini : respell(d.ini);
        const Timed t = timed(kind, submit_request(ini, d.method, d.seed, true), resp);
        const bool good = t.ok && resp.bool_or("cached", false) &&
                          resp.str_or("fingerprint", "") == json::u64_to_string(d.fingerprint) &&
                          same_estimate(estimate_of(resp), d.estimate);
        if (good) record(kind, t);
        report.op(good, std::string(kind == Kind::kHit ? "hit " : "isomorphic ") + d.method +
                            " did not return the cold estimate's bits");
      } else {
        Done d;
        d.ini = campaign_inis[variant];
        d.method = "sim";
        d.seed = choice.next() >> 1;
        json::Value first, second, watched;
        const Timed t1 = timed(kind, submit_request(d.ini, d.method, d.seed, false), first);
        const Timed t2 = timed(kind, submit_request(d.ini, d.method, d.seed, true), second);
        json::Value watch = json::Value::object();
        watch.set("op", "watch");
        watch.set("job", first.str_or("job", ""));
        const Timed t3 = timed(kind, watch, watched);
        report.op(t1.ok, "join: first submission failed");
        const std::optional<Estimate> estimate = estimate_of(second);
        const bool good = t2.ok && second.str_or("job", "") == first.str_or("job", "-") &&
                          watched.str_or("event", "") == "done" &&
                          same_estimate(estimate, estimate_of(watched));
        report.op(good, "join: the two parties received different estimates");
        report.op(t3.ok, "join: watch failed");
        if (good) {
          joins_joined += second.bool_or("joined", false) ? 1 : 0;
          record(kind, t2);
          d.fingerprint = json::u64_from_string(second.str_or("fingerprint", "0"));
          d.estimate = *estimate;
          done.push_back(d);
        }
      }
    }
    ledger_kb = std::max(ledger_kb, static_cast<double>(std::filesystem::file_size(
                                        daemon.dir() + "/state.json")) / 1024.0);

    // Untimed: one campaign and one closed-form answer per round must equal
    // an in-process Estimator::estimate with the same seed and shards.
    for (bool campaign : {true, false}) {
      std::vector<const Done*> pick;
      for (const Done& d : done)
        if ((d.method == "sim" || d.method == "split") == campaign) pick.push_back(&d);
      if (pick.empty()) continue;
      const Done& d = *pick[choice.below(pick.size())];
      Scenario s = load_scenario(IniFile::parse_string(d.ini));
      s.seed = d.seed;
      EstimateOptions eo;
      eo.shards = kShards;
      eo.checkpoint_every = ServiceConfig{}.checkpoint_every;
      const std::string diff = diff_estimates(find_estimator(d.method)->estimate(s, eo), d.estimate);
      report.check(diff.empty(), "daemon " + d.method + " estimate differs from in-process: " + diff);
    }
    return round_s;
  };
  run_rounds(options, report, round);
  skip_fsync = false;

  const auto& hits = latency[static_cast<int>(Kind::kHit)];
  const auto tail = supported_tail(hits);
  report.note("requests_per_s (wall)", static_cast<double>(requests) / request_wall_s, "1/s");
  const char* kinds[] = {"cold", "campaign", "hit", "iso", "join"};
  for (int k = 0; k < 5; ++k) {
    report.note(std::string(kinds[k]) + "_p50_ms (wall)", median(latency_wall[k]) * 1e3, "ms");
    report.note(std::string(kinds[k]) + "_cpu_p50_ms", median(latency[k]) * 1e3, "ms");
  }
  if (tail.first > 0)
    report.note("hit_cpu_p" + std::to_string(static_cast<int>(tail.first)) + "_ms of " +
                    std::to_string(hits.size()),
                tail.second * 1e3, "ms");
  report.note("fsyncs_skipped_per_request",
              static_cast<double>(fsyncs_skipped.load() - skipped_before) / static_cast<double>(requests),
              "count");
  report.note("joins_joined", static_cast<double>(joins_joined), "count");
  report.note("ledger_kb_max", ledger_kb, "KB");
  report.note("rounds", static_cast<double>(setups.size()), "count");

  report.e2e("setup_s", median(setups), "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("ops_per_cpu_s", static_cast<double>(requests) / request_s, "1/s");
  report.e2e("key_op_cpu_p50_ms", median(hits) * 1e3, "ms");
}

}  // namespace perfbench
