// Per-layer probes, run at the end of every traced run: each calls one
// layer through its public functions on the benchmark's standard inputs
// (crosscheck_mlec for core, the paper default for the simulators, the
// repair workload's systems for ec/gf/placement, a fresh in-process daemon
// for server and runtime) and records a span around every call. The
// comment above each group names the end-to-end figure it should move.
#include <cstring>
#include <filesystem>
#include <memory>

#include "analysis/fleet_sim.hpp"
#include "bench.hpp"
#include "core/analyzer.hpp"
#include "core/estimator.hpp"
#include "core/spec_io.hpp"
#include "daemon.hpp"
#include "ec/codec.hpp"
#include "ec/decode.hpp"
#include "gf/code_model.hpp"
#include "gf/rs.hpp"
#include "placement/stripe_map.hpp"
#include "runtime/journal.hpp"
#include "runtime/pool_campaign.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "sim/local_pool_sim.hpp"
#include "sim/repair_executor.hpp"
#include "util/fault.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mlec;

/// Median seconds of `reps` calls of `fn`, each inside a span named `name`.
template <class Fn>
double time_median(const char* name, int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    {
      SpanScope span(name);
      fn();
    }
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

void probe_core(const Options& options, Report& report) {
  // -> key_op_p50_ms (memo hit) on daemon; sweep and crosscheck times.
  const std::string text = read_file(options.root + "/examples/scenarios/crosscheck_mlec.ini");
  SpecParsePolicy strict;
  strict.strict = true;
  Scenario s;
  report.layer("core.parse_us", 1e6 * time_median("core.parse", 200, [&] {
                 s = load_scenario(IniFile::parse_string(text), strict);
               }), "us");
  std::uint64_t fp = 0;
  report.layer("core.canonicalize_us", 1e6 * time_median("core.canonicalize", 200, [&] {
                 fp ^= scenario_fingerprint(s) + format_scenario(s).size();
               }), "us");
  s.seed = options.seed;
  EstimateOptions eo;
  eo.shards = kShards;
  Estimate sim;
  const double sim_s = time_median("core.estimate.sim", 3, [&] { sim = find_estimator("sim")->estimate(s, eo); });
  report.layer("core.sim_ms", 1e3 * sim_s, "ms");
  report.layer("core.split_ms", 1e3 * time_median("core.estimate.split", 3, [&] {
                 find_estimator("split")->estimate(s, eo);
               }), "ms");
  report.layer("core.dp_us", 1e6 * time_median("core.estimate.dp", 50, [&] {
                 find_estimator("dp")->estimate(s, eo);
               }), "us");
  report.layer("core.markov_us", 1e6 * time_median("core.estimate.markov", 50, [&] {
                 find_estimator("markov")->estimate(s, eo);
               }), "us");
  // -> crosscheck ops_per_s: time an estimate spends outside its engines.
  double engine_s = 0.0;
  for (const ShardOutcome& shard : sim.campaign.shards) engine_s += shard.elapsed_s;
  report.layer("runtime.campaign_overhead_pct",
               100.0 * (sim.campaign.elapsed_s - engine_s) / sim.campaign.elapsed_s, "%");
}

void probe_simulators(const Options& options, Report& report) {
  // -> ops_per_s / key_op_p50_ms on paper-sweep (fleet and pool missions).
  Scenario paper = load_scenario(
      IniFile::parse_string(read_file(options.root + "/perfbench/scenarios/paper_default.ini")));
  paper.system.scheme = MlecScheme::kCD;
  const FleetSimConfig config = paper.fleet_config();
  std::shared_ptr<const FleetSimContext> context;
  report.layer("fleet_sim.context_ms", 1e3 * time_median("fleet_sim.make_context", 3, [&] {
                 context = make_fleet_context(config);
               }), "ms");
  FleetMissionEngine engine(context);
  Rng rng(options.seed);
  FleetSimResult fleet;
  constexpr int kMissions = 200;
  const auto start = Clock::now();
  {
    SpanScope span("fleet_sim.missions");
    for (int i = 0; i < kMissions; ++i) engine.run_mission(rng, fleet);
  }
  report.layer("fleet_sim.mission_us", 1e6 * seconds_since(start) / kMissions, "us");
  report.layer("fleet_sim.events_per_mission", static_cast<double>(fleet.events_processed) / kMissions, "count");
  report.layer("fleet_sim.rng_draws_per_mission", static_cast<double>(fleet.rng_draws) / kMissions, "count");
  report.layer("fleet_sim.arena_allocations", static_cast<double>(fleet.arena_allocations), "count");

  // -> ops_per_s on daemon (cold closed forms).
  SystemSpec spec = paper.system;
  const MlecAnalyzer analyzer(spec);
  report.layer("durability.closed_form_us", 1e6 * time_median("analysis.durability", 50, [&] {
                 analyzer.durability();
               }), "us");

  constexpr int kPoolMissions = 2000;
  double declustered_events = 0.0;
  for (MlecScheme scheme : {MlecScheme::kCC, MlecScheme::kCD}) {
    paper.system.scheme = scheme;
    const LocalPoolSimConfig pool = paper.local_pool_config();
    Rng pool_rng(options.seed + 1);
    LocalPoolSimResult result;
    const auto t0 = Clock::now();
    {
      SpanScope span("local_pool_sim.simulate");
      result = simulate_local_pool(pool, kPoolMissions, pool_rng);
    }
    const double us = 1e6 * seconds_since(t0) / kPoolMissions;
    if (scheme == MlecScheme::kCC) {
      report.layer("local_pool_sim.clustered_mission_us", us, "us");
    } else {
      report.layer("local_pool_sim.declustered_mission_us", us, "us");
      declustered_events = static_cast<double>(result.events_processed) / kPoolMissions;
    }
  }
  report.layer("local_pool_sim.events_per_mission", declustered_events, "count");

  // The same declustered pool driven one mission per unit through the
  // campaign runner, as split's stage 1 runs it.
  LocalPoolCampaignOptions campaign;
  campaign.shards = kShards;
  const LocalPoolSimConfig pool = paper.local_pool_config();
  const auto t0 = Clock::now();
  {
    SpanScope span("runtime.pool_campaign");
    run_local_pool_campaign(pool, kPoolMissions, options.seed, campaign);
  }
  report.layer("runtime.pool_campaign_mission_us", 1e6 * seconds_since(t0) / kPoolMissions, "us");
}

void probe_data_plane(const Options& options, Report& report) {
  // -> ops_per_s on repair: one repair-workload system, every method.
  const MlecCode& code = kRepairCode;
  std::unique_ptr<StripeMap> map;
  report.layer("placement.stripe_map_ms", 1e3 * time_median("placement.stripe_map", 5, [&] {
                 map = std::make_unique<StripeMap>(Topology(repair_datacenter()), code, MlecScheme::kCD, 8, options.seed);
               }), "ms");
  constexpr std::size_t kChunk = kRepairChunkBytes;
  MaterializedSystem system(*map, kChunk, options.seed);
  double execute_s = 0.0, chunks = 0.0, net = 0.0, local = 0.0;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep)
    for (RepairMethod method : kAllRepairMethods) {
      const auto& victim = map->stripes()[rep].locals[rep];
      system.fail_disks({victim.disks[0], victim.disks[1]});
      const auto start = Clock::now();
      RepairExecution exec;
      {
        SpanScope span("repair_executor.execute");
        exec = system.execute(method);
      }
      execute_s += seconds_since(start);
      chunks += static_cast<double>(exec.chunks_rebuilt);
      net += static_cast<double>(exec.network_decodes);
      local += static_cast<double>(exec.local_decodes);
    }
  const double ops = kReps * 4.0;
  report.layer("repair_executor.execute_ms", 1e3 * execute_s / ops, "ms");
  report.layer("repair_executor.chunks_per_op", chunks / ops, "count");
  report.layer("repair_executor.network_decodes_per_op", net / ops, "count");
  report.layer("repair_executor.local_decodes_per_op", local / ops, "count");

  // The same decodes on their own: the share of execute() spent decoding.
  Rng rng(options.seed);
  const auto random_shards = [&](std::size_t n) {
    std::vector<std::vector<gf::byte_t>> shards(n, std::vector<gf::byte_t>(kChunk));
    for (auto& s : shards)
      for (auto& b : s) b = static_cast<gf::byte_t>(rng());
    return shards;
  };
  const auto network_model = make_code_model(LevelCode::make_rs(code.network));
  const gf::RsCode local_code(code.local.k, code.local.p);
  auto net_shards = random_shards(code.network.width());
  auto local_shards = random_shards(code.local.width());
  const std::vector<std::size_t> net_lost{0}, local_lost{1};
  const double net_decode_s = time_median("ec.decode.network", 50, [&] {
    network_model->decode(net_shards, net_lost);
  });
  const double local_decode_s = time_median("ec.decode.local", 50, [&] {
    local_code.decode(local_shards, local_lost);
  });
  report.layer("ec.decode_share_pct",
               100.0 * (net * net_decode_s + local * local_decode_s) / execute_s, "%");

  // -> kernel ceiling: fused decode / encode of the paper's local (17+3)
  // code against plain memcpy of the same bytes.
  constexpr std::size_t kLen = 256 * 1024;
  const gf::RsCode rs(17, 3);
  std::vector<gf::byte_t> generator(20 * 17, 0);
  for (std::size_t i = 0; i < 17; ++i) generator[i * 17 + i] = 1;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 17; ++c) generator[(17 + r) * 17 + c] = rs.parity_rows().at(r, c);
  const std::vector<std::size_t> erased{2, 9, 18};
  ec::DecodePlan plan;
  report.layer("gf.plan_build_us", 1e6 * time_median("gf.decode_plan", 200, [&] {
                 plan = ec::DecodePlan(20, 17, generator, erased);
               }), "us");
  auto shards = random_shards(20);
  for (auto& s : shards) s.resize(kLen, 1);
  std::vector<gf::byte_t*> ptrs;
  for (auto& s : shards) ptrs.push_back(s.data());
  const double input_bytes = 17.0 * kLen;
  const double decode_s = time_median("ec.decode", 30, [&] { ec::decode(plan, ptrs.data(), kLen); });
  report.layer("ec.decode_gb_per_s", input_bytes / decode_s / 1e9, "GB/s");
  const double encode_s = time_median("ec.encode", 30, [&] {
    ec::encode(rs.encode_plan(), ptrs.data(), ptrs.data() + 17, kLen);
  });
  report.layer("ec.encode_gb_per_s", input_bytes / encode_s / 1e9, "GB/s");
  std::vector<gf::byte_t> copy(static_cast<std::size_t>(input_bytes));
  const double memcpy_s = time_median("ec.memcpy", 30, [&] {
    for (std::size_t i = 0; i < 17; ++i) std::memcpy(copy.data() + i * kLen, ptrs[i], kLen);
  });
  report.layer("ec.memcpy_gb_per_s", input_bytes / memcpy_s / 1e9, "GB/s");

  // -> crosscheck and repair: the LRC loss test over every erasure pattern.
  const auto lrc = make_code_model(LevelCode::make_lrc({4, 2, 1}));
  std::size_t repairable = 0;
  constexpr int kSweeps = 2000;
  const auto start = Clock::now();
  {
    SpanScope span("gf.can_repair");
    for (int rep = 0; rep < kSweeps; ++rep)
      for (ErasureMask mask = 0; mask < 128; ++mask) repairable += lrc->can_repair(mask) ? 1 : 0;
  }
  report.layer("gf.can_repair_ns", 1e9 * seconds_since(start) / (kSweeps * 128.0), "ns");
  report.check(repairable > 0, "lrc can_repair accepted no pattern");
}

void probe_server(const Options& options, Report& report) {
  using namespace mlec::server;
  // Count saves, commits and accepts through the fault registry, armed
  // with a schedule that never fires.
  fault::configure("server.store.save.post=throw@hit=1000000000000");
  const std::string mlec_ini = read_file(options.root + "/examples/scenarios/crosscheck_mlec.ini");
  std::uint64_t journal_commits = 0, saves = 0, accepts = 0;
  std::size_t requests = 0;
  constexpr int kCold = 20, kCampaign = 4, kHits = 16;
  {
    Daemon daemon(options.work_dir + "/probe-state-" + std::to_string(options.seed));
    const std::uint64_t commits_before = fault::hit_count("journal.save.pre");
    for (int i = 0; i < kCampaign; ++i, ++requests) {
      SpanScope span("server.request.campaign");
      daemon.request(submit_request(mlec_ini, "sim", options.seed + i, true));
    }
    journal_commits = fault::hit_count("journal.save.pre") - commits_before;
    for (int i = 0; i < kCold; ++i, ++requests) {
      SpanScope span("server.request.cold");
      daemon.request(submit_request(mlec_ini, "dp", options.seed + 100 + i, true));
    }
    const json::Value hit_req = submit_request(mlec_ini, "dp", options.seed + 100, true);
    std::string hit_line;
    const double hit_s = time_median("server.request.hit", kHits, [&] {
      hit_line = json::dump(daemon.request(hit_req));
    });
    requests += kHits;
    saves = fault::hit_count("server.store.save.post");
    accepts = fault::hit_count("server.accept.pre");
    report.layer("server.hit_round_trip_ms", 1e3 * hit_s, "ms");

    report.layer("server.connect_us", 1e6 * time_median("server.connect", 50, [&] {
                   Client client("127.0.0.1", daemon.port());
                 }), "us");
    {
      Client client("127.0.0.1", daemon.port());
      json::Value ping = json::Value::object();
      ping.set("op", "ping");
      report.layer("server.ping_us", 1e6 * time_median("server.ping", 200, [&] { client.request(ping); }), "us");
    }
    json::Value parsed;
    report.layer("server.json_parse_us", 1e6 * time_median("server.json_parse", 500, [&] {
                   parsed = json::parse(hit_line);
                 }), "us");
    report.layer("server.json_dump_us", 1e6 * time_median("server.json_dump", 500, [&] {
                   hit_line = json::dump(parsed);
                 }), "us");
    SubmitRequest in_process;
    in_process.scenario_ini = mlec_ini;
    in_process.method = "dp";
    in_process.seed = options.seed + 100;
    report.layer("server.submit_hit_us", 1e6 * time_median("server.submit_hit", 50, [&] {
                   daemon.service().submit(in_process);
                 }), "us");
    report.layer("server.open_fds", static_cast<double>(open_fds()), "count");
    report.layer("server.vm_mb", vm_size_mb(), "MB");

    // The ledger the requests above left, saved on its own from a copy.
    const std::string copy_dir = daemon.dir() + "-copy";
    std::filesystem::create_directories(copy_dir);
    std::filesystem::copy_file(daemon.dir() + "/state.json", copy_dir + "/state.json",
                               std::filesystem::copy_options::overwrite_existing);
    report.layer("server.ledger_kb",
                 static_cast<double>(std::filesystem::file_size(copy_dir + "/state.json")) / 1024.0, "KB");
    Store store(copy_dir);
    store.load();
    report.layer("server.store_save_ms", 1e3 * time_median("server.store_save", 20, [&] { store.save(); }), "ms");
    const std::string journal_bytes(4096, 'j');
    report.layer("runtime.journal_commit_ms", 1e3 * time_median("runtime.journal_commit", 20, [&] {
                   save_bytes_durable(copy_dir + "/journal.bin", journal_bytes);
                 }), "ms");
    std::filesystem::remove_all(copy_dir);
  }
  fault::clear();
  report.layer("server.saves_per_request", static_cast<double>(saves) / static_cast<double>(requests), "count");
  report.layer("server.accepts_per_request", static_cast<double>(accepts) / static_cast<double>(requests), "count");
  report.layer("runtime.journal_commits_per_job", static_cast<double>(journal_commits) / kCampaign, "count");
}

}  // namespace

void run_layer_probes(const Options& options, Report& report) {
  tracer().enabled = true;
  tracer().current_op = 0;
  probe_core(options, report);
  probe_simulators(options, report);
  probe_data_plane(options, report);
  probe_server(options, report);
  tracer().enabled = false;
}

}  // namespace perfbench
