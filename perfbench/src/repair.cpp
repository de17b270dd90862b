// repair: MaterializedSystem::execute on catastrophic local-pool failures,
// across the four MLEC schemes and the four repair methods, with an RS and
// an LRC network level. The only workload that reaches ec, the gf decode
// plans, placement and sim/repair_executor.
//
// Each system is (4+3)/(3+1) over 7 racks x 8 disks, 8 network stripes of
// 8 KiB chunks (1.75 MiB of chunk data; the executor keeps a pristine copy
// beside it). Whole-system verification and copies dominate execute() at
// this size, as at larger ones, while the working set stays small enough
// that other tenants' memory traffic does not set the figures. The network level is either RS(4+3) or lrc(4,2,1), whose
// width matches. One round runs every (system, method) pair once, in a
// seeded order, each on a freshly drawn catastrophic failure: p_l + 1 = 2
// disks that co-host one local stripe.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "placement/stripe_map.hpp"
#include "sim/repair_executor.hpp"

namespace perfbench {
namespace {

using namespace mlec;

constexpr std::size_t kChunkBytes = kRepairChunkBytes;
constexpr std::size_t kStripes = 8;
const MlecCode& kCode = kRepairCode;
// systems[] holds {C/C rs, C/C lrc, C/D rs, ...}: C/D with the RS network
// level, the paper's recommended scheme, times the key operation.
constexpr std::size_t kKeySystem = 2;

struct System {
  std::string label;
  MaterializedSystem* data;
};

/// Every chunk (stripe, local, position) that lives on one of `disks`.
struct ChunkRef {
  std::size_t stripe, local, position;
};
std::vector<ChunkRef> chunks_on(const StripeMap& map, const std::vector<DiskId>& disks) {
  std::vector<ChunkRef> refs;
  for (std::size_t s = 0; s < map.stripes().size(); ++s)
    for (std::size_t i = 0; i < map.stripes()[s].locals.size(); ++i)
      for (std::size_t j = 0; j < map.stripes()[s].locals[i].disks.size(); ++j)
        if (std::find(disks.begin(), disks.end(), map.stripes()[s].locals[i].disks[j]) != disks.end())
          refs.push_back({s, i, j});
  return refs;
}

}  // namespace

DataCenterConfig repair_datacenter() {
  DataCenterConfig dc;
  dc.racks = 7;
  dc.enclosures_per_rack = 1;
  dc.disks_per_enclosure = 8;
  dc.disk_capacity_tb = 1.0;
  return dc;
}

void run_repair(const Options& options, Report& report) {
  // Maps outlive the systems that reference them: systems are released first.
  std::vector<std::unique_ptr<StripeMap>> maps;
  std::vector<std::unique_ptr<MaterializedSystem>> owned;
  std::vector<System> systems;
  const double setup_s = timed_setup(5, [&] {
    systems.clear();
    owned.clear();
    maps.clear();
    for (MlecScheme scheme : kAllMlecSchemes) {
      {
        SpanScope span("placement.stripe_map");
        // 7 racks = one network stripe width: clustered and declustered
        // network placement both form a single network pool here.
        maps.push_back(std::make_unique<StripeMap>(Topology(repair_datacenter()), kCode, scheme, kStripes, 42));
      }
      const StripeMap& map = *maps.back();
      for (const LevelCode& level : {LevelCode::make_rs(kCode.network), LevelCode::make_lrc({4, 2, 1})}) {
        {
          SpanScope span("sim.materialize");
          owned.push_back(std::make_unique<MaterializedSystem>(map, kChunkBytes, 7, level));
        }
        MaterializedSystem& sys = *owned.back();
        // Warm-up: one repair per system fills the decode-plan caches.
        const auto& victim = map.stripes().front().locals.front();
        sys.fail_disks({victim.disks[0], victim.disks[1]});
        sys.execute(RepairMethod::kRepairMinimum);
        systems.push_back({to_string(scheme) + (level.family == CodeFamily::kLrc ? " lrc" : " rs"), &sys});
      }
    }
  });

  const std::size_t pl = kCode.local.p;
  // CPU seconds, except *_wall_s; key: R_MIN on C/D with the RS network level.
  std::vector<double> round_wall_s, key_s, key_wall_s;
  std::uint64_t executions = 0, bytes = 0;
  double execute_s = 0.0, execute_wall_s = 0.0;
  std::uint64_t chunks = 0, network_decodes = 0, local_decodes = 0;
  const auto round = [&](std::size_t r) {
    Choice choice(mix_seed(options.seed, r));
    std::vector<std::pair<std::size_t, RepairMethod>> order;
    for (std::size_t s = 0; s < systems.size(); ++s)
      for (RepairMethod m : kAllRepairMethods) order.emplace_back(s, m);
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[choice.below(i)]);

    double total = 0.0;
    for (const auto& [s, method] : order) {
      tracer().current_op = executions;
      MaterializedSystem& sys = *systems[s].data;
      const StripeMap& map = sys.map();
      const auto& stripe = map.stripes()[choice.below(map.stripes().size())];
      const auto& local = stripe.locals[choice.below(stripe.locals.size())];
      std::vector<DiskId> failed(local.disks.begin(), local.disks.end());
      for (std::size_t i = failed.size(); i > 1; --i) std::swap(failed[i - 1], failed[choice.below(i)]);
      failed.resize(pl + 1);

      // Snapshot, via the public accessor, every chunk the failure destroys.
      const std::vector<ChunkRef> lost = chunks_on(map, failed);
      std::vector<std::vector<gf::byte_t>> snapshot;
      for (const ChunkRef& c : lost) snapshot.push_back(sys.chunk(c.stripe, c.local, c.position));
      {
        SpanScope span("sim.fail_disks");
        sys.fail_disks(failed);
      }

      RepairExecution exec;
      bool ok = true;
      const Stopwatch watch;
      try {
        SpanScope span("repair_executor.execute");
        exec = sys.execute(method);
      } catch (const std::exception&) {
        ok = false;
      }
      const double wall = watch.wall_s(), cpu = watch.cpu_s();
      total += wall;
      execute_s += cpu;
      execute_wall_s += wall;
      ++executions;
      bytes += exec.chunks_rebuilt * kChunkBytes;
      chunks += exec.chunks_rebuilt;
      network_decodes += exec.network_decodes;
      local_decodes += exec.local_decodes;

      ok = ok && exec.verified && exec.unrecoverable_network_stripes == 0 && exec.chunks_rebuilt > 0;
      for (std::size_t k = 0; ok && k < lost.size(); ++k)
        ok = sys.chunk(lost[k].stripe, lost[k].local, lost[k].position) == snapshot[k];
      report.op(ok, systems[s].label + " " + to_string(method) + " rebuilt bytes differ");
      if (s == kKeySystem && method == RepairMethod::kRepairMinimum) {
        key_s.push_back(cpu);
        key_wall_s.push_back(wall);
      }
    }
    round_wall_s.push_back(total);
    return total;
  };
  run_rounds(options, report, round);

  const double n = static_cast<double>(executions);
  report.note("repair_mb_per_s (wall)", static_cast<double>(bytes) / 1e6 / execute_wall_s, "MB/s");
  report.note("repair_mb_per_cpu_s", static_cast<double>(bytes) / 1e6 / execute_s, "MB/s");
  report.note("chunks_per_execution", static_cast<double>(chunks) / n, "count");
  report.note("network_decodes_per_execution", static_cast<double>(network_decodes) / n, "count");
  report.note("local_decodes_per_execution", static_cast<double>(local_decodes) / n, "count");
  report.note("key_op_wall_p50_ms", median(key_wall_s) * 1e3, "ms");
  report.note("rounds", static_cast<double>(round_wall_s.size()), "count");

  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("ops_per_cpu_s", n / execute_s, "1/s");
  report.e2e("key_op_cpu_p50_ms", median(key_s) * 1e3, "ms");
}

}  // namespace perfbench
