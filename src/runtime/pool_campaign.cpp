#include "runtime/pool_campaign.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

namespace mlec {

namespace {

constexpr const char* kMissions = "missions";
constexpr const char* kCatastrophes = "catastrophes";
constexpr const char* kPoolYears = "pool_years";
constexpr const char* kLostFraction = "lost_stripe_fraction";
constexpr const char* kUnrebuiltTb = "unrebuilt_tb";
constexpr const char* kRepairHours = "single_disk_repair_hours";
constexpr const char* kEvents = "events_processed";
constexpr const char* kRngDraws = "rng_draws";

}  // namespace

LocalPoolStats LocalPoolCampaignResult::stats() const {
  LocalPoolStats s;
  s.cat_rate_per_pool_year = catastrophe_rate_per_year();
  s.lost_stripe_fraction = lost_stripe_fraction.mean();
  return s;
}

void accumulate_local_pool_result(const LocalPoolSimResult& result, CampaignAccumulator& acc) {
  acc.counter(kMissions) += result.missions;
  acc.counter(kCatastrophes) += result.catastrophes;
  acc.scalar(kPoolYears) += result.pool_years;
  // Create both slots before binding references: creating a slot may move
  // the earlier ones.
  acc.stats(kLostFraction);
  auto& unrebuilt = acc.stats(kUnrebuiltTb);
  auto& frac = acc.stats(kLostFraction);
  for (const auto& s : result.samples) {
    frac.add(s.lost_stripe_fraction);
    unrebuilt.add(s.unrebuilt_tb);
  }
  acc.stats(kRepairHours).merge(result.single_disk_repair_hours);
  acc.counter(kEvents) += result.events_processed;
  acc.counter(kRngDraws) += result.rng_draws;
}

std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config) {
  std::ostringstream os;
  os.precision(17);
  os << "localpool-v1;code=" << config.code.k << '+' << config.code.p << ";placement="
     << (config.placement == Placement::kClustered ? 'C' : 'D') << ";disks=" << config.pool_disks
     << ";disk_tb=" << config.disk_capacity_tb << ";chunk_kb=" << config.chunk_kb
     << ";afr=" << config.afr << ";detect=" << config.detection_hours
     << ";bw=" << config.bandwidth.disk_mbps << '/' << config.bandwidth.rack_gbps << '/'
     << config.bandwidth.repair_fraction << ";mission=" << config.mission_hours
     << ";priority=" << config.priority_repair;
  return os.str();
}

LocalPoolCampaignResult run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                std::uint64_t missions, std::uint64_t seed,
                                                const LocalPoolCampaignOptions& options,
                                                ThreadPool* pool) {
  // Setup (validation, repair-model tables) runs once; each shard attempt
  // copies the finished engine and owns only its mutable pool state.
  const LocalPoolEngine prototype(config);
  auto factory = [&prototype](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    auto engine = std::make_shared<LocalPoolEngine>(prototype);
    return [engine, &rng](CampaignAccumulator& acc) {
      LocalPoolSimResult one;
      engine->run_mission(rng, one);
      accumulate_local_pool_result(one, acc);
    };
  };
  // The splitting pipeline is rate-limited by the catastrophe count, whose
  // relative error is Poisson: 1/sqrt(count).
  auto cat_rse = [](const CampaignAccumulator& merged) {
    const std::uint64_t cat = merged.counter(kCatastrophes);
    return cat > 0 ? 1.0 / std::sqrt(static_cast<double>(cat))
                   : std::numeric_limits<double>::infinity();
  };

  CampaignRunner runner(
      campaign_config(options, missions, seed, local_pool_campaign_fingerprint(config)),
      factory, cat_rse);
  auto [merged, report] = runner.run(pool);

  LocalPoolCampaignResult out;
  out.missions = merged.counter(kMissions);
  out.catastrophes = merged.counter(kCatastrophes);
  out.pool_years = merged.scalar(kPoolYears);
  out.lost_stripe_fraction = merged.stats(kLostFraction);
  out.unrebuilt_tb = merged.stats(kUnrebuiltTb);
  out.single_disk_repair_hours = merged.stats(kRepairHours);
  out.events_processed = merged.counter(kEvents);
  out.rng_draws = merged.counter(kRngDraws);
  out.report = std::move(report);
  return out;
}

}  // namespace mlec
