#include "runtime/pool_campaign.hpp"

#include <gtest/gtest.h>

#include "sim/local_pool_sim.hpp"
#include "util/rng.hpp"

namespace mlec {
namespace {

// Hot pools with long rebuilds, so a few thousand missions see catastrophes.
LocalPoolSimConfig hot_pool(Placement placement) {
  LocalPoolSimConfig cfg;
  cfg.code = {4, 2};
  cfg.placement = placement;
  cfg.pool_disks = placement == Placement::kClustered ? 6 : 12;
  cfg.afr = 0.9;
  cfg.disk_capacity_tb = 60.0;
  return cfg;
}

// Split's stage 1 runs the campaign path; tests and benches call
// simulate_local_pool directly. With one shard both draw from substream 0
// of the seed, so they must be the same simulator down to the last bit.
void expect_campaign_matches_direct(const LocalPoolSimConfig& cfg) {
  constexpr std::uint64_t kMissions = 3000;
  constexpr std::uint64_t kSeed = 2024;
  LocalPoolCampaignOptions options;
  options.shards = 1;
  const auto campaign = run_local_pool_campaign(cfg, kMissions, kSeed, options);

  Rng rng = Rng::for_substream(kSeed, 0);
  const auto direct = simulate_local_pool(cfg, kMissions, rng);
  RunningStats direct_fraction;
  for (const auto& s : direct.samples) direct_fraction.add(s.lost_stripe_fraction);

  ASSERT_GT(direct.catastrophes, 0u);
  ASSERT_LT(direct.catastrophes, 10000u);  // every catastrophe kept as a sample
  EXPECT_EQ(campaign.missions, direct.missions);
  EXPECT_EQ(campaign.catastrophes, direct.catastrophes);
  EXPECT_EQ(campaign.events_processed, direct.events_processed);
  EXPECT_EQ(campaign.rng_draws, direct.rng_draws);
  EXPECT_EQ(campaign.lost_stripe_fraction, direct_fraction);
  EXPECT_EQ(campaign.single_disk_repair_hours.count(),
            direct.single_disk_repair_hours.count());
  // Per-mission pool-years summed vs one product: equal up to rounding.
  EXPECT_NEAR(campaign.pool_years, direct.pool_years, 1e-9 * direct.pool_years);
}

TEST(LocalPoolCampaign, ClusteredCampaignMatchesDirectSimulation) {
  expect_campaign_matches_direct(hot_pool(Placement::kClustered));
}

TEST(LocalPoolCampaign, DeclusteredCampaignMatchesDirectSimulation) {
  expect_campaign_matches_direct(hot_pool(Placement::kDeclustered));
}

TEST(LocalPoolCampaign, FingerprintTracksPhysicsChanges) {
  const auto base = hot_pool(Placement::kDeclustered);
  auto changed = base;
  changed.afr = 0.91;
  EXPECT_NE(local_pool_campaign_fingerprint(base), local_pool_campaign_fingerprint(changed));
  EXPECT_EQ(local_pool_campaign_fingerprint(base),
            local_pool_campaign_fingerprint(hot_pool(Placement::kDeclustered)));
}

}  // namespace
}  // namespace mlec
