// Shuffle run harness + chaos shuffle campaigns (satellite 2): the
// histogram/dedup workloads through `run_shuffle_job`, then full chaos
// campaigns on the mapreduce substrate for seeds 1–3 — crash/corrupt faults
// at spill/fetch/register sites must leave the canonical reduced output
// byte-identical to the fault-free baseline, with zero lost groups.
#include "sim/shuffle_run.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "sim/chaos_campaign.h"

namespace ppc::sim {
namespace {

TEST(ShuffleRun, HistogramProducesGroupedHits) {
  ShuffleRunConfig config;
  config.app = "histogram";
  config.seed = 1;
  const auto report = run_shuffle_job(config);
  ASSERT_TRUE(report.succeeded);
  EXPECT_EQ(report.app, "histogram");
  EXPECT_EQ(report.maps, config.num_files);
  EXPECT_EQ(report.reducers, config.num_reducers);
  EXPECT_GT(report.groups, 0u);
  EXPECT_FALSE(report.canonical.empty());
  EXPECT_GT(report.shuffle.fetches, 0);
  EXPECT_FALSE(report.to_text().empty());
}

TEST(ShuffleRun, DedupCollapsesDuplicateSequences) {
  ShuffleRunConfig config;
  config.app = "dedup";
  config.seed = 2;
  const auto report = run_shuffle_job(config);
  ASSERT_TRUE(report.succeeded);
  // The read pool is smaller than the read count, so dedup must collapse:
  // fewer groups than total reads (num_files * 8).
  EXPECT_GT(report.groups, 0u);
  EXPECT_LT(report.groups, static_cast<std::size_t>(config.num_files) * 8);
}

TEST(ShuffleRun, SameSeedSameBytesAcrossHarnessRuns) {
  ShuffleRunConfig config;
  config.app = "histogram";
  config.seed = 7;
  const auto a = run_shuffle_job(config);
  const auto b = run_shuffle_job(config);
  ASSERT_TRUE(a.succeeded);
  ASSERT_TRUE(b.succeeded);
  EXPECT_EQ(a.canonical, b.canonical);
  // Different corpus seed, different bytes (sanity that the seed matters).
  config.seed = 8;
  const auto c = run_shuffle_job(config);
  ASSERT_TRUE(c.succeeded);
  EXPECT_NE(a.canonical, c.canonical);
}

TEST(ShuffleRun, VerifyDeterminismReRunsOnAlternateClusterShape) {
  ShuffleRunConfig config;
  config.app = "dedup";
  config.seed = 3;
  config.verify_determinism = true;
  const auto report = run_shuffle_job(config);
  ASSERT_TRUE(report.succeeded);
  EXPECT_TRUE(report.determinism_verified);
  EXPECT_TRUE(report.determinism_ok);
}

TEST(ShuffleRun, TraceCapturesShuffleTimeline) {
  ShuffleRunConfig config;
  config.app = "histogram";
  config.seed = 4;
  config.trace = true;
  const auto report = run_shuffle_job(config);
  ASSERT_TRUE(report.succeeded);
  EXPECT_GT(report.trace_spans, 0u);
  EXPECT_NE(report.trace_json.find("shuffle.fetch"), std::string::npos);
  EXPECT_NE(report.trace_json.find("shuffle.merge"), std::string::npos);
}

TEST(ShuffleRun, UnknownAppThrows) {
  ShuffleRunConfig config;
  config.app = "wordcount";
  EXPECT_THROW(run_shuffle_job(config), ppc::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Satellite 2 — chaos shuffle campaigns, seeds 1..3.

ChaosConfig shuffle_chaos(std::uint64_t seed, const std::string& app) {
  ChaosConfig config;
  config.seed = seed;
  config.substrate = "mapreduce";
  config.app = app;
  config.num_files = 4;
  config.num_workers = 3;
  return config;
}

// The plans seeds 1-3 armed before the substrates moved into one table;
// replaying a seed must arm exactly these rules.
const std::map<std::uint64_t, std::string> kHistogramPlans = {
    {1,
     "fault plan seed=1 rules=9\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  crash x1 @ mapreduce.map_register (p=1.00)\n"
     "  crash x1 @ mapreduce.reduce_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.fetch (p=1.00, 0.005s)\n"
     "  error x1 @ mapreduce.spill (p=1.00)\n"
     "  error x1 @ mapreduce.fetch (p=1.00)\n"
     "  corrupt x2 @ blobstore.shuffle.get (p=1.00)\n"
     "  crash x1 @ mapreduce.map_attempt (p=0.08)\n"
     "  crash x1 @ mapreduce.map_attempt (p=0.18)\n"},
    {2,
     "fault plan seed=2 rules=9\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  crash x1 @ mapreduce.map_register (p=1.00)\n"
     "  crash x1 @ mapreduce.reduce_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.fetch (p=1.00, 0.005s)\n"
     "  error x1 @ mapreduce.spill (p=1.00)\n"
     "  error x1 @ mapreduce.fetch (p=1.00)\n"
     "  corrupt x2 @ blobstore.shuffle.get (p=1.00)\n"
     "  delay x2 @ mapreduce.fetch (p=0.24, 0.002s)\n"
     "  corrupt x1 @ blobstore.shuffle.get (p=0.18)\n"},
    {3,
     "fault plan seed=3 rules=9\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  crash x1 @ mapreduce.map_register (p=1.00)\n"
     "  crash x1 @ mapreduce.reduce_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.fetch (p=1.00, 0.005s)\n"
     "  error x1 @ mapreduce.spill (p=1.00)\n"
     "  error x1 @ mapreduce.fetch (p=1.00)\n"
     "  corrupt x2 @ blobstore.shuffle.get (p=1.00)\n"
     "  crash x1 @ mapreduce.map_attempt (p=0.35)\n"
     "  error x3 @ mapreduce.fetch (p=0.06)\n"},
};

TEST(ChaosShuffle, HistogramSeedsOneToThreeAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto report = run_chaos_campaign(shuffle_chaos(seed, "histogram"));
    EXPECT_TRUE(report.passed) << "seed " << seed << ":\n" << report.to_text();
    // The campaign must actually have chased faults through the shuffle,
    // not passed vacuously.
    EXPECT_GT(report.crashes + report.delays + report.errors + report.corruptions, 0)
        << "seed " << seed;
    EXPECT_GE(report.corruptions, 1) << "seed " << seed;
    EXPECT_EQ(report.plan_summary, kHistogramPlans.at(seed));
  }
}

TEST(ChaosShuffle, DedupCampaignSurvivesFaults) {
  const auto report = run_chaos_campaign(shuffle_chaos(2, "dedup"));
  EXPECT_TRUE(report.passed) << report.to_text();
  EXPECT_GT(report.redeliveries + report.corrupt_deliveries + report.crashes, 0);
}

TEST(ChaosShuffle, ShuffleAppRequiresMapReduceSubstrate) {
  auto config = shuffle_chaos(1, "histogram");
  config.substrate = "classiccloud";
  EXPECT_THROW(run_chaos_campaign(config), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::sim
