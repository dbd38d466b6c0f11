// End-to-end chaos campaigns: each substrate must produce byte-identical
// outputs under a seeded fault schedule, and the report must show the
// schedule actually exercised the fault machinery (crashes, delays, errors,
// and — on the queue substrates — corruption and poison handling).
#include "sim/chaos_campaign.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace ppc::sim {
namespace {

// The plans each seed armed before the substrates moved into one table.
// Site names, the per-substrate RNG stream (seed ^ fnv1a64(substrate)) and
// the rule order (guaranteed floor, sampled extras, storm) are determinism
// contracts: a replayed seed must arm exactly these rules.
const std::map<std::string, std::string> kSeed42Plans = {
    {"classiccloud",
     "fault plan seed=42 rules=8\n"
     "  crash x1 @ classiccloud.after_execute (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-cc-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-cc-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.job.get (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-cc-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.job.get (p=1.00)\n"
     "  crash x1 @ classiccloud.after_upload (p=0.21)\n"
     "  error x3 @ cloudq.chaos-cc-tasks.delete (p=0.24)\n"},
    {"azuremr",
     "fault plan seed=42 rules=9\n"
     "  crash x1 @ azuremr.after_map (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-az-mr-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.chaos-az.get (p=1.00)\n"
     "  error x1 @ blobstore.chaos-az.list (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-az-mr-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.chaos-az.get (p=1.00)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=0.24)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=0.14)\n"},
    {"mapreduce",
     "fault plan seed=42 rules=5\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.map_attempt (p=1.00, 0.005s)\n"
     "  error x2 @ mapreduce.map_attempt (p=1.00)\n"
     "  error x3 @ mapreduce.map_attempt (p=0.31)\n"
     "  delay x1 @ mapreduce.map_attempt (p=0.12, 0.007s)\n"},
};
const std::map<std::pair<std::string, std::uint64_t>, std::string> kStormPlans = {
    {{"classiccloud", 1},
     "fault plan seed=1 rules=11\n"
     "  crash x1 @ classiccloud.after_execute (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-cc-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-cc-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.job.get (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-cc-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.job.get (p=1.00)\n"
     "  error x3 @ cloudq.chaos-cc-tasks.receive (p=0.19)\n"
     "  corrupt x2 @ cloudq.chaos-cc-tasks.receive (p=0.33)\n"
     "  crash x1 @ classiccloud.after_receive (p=0.24)\n"
     "  crash x1 @ classiccloud.after_upload (p=0.17)\n"
     "  revoke_spot x2 @ classiccloud.after_receive (p=0.90, notice 0s)\n"},
    {{"classiccloud", 2},
     "fault plan seed=2 rules=9\n"
     "  crash x1 @ classiccloud.after_execute (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-cc-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-cc-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.job.get (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-cc-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.job.get (p=1.00)\n"
     "  delay x1 @ cloudq.chaos-cc-tasks.receive (p=0.18, 0.005s)\n"
     "  error x2 @ blobstore.job.get (p=0.09)\n"
     "  revoke_spot x2 @ classiccloud.after_receive (p=0.90, notice 0s)\n"},
    {{"classiccloud", 3},
     "fault plan seed=3 rules=10\n"
     "  crash x1 @ classiccloud.after_execute (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-cc-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-cc-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.job.get (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-cc-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.job.get (p=1.00)\n"
     "  error x2 @ cloudq.chaos-cc-tasks.receive (p=0.16)\n"
     "  error x1 @ cloudq.chaos-cc-tasks.delete (p=0.33)\n"
     "  crash x1 @ classiccloud.after_receive (p=0.14)\n"
     "  revoke_spot x2 @ classiccloud.after_receive (p=0.90, notice 0s)\n"},
    {{"azuremr", 1},
     "fault plan seed=1 rules=12\n"
     "  crash x1 @ azuremr.after_map (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-az-mr-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.chaos-az.get (p=1.00)\n"
     "  error x1 @ blobstore.chaos-az.list (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-az-mr-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.chaos-az.get (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-az-mr-tasks.receive (p=0.17, 0.008s)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=0.12)\n"
     "  delay x2 @ blobstore.chaos-az.get (p=0.26, 0.007s)\n"
     "  error x3 @ blobstore.chaos-az.list (p=0.18)\n"
     "  revoke_spot x2 @ azuremr.after_map (p=0.90, notice 0s)\n"},
    {{"azuremr", 2},
     "fault plan seed=2 rules=12\n"
     "  crash x1 @ azuremr.after_map (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-az-mr-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.chaos-az.get (p=1.00)\n"
     "  error x1 @ blobstore.chaos-az.list (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-az-mr-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.chaos-az.get (p=1.00)\n"
     "  delay x1 @ blobstore.chaos-az.get (p=0.10, 0.003s)\n"
     "  error x3 @ blobstore.chaos-az.list (p=0.14)\n"
     "  delay x3 @ cloudq.chaos-az-mr-tasks.receive (p=0.13, 0.003s)\n"
     "  crash x1 @ azuremr.after_reduce (p=0.18)\n"
     "  revoke_spot x2 @ azuremr.after_map (p=0.90, notice 0s)\n"},
    {{"azuremr", 3},
     "fault plan seed=3 rules=12\n"
     "  crash x1 @ azuremr.after_map (p=1.00)\n"
     "  delay x3 @ cloudq.chaos-az-mr-tasks.receive (p=1.00, 0.005s)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=1.00)\n"
     "  error x2 @ blobstore.chaos-az.get (p=1.00)\n"
     "  error x1 @ blobstore.chaos-az.list (p=1.00)\n"
     "  corrupt x1 @ cloudq.chaos-az-mr-tasks.receive (p=1.00)\n"
     "  corrupt x1 @ blobstore.chaos-az.get (p=1.00)\n"
     "  error x1 @ blobstore.chaos-az.list (p=0.28)\n"
     "  error x1 @ cloudq.chaos-az-mr-tasks.delete (p=0.22)\n"
     "  corrupt x3 @ cloudq.chaos-az-mr-tasks.receive (p=0.09)\n"
     "  error x2 @ cloudq.chaos-az-mr-tasks.delete (p=0.30)\n"
     "  revoke_spot x2 @ azuremr.after_map (p=0.90, notice 0s)\n"},
    {{"mapreduce", 1},
     "fault plan seed=1 rules=6\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.map_attempt (p=1.00, 0.005s)\n"
     "  error x2 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x1 @ mapreduce.map_attempt (p=0.08, 0.005s)\n"
     "  delay x3 @ mapreduce.map_attempt (p=0.29, 0.007s)\n"
     "  revoke_spot x2 @ mapreduce.map_attempt (p=0.90, notice 0s)\n"},
    {{"mapreduce", 2},
     "fault plan seed=2 rules=6\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.map_attempt (p=1.00, 0.005s)\n"
     "  error x2 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x2 @ mapreduce.map_attempt (p=0.24, 0.002s)\n"
     "  crash x1 @ mapreduce.map_attempt (p=0.18)\n"
     "  revoke_spot x2 @ mapreduce.map_attempt (p=0.90, notice 0s)\n"},
    {{"mapreduce", 3},
     "fault plan seed=3 rules=6\n"
     "  crash x1 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x3 @ mapreduce.map_attempt (p=1.00, 0.005s)\n"
     "  error x2 @ mapreduce.map_attempt (p=1.00)\n"
     "  delay x1 @ mapreduce.map_attempt (p=0.35, 0.007s)\n"
     "  delay x2 @ mapreduce.map_attempt (p=0.17, 0.002s)\n"
     "  revoke_spot x2 @ mapreduce.map_attempt (p=0.90, notice 0s)\n"},
};

class ChaosCampaign : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosCampaign, SurvivesSeededFaultSchedule) {
  ChaosConfig config;
  config.seed = 42;
  config.substrate = GetParam();
  const ChaosReport report = run_chaos_campaign(config);
  EXPECT_TRUE(report.passed) << report.to_text();

  // The campaign is only meaningful if faults actually fired.
  EXPECT_GE(report.crashes, 1);
  EXPECT_GE(report.delays, 1);
  EXPECT_GE(report.errors, 1);
  if (config.substrate != "mapreduce") {
    EXPECT_GE(report.corruptions, 1);
    EXPECT_GE(report.dlq_entries, 1);
    EXPECT_GE(report.poison_tasks, 1);
  }
  EXPECT_GE(report.redeliveries, 1);
  EXPECT_EQ(report.plan_summary, kSeed42Plans.at(config.substrate));
  EXPECT_FALSE(report.metrics_json.empty());

  // The chaos run is traced: the report carries the Chrome trace that
  // `ppcloud chaos --trace-dir` writes next to a failing seed.
  EXPECT_GT(report.trace_spans, 0u);
  EXPECT_NE(report.trace_json.find("\"traceEvents\""), std::string::npos);
  if (config.substrate != "mapreduce") {
    // Queue substrates run under a supervisor; the plan's guaranteed crash
    // must show up as a reap in the timeline.
    EXPECT_NE(report.trace_json.find("worker.crashed"), std::string::npos);
  }
  EXPECT_NE(report.to_text().find("PASS"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Substrates, ChaosCampaign,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ISSUE 9: revocation storms must leave the determinism story intact.
// `passed` requires the chaos run's outputs to be byte-identical to the
// fault-free baseline AND the storm to have revoked at least one worker, so
// this sweep (seeds 1-3 on every substrate) is the "storms don't break
// determinism or lose work" acceptance gate.
class RevocationStorm
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(RevocationStorm, ByteIdenticalOutputsUnderStorm) {
  ChaosConfig config;
  config.substrate = std::get<0>(GetParam());
  config.seed = std::get<1>(GetParam());
  config.revocation_storm = true;
  const ChaosReport report = run_chaos_campaign(config);
  EXPECT_TRUE(report.passed) << report.to_text();
  EXPECT_GE(report.spot_revocations, 1);
  // A no-notice revocation is a crash to the worker: the kill shows up in
  // the crash totals and the redelivery machinery absorbs it.
  EXPECT_GE(report.crashes, report.spot_revocations);
  EXPECT_EQ(report.plan_summary, kStormPlans.at({config.substrate, config.seed}));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RevocationStorm,
    ::testing::Combine(::testing::Values("classiccloud", "azuremr", "mapreduce"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ChaosCampaignConfig, UnknownSubstrateThrows) {
  ChaosConfig config;
  config.substrate = "telepathy";
  EXPECT_THROW(run_chaos_campaign(config), std::exception);
}

TEST(ChaosCampaignConfig, UnknownAppThrows) {
  ChaosConfig config;
  config.app = "folding";
  EXPECT_THROW(run_chaos_campaign(config), std::exception);
}

}  // namespace
}  // namespace ppc::sim
