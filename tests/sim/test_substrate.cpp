// The substrate table: every harness resolves substrates through it, so
// its names, its `--substrate all` expansions and its rejections are the
// CLI's contract.
#include "sim/substrate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sim/chaos_campaign.h"

namespace ppc::sim {
namespace {

const std::vector<std::string> kAll = {"classiccloud", "azuremr", "mapreduce", "dryad"};

TEST(SubstrateTable, EveryNameResolves) {
  ASSERT_EQ(all_substrates().size(), kAll.size());
  for (const std::string& name : kAll) {
    const Substrate& s = find_substrate(name);
    EXPECT_EQ(s.name, name);
    EXPECT_NE(s.run, nullptr) << name;
    EXPECT_NE(s.instance_type, nullptr) << name;
    EXPECT_NE(s.run_sim, nullptr) << name;
  }
}

TEST(SubstrateTable, AllExpandsToTheHarnessLists) {
  // trace and monitor: all four substrates.
  EXPECT_EQ(expand_substrates("all"), kAll);
  // chaos: the three with fault plans; a shuffle app runs on mapreduce only.
  EXPECT_EQ(expand_substrates("all", "cap3"),
            (std::vector<std::string>{"classiccloud", "azuremr", "mapreduce"}));
  EXPECT_EQ(expand_substrates("all", "histogram"), std::vector<std::string>{"mapreduce"});
  EXPECT_EQ(expand_substrates("azuremr", "dedup"), std::vector<std::string>{"mapreduce"});
  EXPECT_EQ(expand_substrates("dryad"), std::vector<std::string>{"dryad"});
}

TEST(SubstrateTable, UnknownNameThrowsNamingTheValidOnes) {
  try {
    find_substrate("telepathy");
    FAIL() << "expected InvalidArgument";
  } catch (const ppc::InvalidArgument& e) {
    const std::string what = e.what();
    for (const std::string& name : kAll) EXPECT_NE(what.find(name), std::string::npos) << what;
  }
  EXPECT_THROW(expand_substrates("telepathy"), ppc::InvalidArgument);
  EXPECT_THROW(expand_substrates("telepathy", "cap3"), ppc::InvalidArgument);
}

TEST(SubstrateTable, ChaosOnDryadThrows) {
  EXPECT_EQ(find_substrate("dryad").chaos_for("cap3"), nullptr);
  ChaosConfig config;
  config.substrate = "dryad";
  EXPECT_THROW(run_chaos_campaign(config), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::sim
