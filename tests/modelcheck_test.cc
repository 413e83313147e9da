// The model checker must (a) certify the safe protocol over the bounded
// state space and (b) catch each of the injected bugs from §4.6.
#include <gtest/gtest.h>

#include "src/modelcheck/model.h"

namespace splitft {
namespace {

McConfig SmallConfig() {
  McConfig config;
  config.fault_budget = 1;
  config.spare_peers = 1;
  config.max_writes = 2;
  config.max_peer_crashes = 1;
  config.max_app_crashes = 2;
  config.max_states = 2'000'000;
  return config;
}

TEST(ModelCheckTest, SafeProtocolHasNoViolations) {
  McResult result = CheckNcl(SmallConfig());
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted) << "state space not fully explored";
  EXPECT_GT(result.states_explored, 1000u);
}

TEST(ModelCheckTest, SafeProtocolWithDeeperBoundsStillHolds) {
  McConfig config = SmallConfig();
  config.max_writes = 3;
  config.max_peer_crashes = 2;
  config.spare_peers = 2;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.states_explored, 10000u);
}

TEST(ModelCheckTest, SeqBeforeDataBugIsCaught) {
  McConfig config = SmallConfig();
  config.bug_seq_before_data = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the seq-before-data bug";
  EXPECT_NE(result.violation.find("holes"), std::string::npos)
      << result.violation;
}

TEST(ModelCheckTest, ApMapBeforeCatchupBugIsCaught) {
  McConfig config = SmallConfig();
  config.bug_apmap_before_catchup = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the ap-map-before-catch-up bug";
}

TEST(ModelCheckTest, BatchReplacementIsSafe) {
  // Replacing every dead member in one step (catch-ups first, then one
  // ap-map write) preserves every externalized write on its own, with two
  // members down at once.
  McConfig config = SmallConfig();
  config.max_writes = 3;
  config.max_peer_crashes = 2;
  config.spare_peers = 2;
  config.batch_replacement_only = true;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
}

TEST(ModelCheckTest, BatchApMapBeforeCatchupBugIsCaught) {
  // The same step recording its new peers before their catch-ups.
  McConfig config = SmallConfig();
  config.max_peer_crashes = 2;
  config.spare_peers = 2;
  config.batch_replacement_only = true;
  config.bug_apmap_before_catchup = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the batch ap-map-before-catch-up bug";
}

TEST(ModelCheckTest, SkipRecoveryCatchupBugIsCaught) {
  McConfig config = SmallConfig();
  config.bug_skip_recovery_catchup = true;
  config.max_app_crashes = 3;  // needs a crash-recover-crash-recover chain
  config.max_peer_crashes = 2;
  config.spare_peers = 2;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the skipped-catch-up bug";
}

TEST(ModelCheckTest, LargerFaultBudgetAlsoSafe) {
  McConfig config;
  config.fault_budget = 2;  // n = 5 peers
  config.spare_peers = 0;
  config.max_writes = 2;
  config.max_peer_crashes = 2;
  config.max_app_crashes = 1;
  config.max_states = 4'000'000;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
}

TEST(ModelCheckTest, PlannedMigrationIsSafe) {
  // The drain protocol: a join of a member the app still writes to — the
  // target's copy with later writes queued behind it, then the install
  // once it holds every acknowledged write. Composed with writes and
  // crashes (a crashed source turns it into a replacement) it must
  // preserve every externalized write.
  McConfig config = SmallConfig();
  config.max_migrations = 1;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted) << "state space not fully explored";
  // Migrations enlarge the space beyond the no-migration run.
  McResult base = CheckNcl(SmallConfig());
  EXPECT_GT(result.states_explored, base.states_explored);
}

TEST(ModelCheckTest, StaleCutoverBugIsCaught) {
  // Installing the target before its copy from the live source landed
  // loses acknowledged writes once enough of the old membership dies.
  McConfig config = SmallConfig();
  config.max_migrations = 1;
  config.bug_migrate_stale_cutover = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the stale-snapshot cutover bug";
}

TEST(ModelCheckTest, SourceAcksDuringInstallBugIsCaught) {
  // Counting a migration's live source on its own while the ap-map write
  // naming its target is out: once the write lands, an acknowledged write
  // the target has only in flight sits on fewer than a quorum of the new
  // members, and an app crash loses it.
  McConfig config = SmallConfig();
  config.max_migrations = 1;
  config.bug_migrate_source_acks_during_install = true;
  McResult result = CheckNcl(config);
  ASSERT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("externalized"), std::string::npos)
      << result.violation;
}

TEST(ModelCheckTest, BackgroundReplacementIsSafe) {
  // DESIGN.md §6: a dead or demoted member's successor joins behind its
  // snapshot copy while writes keep being acknowledged by the members, and
  // is installed only once it holds every acknowledged write. Demoted
  // members keep their stale regions and answer recovery.
  McConfig config = SmallConfig();
  config.max_writes = 3;
  config.max_joins = 1;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted) << "state space not fully explored";
  config.max_joins = 0;
  McResult base = CheckNcl(config);
  EXPECT_GT(result.states_explored, base.states_explored);
}

TEST(ModelCheckTest, JoinCountsBeforeInstallBugIsCaught) {
  // Counting the joining target toward the ack quorum before its ap-map
  // write: an app crash before the install leaves an acknowledged write on
  // f members, and the demoted member's stale region outvotes it.
  McConfig config = SmallConfig();
  config.max_joins = 1;
  config.bug_join_counts_before_install = true;
  McResult result = CheckNcl(config);
  ASSERT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("externalized"), std::string::npos)
      << result.violation;
}

TEST(ModelCheckTest, StateCapRespected) {
  McConfig config = SmallConfig();
  config.max_states = 100;
  McResult result = CheckNcl(config);
  EXPECT_LE(result.states_explored, 100u);
  EXPECT_FALSE(result.exhausted);
}

}  // namespace
}  // namespace splitft
