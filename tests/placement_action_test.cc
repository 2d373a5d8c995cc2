// PlacementAction: the unified planner-op type promoted into soap_api.h.
// Pins the compatibility contract of the API redesign — the deprecated
// RepartitionOp/RepartitionOpType aliases and the old enumerator spellings
// (kObjectsMigration, kNewReplicaCreation, kReplicaDeletion) must be
// interchangeable with the new ones, down to deploying byte-identical
// plans — plus the uniform PlacementCost math every candidate is priced
// with.

#include "src/repartition/operation.h"

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>

#include "src/core/basic_schedulers.h"
#include "src/core/repartitioner.h"

namespace soap::repartition {
namespace {

// The aliases are the same types, not lookalikes: a pre-redesign call site
// passing a RepartitionOp to a PlacementAction consumer (or vice versa)
// compiles with no conversion at all.
static_assert(std::is_same_v<RepartitionOp, PlacementAction>,
              "RepartitionOp must alias PlacementAction");
static_assert(std::is_same_v<RepartitionOpType, PlacementKind>,
              "RepartitionOpType must alias PlacementKind");

struct SpellingCase {
  const char* name;
  PlacementKind old_spelling;
  PlacementKind new_spelling;
  const char* text;
};

// gtest's default printer dumps the struct's bytes, pointers and padding
// included, into the listed test name, so the name changed from run to run;
// print the case name instead.
void PrintTo(const SpellingCase& c, std::ostream* os) { *os << c.name; }

class SpellingTest : public ::testing::TestWithParam<SpellingCase> {};

TEST_P(SpellingTest, OldAndNewSpellingsAreTheSameValue) {
  EXPECT_EQ(GetParam().old_spelling, GetParam().new_spelling);
  EXPECT_STREQ(PlacementKindName(GetParam().old_spelling), GetParam().text);
  EXPECT_STREQ(PlacementKindName(GetParam().new_spelling), GetParam().text);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpellingTest,
    ::testing::Values(
        SpellingCase{"migration", PlacementKind::kObjectsMigration,
                     PlacementKind::kMigrate, "migrate"},
        SpellingCase{"replica_create", PlacementKind::kNewReplicaCreation,
                     PlacementKind::kReplicaCreate, "replica_create"},
        SpellingCase{"replica_delete", PlacementKind::kReplicaDeletion,
                     PlacementKind::kReplicaDrop, "replica_delete"}),
    [](const ::testing::TestParamInfo<SpellingCase>& info) {
      return std::string(info.param.name);
    });

TEST(PlacementKindTest, LeaderShiftIsNewVocabulary) {
  // kLeaderShift has no deprecated spelling; it exists only in the new API.
  EXPECT_STREQ(PlacementKindName(PlacementKind::kLeaderShift),
               "leader_shift");
}

TEST(PlacementCostTest, NetIsSavingsMinusPenalties) {
  PlacementCost cost;
  cost.move_bytes = 64;
  cost.tpc_savings = 1000.0;
  cost.freshness_penalty = 200.0;
  EXPECT_DOUBLE_EQ(cost.Net(), 1000.0 - 200.0 - 64.0);
}

TEST(PlacementCostTest, DefaultCostIsFree) {
  EXPECT_DOUBLE_EQ(PlacementCost{}.Net(), 0.0);
}

TEST(PlacementCostTest, LeaderShiftMovesNoBytes) {
  // A role swap never copies data; only savings and penalties price it.
  PlacementCost shift;
  shift.tpc_savings = 500.0;
  EXPECT_EQ(shift.move_bytes, 0u);
  EXPECT_DOUBLE_EQ(shift.Net(), 500.0);
}

// --- Deploy equivalence ----------------------------------------------------
// The same placement changes written in the old and the new vocabulary must
// deploy to byte-identical cluster states: same routing, same storage, same
// simulated end time.

class DeployEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 30;

  struct Rig {
    Rig()
        : cluster(&sim, Config()),
          tm(&cluster),
          catalog(Spec(), cluster.num_nodes()),
          history(Spec().num_templates, 5),
          rp(&cluster, &tm, &catalog, &history,
             std::make_unique<core::ApplyAllScheduler>()) {
      for (storage::TupleKey k = 0; k < kKeys; ++k) {
        storage::Tuple t;
        t.key = k;
        t.content = static_cast<int64_t>(k) * 10;
        EXPECT_TRUE(cluster.LoadTuple(t, catalog.InitialPartitionOf(k)).ok());
      }
      tm.set_completion_callback(
          [this](const txn::Transaction& t) { rp.OnTxnComplete(t); });
    }

    void Deploy(const RepartitionPlan& plan) {
      ASSERT_TRUE(rp.StartRepartitioningWithPlan(plan));
      sim.Run();
      ASSERT_TRUE(rp.Finished());
      ASSERT_TRUE(rp.FinishRound());
    }

    // One line per key: primary plus the replica set, then the clock.
    std::string Fingerprint() {
      std::ostringstream os;
      for (storage::TupleKey k = 0; k < kKeys; ++k) {
        Result<router::Placement> p = cluster.routing_table().GetPlacement(k);
        os << k << ":p" << p->primary;
        for (uint32_t rep : p->replicas) os << ",r" << rep;
        os << " v=" << cluster.storage(p->primary).Read(k)->content << "\n";
      }
      os << "now=" << sim.Now();
      return os.str();
    }

    sim::Simulator sim;
    cluster::Cluster cluster;
    cluster::TransactionManager tm;
    workload::TemplateCatalog catalog;
    workload::WorkloadHistory history;
    core::Repartitioner rp;
  };

  static cluster::ClusterConfig Config() {
    cluster::ClusterConfig c;
    c.num_keys = kKeys;
    c.network.jitter = 0;
    return c;
  }

  static workload::WorkloadSpec Spec() {
    workload::WorkloadSpec s;
    s.num_templates = 10;
    s.queries_per_txn = 3;  // 10 templates x 3 keys covers all 30 keys
    s.num_keys = kKeys;
    s.alpha = 0.0;
    s.seed = 4;
    return s;
  }

  static PlacementAction Op(uint64_t id, PlacementKind kind,
                            storage::TupleKey key, uint32_t from,
                            uint32_t to) {
    PlacementAction op;
    op.id = id;
    op.kind = kind;
    op.key = key;
    op.source_partition = from;
    op.target_partition = to;
    return op;
  }
};

TEST_F(DeployEquivalenceTest, OldAndNewSpellingsDeployIdentically) {
  Rig old_rig;
  Rig new_rig;

  const uint32_t p0 = *old_rig.cluster.routing_table().GetPrimary(0);
  const uint32_t p1 = *old_rig.cluster.routing_table().GetPrimary(1);
  const uint32_t other0 = (p0 + 1) % old_rig.cluster.num_nodes();
  const uint32_t other1 = (p1 + 1) % old_rig.cluster.num_nodes();

  // Round 1: one migration and one replica creation, spelled both ways.
  RepartitionPlan old_round1;
  old_round1.ops = {
      Op(1, RepartitionOpType::kObjectsMigration, 0, p0, other0),
      Op(2, RepartitionOpType::kNewReplicaCreation, 1, p1, other1)};
  RepartitionPlan new_round1;
  new_round1.ops = {Op(1, PlacementKind::kMigrate, 0, p0, other0),
                    Op(2, PlacementKind::kReplicaCreate, 1, p1, other1)};
  old_rig.Deploy(old_round1);
  new_rig.Deploy(new_round1);
  EXPECT_EQ(old_rig.Fingerprint(), new_rig.Fingerprint());

  // Round 2: shift key 1's leadership onto its new replica (same spelling
  // on both rigs — kLeaderShift has no deprecated alias).
  RepartitionPlan round2;
  round2.ops = {Op(3, PlacementKind::kLeaderShift, 1, p1, other1)};
  old_rig.Deploy(round2);
  new_rig.Deploy(round2);
  EXPECT_EQ(old_rig.Fingerprint(), new_rig.Fingerprint());

  // Round 3: retire the demoted copy, spelled old-style on one rig.
  RepartitionPlan old_round3;
  old_round3.ops = {Op(4, RepartitionOpType::kReplicaDeletion, 1, p1, p1)};
  RepartitionPlan new_round3;
  new_round3.ops = {Op(4, PlacementKind::kReplicaDrop, 1, p1, p1)};
  old_rig.Deploy(old_round3);
  new_rig.Deploy(new_round3);
  EXPECT_EQ(old_rig.Fingerprint(), new_rig.Fingerprint());

  // The shift + drop left key 1 single-copy on the former replica.
  Result<router::Placement> p = old_rig.cluster.routing_table().GetPlacement(1);
  EXPECT_EQ(p->primary, other1);
  EXPECT_EQ(p->copy_count(), 1u);
  EXPECT_TRUE(old_rig.cluster.CheckConsistency().ok());
  EXPECT_TRUE(new_rig.cluster.CheckConsistency().ok());
}

}  // namespace
}  // namespace soap::repartition
