// Fleet resilience tests: checkpoint-driven live migration, chunk-loss
// retransmission, CRC rejection + rollback, restore-failure rollback,
// rollback when the destination dies mid-migration, kill-one-node evacuation
// (from checkpoint and from scratch), priority shedding under capacity
// pressure, a seed sweep of random migration plans, and bit-identical
// behavior across shard counts and threading modes.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/runtime/orchestrator.h"
#include "src/services/vector_kernels.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace coyote {
namespace {

using runtime::Fleet;
using runtime::MigrationRecord;
using runtime::Orchestrator;
using runtime::TenantOutcome;
using runtime::TenantSpec;

Fleet::Config BaseConfig() {
  Fleet::Config c;
  c.kernel_factory = [] { return std::make_unique<services::PassthroughKernel>(); };
  return c;
}

// The tenant data hash is a pure function of (tenant id, items_total,
// item_bytes): every item's payload is the deterministic pattern the fleet
// generates, passed through the passthrough kernel unchanged, folded FNV-1a
// with its item index. Recomputing it here makes the hash an end-to-end
// data-integrity witness — any migration that loses or corrupts tenant state
// diverges from this value.
uint64_t ExpectedHash(uint32_t tenant, uint64_t items_total, uint64_t item_bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (uint64_t item = 0; item < items_total; ++item) {
    fold(reinterpret_cast<const uint8_t*>(&item), sizeof(item));
    for (uint64_t i = 0; i < item_bytes; ++i) {
      const uint8_t b = static_cast<uint8_t>((tenant * 131 + item * 31 + i * 7) ^ (i >> 8));
      fold(&b, 1);
    }
  }
  return h;
}

const MigrationRecord* FindRecord(const Fleet& fleet, uint32_t tenant) {
  for (const auto& rec : fleet.orchestrator().migrations()) {
    if (rec.tenant == tenant) {
      return &rec;
    }
  }
  return nullptr;
}

// --- Planned live migration ---------------------------------------------------

TEST(OrchestratorTest, PlannedMigrationMovesTenantAndPreservesData) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.name = "mover";
  spec.home_node = 0;
  spec.items_total = 20;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, /*dst_node=*/1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_items_done(t), spec.items_total);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));

  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "ok");
  EXPECT_EQ(rec->src_node, 0u);
  EXPECT_EQ(rec->dst_node, 1u);
  EXPECT_GT(rec->ckpt_bytes, 0u);
  EXPECT_GT(rec->chunks, 0u);
  EXPECT_GT(rec->downtime, 0u);
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 1u);
}

// Item sizes that are neither a multiple of the pattern's 256-byte period
// (8000) nor of a 64-bit word (1001): the tail of every item's fill reaches
// the data hash, so a fill that drops or misplaces a tail byte diverges from
// ExpectedHash.
TEST(OrchestratorTest, OddItemSizesMigrateAndPreserveData) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  std::vector<TenantSpec> specs;
  for (const uint64_t bytes : {8000ull, 1001ull}) {
    TenantSpec spec;
    spec.name = "odd" + std::to_string(bytes);
    spec.home_node = 0;
    spec.items_total = 20;
    spec.item_bytes = bytes;
    specs.push_back(spec);
    ids.push_back(fleet.AddTenant(spec));
  }
  fleet.ScheduleMigration(sim::Microseconds(150), ids[0], /*dst_node=*/1);
  fleet.ScheduleMigration(sim::Microseconds(200), ids[1], /*dst_node=*/1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(fleet.tenant_outcome(ids[i]), TenantOutcome::kDone) << specs[i].name;
    EXPECT_EQ(fleet.tenant_data_hash(ids[i]),
              ExpectedHash(ids[i], specs[i].items_total, specs[i].item_bytes))
        << specs[i].name;
    const MigrationRecord* rec = FindRecord(fleet, ids[i]);
    ASSERT_NE(rec, nullptr) << specs[i].name;
    EXPECT_EQ(rec->outcome, "ok") << specs[i].name;
    EXPECT_EQ(fleet.orchestrator().tenants().at(ids[i]).node, 1u) << specs[i].name;
  }
}

TEST(OrchestratorTest, MigrationToFullOrDeadDestinationIsRejected) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.regions_per_node = 1;
  Fleet fleet(c);

  TenantSpec a;
  a.home_node = 0;
  a.items_total = 10;
  TenantSpec b;
  b.home_node = 1;
  b.items_total = 10;
  const uint32_t ta = fleet.AddTenant(a);
  fleet.AddTenant(b);
  // Node 1's only region is occupied: the migration command is refused and
  // the tenant keeps running at home.
  fleet.ScheduleMigration(sim::Microseconds(100), ta, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(ta), TenantOutcome::kDone);
  EXPECT_EQ(fleet.orchestrator().tenants().at(ta).node, 0u);
  EXPECT_TRUE(fleet.orchestrator().migrations().empty());
}

TEST(OrchestratorTest, MigrationReachingARetiredTenantAbortsWithoutRollback) {
  // The tenant retires its last item on node 0 at 120,518,668 ps, and the
  // orchestrator hears it one lookahead later, at 121,128,908 ps. A migration
  // started in between reaches a source that no longer runs the tenant: it
  // aborts as src_done, and nothing rolls back.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 5;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Nanoseconds(120'600), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(orch.settled_at(), 121'128'908u);
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  ASSERT_EQ(orch.migrations().size(), 1u);
  const MigrationRecord& rec = orch.migrations()[0];
  EXPECT_EQ(rec.outcome, "abort.src_done");
  EXPECT_EQ(rec.started_at, sim::Nanoseconds(120'600));
  EXPECT_EQ(rec.resumed_at, 0u);
  EXPECT_EQ(orch.events().value("migrate.fail"), 1u);
  EXPECT_EQ(orch.rollbacks(), 0u);
  EXPECT_EQ(orch.events().value("rollback.resumed"), 0u);
  EXPECT_EQ(orch.tenants().at(t).node, 0u);
  EXPECT_FALSE(orch.tenants().at(t).migration.has_value());
}

// --- Transfer-layer faults ----------------------------------------------------

TEST(OrchestratorTest, DroppedChunksAreRetransmittedUntilComplete) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.fault_template.migration_chunk_drop_first_n = 3;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 20;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));

  // Three of the five chunks are lost in the first round; one resend round
  // carries them. Pinned, so a change to how a round travels cannot move the
  // migration's timing.
  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "ok");
  EXPECT_EQ(rec->chunks, 5u);
  EXPECT_EQ(rec->retransmit_rounds, 1u);
  EXPECT_EQ(rec->resumed_at, 163'872'950u);
  EXPECT_EQ(rec->downtime, 13'262'710u);
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 1u);
  EXPECT_EQ(fleet.orchestrator().settled_at(), 535'868'908u);
  EXPECT_EQ(fleet.orchestrator().TraceFingerprint(), 0x2c77caf70a974bdaull);
}

TEST(OrchestratorTest, CorruptCheckpointIsRejectedByCrcAndRolledBack) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  // Every transfer round arrives bit-flipped: the CYK1 CRC rejects each
  // assembly, the retransmit budget runs dry, and the orchestrator rolls the
  // tenant back to the source instead of restoring garbage.
  c.fault_template.checkpoint_corrupt_rate = 1.0;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 20;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 0u);
  EXPECT_EQ(fleet.orchestrator().rollbacks(), 1u);

  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "rollback.transfer");
  EXPECT_GE(rec->retransmit_rounds, 1u);
  EXPECT_EQ(fleet.orchestrator().TraceFingerprint(), 0x8691e44300e0d552ull);
}

TEST(OrchestratorTest, TransferRollbackLeavesNoChunksAtTheDestination) {
  // The first transfer loses chunks until its retransmit budget runs out and
  // rolls back after chunks 3 and 4 reached node 1. The rollback must drop
  // them there: the second transfer to node 1 then rebuilds its blob from
  // its own chunks, and its one resend round fills what it lost. Merged
  // with the stale chunks, the blob failed its CRC and cost a full round.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.seed = 6;
  c.fault_template.migration_chunk_drop_first_n = 33;
  c.fault_template.migration_chunk_drop_rate = 0.2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 60;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);
  fleet.ScheduleMigration(sim::Microseconds(700), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 1u);
  const auto& records = fleet.orchestrator().migrations();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, "rollback.transfer");
  EXPECT_EQ(records[0].retransmit_rounds, 6u);
  EXPECT_EQ(records[0].resumed_at, 276'670'195u);
  EXPECT_EQ(records[1].outcome, "ok");
  EXPECT_EQ(records[1].retransmit_rounds, 1u);
  EXPECT_EQ(records[1].resumed_at, 713'885'670u);
  EXPECT_EQ(records[1].downtime, 13'275'430u);
}

TEST(OrchestratorTest, RestoreFailureRollsBackToSource) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.fault_template.restore_fail_first_n = 2;  // exhaust both attempts
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 20;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 0u);
  EXPECT_EQ(fleet.orchestrator().rollbacks(), 1u);

  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "rollback.restore");
  EXPECT_EQ(rec->restore_attempts, 2u);
  EXPECT_EQ(fleet.orchestrator().TraceFingerprint(), 0x14ba3ae6a96b7233ull);
}

TEST(OrchestratorTest, RolledBackMigrationReleasesTheDestinationRegion) {
  // Node 1's only region is reserved for the first migration, whose restore
  // fails twice and rolls back. The rollback must free that region, or the
  // second migration to node 1 is refused as if the node were full.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.regions_per_node = 1;
  c.fault_template.restore_fail_first_n = 2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 60;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);
  fleet.ScheduleMigration(sim::Microseconds(900), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(fleet.orchestrator().events().value("migrate.reject"), 0u);
  const auto& records = fleet.orchestrator().migrations();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, "rollback.restore");
  EXPECT_EQ(records[1].outcome, "ok");
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 1u);
}

TEST(OrchestratorTest, RollbackResumeStampsItsOwnRecord) {
  // The first migration's restore fails twice and rolls back. The second
  // migration starts at 155.25 us, after the rollback was ordered and before
  // the source's resume report reaches the orchestrator: that report must
  // stamp the rolled-back record, not the open one. Record 0 gets what a lone
  // rollback records.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.fault_template.restore_fail_first_n = 2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 20;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);
  fleet.ScheduleMigration(sim::Nanoseconds(155'250), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  const auto& records = fleet.orchestrator().migrations();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, "rollback.restore");
  EXPECT_EQ(records[0].resumed_at, 155'827'155u);
  EXPECT_EQ(records[0].downtime, 5'216'915u);
  EXPECT_EQ(records[1].outcome, "ok");
  EXPECT_EQ(records[1].resumed_at, 161'935'440u);
  EXPECT_EQ(records[1].downtime, 6'075'200u);
  EXPECT_EQ(fleet.orchestrator().TraceFingerprint(), 0x6cdb783d3050e145ull);
}

TEST(OrchestratorTest, DestinationDyingMidMigrationRollsBackToSource) {
  // Node 1 dies one microsecond before the migration to it starts. It is not
  // yet declared dead, so the migration begins and its chunks vanish; once
  // the detector declares node 1, the tenant resumes on its live source.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 20;
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleKill(sim::Microseconds(149), 1);
  fleet.ScheduleMigration(sim::Microseconds(150), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(fleet.orchestrator().rollbacks(), 1u);
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 0u);

  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "rollback.dst_dead");
  EXPECT_GT(rec->resumed_at, 0u);
}

// --- Node death and evacuation ------------------------------------------------

TEST(OrchestratorTest, KillOneNodeEvacuatesTenantsFromCheckpoint) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 3;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  std::vector<TenantSpec> specs;
  for (uint32_t i = 0; i < 4; ++i) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.home_node = i < 2 ? 0 : i - 1;  // two on node 0, one each on 1 and 2
    spec.items_total = 30;
    spec.think_time = sim::Microseconds(25);
    ids.push_back(fleet.AddTenant(spec));
    specs.push_back(spec);
  }
  fleet.ScheduleKill(sim::Microseconds(620), 0);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(orch.deaths_declared(), 1u);
  EXPECT_EQ(orch.evacuations(), 2u);
  EXPECT_EQ(orch.sheds(), 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(fleet.tenant_outcome(ids[i]), TenantOutcome::kDone) << "tenant " << i;
    EXPECT_EQ(fleet.tenant_data_hash(ids[i]),
              ExpectedHash(ids[i], specs[i].items_total, specs[i].item_bytes))
        << "tenant " << i;
  }
  // Both node-0 tenants resumed from a stored periodic checkpoint — replay,
  // not restart: the evacuation records say so and land on live nodes.
  for (uint32_t i = 0; i < 2; ++i) {
    const MigrationRecord* rec = FindRecord(fleet, ids[i]);
    ASSERT_NE(rec, nullptr) << "tenant " << i;
    EXPECT_EQ(rec->outcome, "evacuated") << "tenant " << i;
    EXPECT_EQ(rec->reason, "node.dead");
    EXPECT_NE(rec->dst_node, 0u);
    EXPECT_GT(rec->ckpt_bytes, 0u);
    EXPECT_NE(fleet.orchestrator().tenants().at(ids[i]).node, 0u);
  }
}

TEST(OrchestratorTest, EvacuationWithoutCheckpointRestartsFresh) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.checkpoint_period = 0;  // periodic checkpoints disabled
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 30;
  spec.think_time = sim::Microseconds(25);
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleKill(sim::Microseconds(400), 0);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "evacuated.fresh");
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 1u);
}

TEST(OrchestratorTest, EvacuationReplayRetransmitsADroppedChunk) {
  // The orchestrator replays the stored checkpoint itself. Its first chunk
  // is dropped, so the survivor asks the orchestrator, not the dead source,
  // for a resend.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  c.fault_template.migration_chunk_drop_first_n = 1;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 30;
  spec.think_time = sim::Microseconds(25);
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleKill(sim::Microseconds(620), 0);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(fleet.orchestrator().events().value("transfer.retry"), 1u);
  const MigrationRecord* rec = FindRecord(fleet, t);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "evacuated");
  EXPECT_EQ(rec->reason, "node.dead");
  EXPECT_EQ(rec->retransmit_rounds, 1u);
  EXPECT_EQ(rec->resumed_at, 910'546'240u);
  EXPECT_EQ(fleet.orchestrator().tenants().at(t).node, 1u);
}

TEST(OrchestratorTest, SourceDyingBeforeQuiesceAbortsThenEvacuates) {
  // Node 0 dies one microsecond before a planned migration off it starts. It
  // is not yet declared dead, so the migration reserves a region on node 1
  // and the quiesce goes to a dead source. Once the detector declares node
  // 0, the migration aborts, node 1 abandons the inbound transfer and frees
  // the reservation, and the tenant is evacuated from its stored checkpoint.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  Fleet fleet(c);

  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 30;
  spec.think_time = sim::Microseconds(25);
  const uint32_t t = fleet.AddTenant(spec);
  fleet.ScheduleKill(sim::Microseconds(600), 0);
  fleet.ScheduleMigration(sim::Microseconds(601), t, 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(fleet.tenant_outcome(t), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_data_hash(t), ExpectedHash(t, spec.items_total, spec.item_bytes));
  EXPECT_EQ(orch.rollbacks(), 0u);
  const auto& records = orch.migrations();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, "abort.src_dead");
  EXPECT_EQ(records[0].reason, "planned");
  EXPECT_EQ(records[1].outcome, "evacuated");
  EXPECT_EQ(records[1].reason, "node.dead");
  EXPECT_EQ(records[1].dst_node, 1u);
  EXPECT_EQ(records[1].resumed_at, 804'003'200u);
  EXPECT_EQ(orch.tenants().at(t).node, 1u);
}

TEST(OrchestratorTest, CapacityPressureShedsLowestPriorityWithTypedOutcome) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 2;
  Fleet fleet(c);

  // Node 0 carries the high-priority pair, node 1 the low-priority pair;
  // killing node 0 with zero free regions forces displacement.
  std::vector<uint32_t> ids;
  const uint32_t prios[4] = {5, 5, 1, 0};
  for (uint32_t i = 0; i < 4; ++i) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.priority = prios[i];
    spec.home_node = i < 2 ? 0 : 1;
    spec.items_total = i < 2 ? 30 : 60;
    spec.think_time = sim::Microseconds(25);
    ids.push_back(fleet.AddTenant(spec));
  }
  fleet.ScheduleKill(sim::Microseconds(620), 0);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(orch.deaths_declared(), 1u);
  EXPECT_EQ(orch.sheds(), 2u);
  // High-priority tenants displaced the low-priority pair and finished.
  EXPECT_EQ(fleet.tenant_outcome(ids[0]), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_outcome(ids[1]), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_outcome(ids[2]), TenantOutcome::kShed);
  EXPECT_EQ(fleet.tenant_outcome(ids[3]), TenantOutcome::kShed);
  EXPECT_EQ(orch.tenants().at(ids[0]).node, 1u);
  EXPECT_EQ(orch.tenants().at(ids[1]).node, 1u);
  EXPECT_EQ(orch.TraceFingerprint(), 0x8217ed48ebe496d4ull);
}

TEST(OrchestratorTest, EvacuationWhoseDestinationDiesEvacuatesAgain) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 3;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  std::vector<TenantSpec> specs;
  for (const uint32_t home : {0u, 0u, 2u}) {
    TenantSpec spec;
    spec.home_node = home;
    spec.items_total = 30;
    spec.think_time = sim::Microseconds(25);
    ids.push_back(fleet.AddTenant(spec));
    specs.push_back(spec);
  }
  // Node 1 dies before node 0's death is declared, so both node-0 tenants
  // are evacuated onto it; its own declaration must send them on again.
  fleet.ScheduleKill(sim::Microseconds(620), 0);
  fleet.ScheduleKill(sim::Microseconds(700), 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(orch.deaths_declared(), 2u);
  const MigrationRecord* first = FindRecord(fleet, ids[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->dst_node, 1u);
  EXPECT_EQ(first->outcome, "abort.dst_dead");
  // Node 2 has one free region: the first evacuee takes it and finishes
  // with its data intact, the second sheds typed.
  EXPECT_EQ(fleet.tenant_outcome(ids[0]), TenantOutcome::kDone);
  EXPECT_EQ(orch.tenants().at(ids[0]).node, 2u);
  EXPECT_EQ(fleet.tenant_data_hash(ids[0]),
            ExpectedHash(ids[0], specs[0].items_total, specs[0].item_bytes));
  EXPECT_EQ(fleet.tenant_outcome(ids[1]), TenantOutcome::kShed);
  EXPECT_EQ(fleet.tenant_outcome(ids[2]), TenantOutcome::kDone);
  EXPECT_EQ(orch.sheds(), 1u);
}

TEST(OrchestratorTest, EvacueeOrphanedByItsVictimsDeathIsEvacuatedAgain) {
  // One region per node, priorities 2, 0 and 1 on nodes 0, 1 and 2. Node 0's
  // death leaves its tenant no free region, so the lowest-priority tenant,
  // on node 1, is picked as the shed victim and the evacuee waits for its
  // ack. Node 1 dies before the shed command lands, so no ack comes; node
  // 1's declaration hands the orphaned evacuee back to the evacuation path,
  // which sheds node 2's tenant instead.
  Fleet::Config c = BaseConfig();
  c.num_nodes = 3;
  c.regions_per_node = 1;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  std::vector<TenantSpec> specs;
  const uint32_t prios[3] = {2, 0, 1};
  const uint64_t items[3] = {30, 60, 120};
  for (uint32_t i = 0; i < 3; ++i) {
    TenantSpec spec;
    spec.priority = prios[i];
    spec.home_node = i;
    spec.items_total = items[i];
    spec.think_time = sim::Microseconds(25);
    ids.push_back(fleet.AddTenant(spec));
    specs.push_back(spec);
  }
  fleet.ScheduleKill(sim::Microseconds(620), 0);
  fleet.ScheduleKill(sim::Microseconds(700), 1);

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(100)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(orch.deaths_declared(), 2u);
  EXPECT_EQ(orch.events().value("shed.request"), 2u);
  EXPECT_EQ(fleet.tenant_outcome(ids[0]), TenantOutcome::kDone);
  EXPECT_EQ(orch.tenants().at(ids[0]).node, 2u);
  EXPECT_EQ(fleet.tenant_data_hash(ids[0]),
            ExpectedHash(ids[0], specs[0].items_total, specs[0].item_bytes));
  const MigrationRecord* rec = FindRecord(fleet, ids[0]);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->outcome, "evacuated");
  EXPECT_EQ(rec->dst_node, 2u);
  EXPECT_EQ(fleet.tenant_outcome(ids[1]), TenantOutcome::kShed);
  EXPECT_EQ(fleet.tenant_outcome(ids[2]), TenantOutcome::kShed);
  EXPECT_EQ(orch.sheds(), 2u);
}

TEST(OrchestratorTest, TenantAddedToAFullHomeNodeIsShedAtAdmission) {
  Fleet fleet(BaseConfig());  // 2 nodes x 2 regions

  std::vector<uint32_t> ids;
  TenantSpec spec;
  spec.home_node = 0;
  spec.items_total = 10;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(fleet.AddTenant(spec));
  }

  ASSERT_TRUE(fleet.Run(sim::Milliseconds(50)));
  const Orchestrator& orch = fleet.orchestrator();
  EXPECT_EQ(fleet.tenant_outcome(ids[0]), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_outcome(ids[1]), TenantOutcome::kDone);
  EXPECT_EQ(fleet.tenant_outcome(ids[2]), TenantOutcome::kShed);
  EXPECT_EQ(orch.tenants().at(ids[2]).region, -1);
  EXPECT_EQ(orch.sheds(), 1u);
  EXPECT_EQ(fleet.tenant_data_hash(ids[1]), ExpectedHash(ids[1], spec.items_total, spec.item_bytes));
}

// --- Random migration plans ---------------------------------------------------

// 4 nodes x 2 regions, tenant n on node n. Per seed, sim::Rng(seed) draws each
// tenant's item count and size, then the kill time and node, then a random
// tenant and destination every 500 us from 2.5 ms to before 5 ms. A planned
// migration must leave its source region clean: a DMA still running on
// freed buffers page-faults, the supervisor declares the region hung, and a
// later restore into it fails.
TEST(OrchestratorSweepTest, RandomMigrationPlansSettleWithoutHangsOrPageFaults) {
  constexpr uint32_t kNodes = 4;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    Fleet::Config c = BaseConfig();
    c.num_nodes = kNodes;
    c.seed = seed;
    Fleet fleet(c);
    std::vector<TenantSpec> specs(kNodes);
    std::vector<uint32_t> ids;
    for (uint32_t n = 0; n < kNodes; ++n) {
      specs[n].home_node = n;
      specs[n].items_total = 200 + rng.NextBounded(8);
      specs[n].item_bytes = (8 << 10) - 64 * rng.NextBounded(8);
      ids.push_back(fleet.AddTenant(specs[n]));
    }
    const sim::TimePs kill_at = sim::Milliseconds(5) + rng.NextBounded(sim::Microseconds(500));
    fleet.ScheduleKill(kill_at, static_cast<uint32_t>(rng.NextBounded(kNodes)));
    for (sim::TimePs at = sim::Milliseconds(2.5); at < sim::Milliseconds(5);
         at += sim::Microseconds(500)) {
      const uint64_t tenant = rng.NextBounded(kNodes);
      fleet.ScheduleMigration(at, ids[tenant], static_cast<uint32_t>(rng.NextBounded(kNodes)));
    }

    EXPECT_TRUE(fleet.Run(sim::Milliseconds(200)));
    uint64_t hangs = 0;
    uint64_t page_faults = 0;
    for (uint32_t n = 0; n < kNodes; ++n) {
      hangs += fleet.node_supervisor(n).hangs_detected();
      page_faults += fleet.node_device(n).data_mover().page_fault_irqs();
    }
    EXPECT_EQ(hangs, 0u);
    EXPECT_EQ(page_faults, 0u);
    for (uint32_t n = 0; n < kNodes; ++n) {
      EXPECT_EQ(fleet.tenant_outcome(ids[n]), TenantOutcome::kDone) << "tenant " << n;
      EXPECT_EQ(fleet.tenant_data_hash(ids[n]),
                ExpectedHash(ids[n], specs[n].items_total, specs[n].item_bytes))
          << "tenant " << n;
    }
  }
}

// --- Cross-shard-count determinism --------------------------------------------

struct FleetRunResult {
  uint64_t trace_fp = 0;
  uint64_t injector_fp = 0;
  sim::TimePs settled_at = 0;
  std::vector<uint64_t> hashes;
  std::vector<TenantOutcome> outcomes;
  bool settled = false;

  bool operator==(const FleetRunResult& o) const {
    return trace_fp == o.trace_fp && injector_fp == o.injector_fp &&
           settled_at == o.settled_at && hashes == o.hashes && outcomes == o.outcomes &&
           settled == o.settled;
  }
};

FleetRunResult RunDeterminismFleet(uint32_t num_shards, bool use_threads) {
  Fleet::Config c = BaseConfig();
  c.num_nodes = 7;  // + the orchestrator = 8 logical nodes: fills 8 shards
  c.num_shards = num_shards;
  c.use_threads = use_threads;
  c.seed = 77;
  c.fault_template.migration_chunk_drop_first_n = 2;
  Fleet fleet(c);

  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 6; ++i) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.priority = i % 3;
    spec.home_node = i;  // node 6 stays free for evacuations
    spec.items_total = 12;
    spec.think_time = sim::Microseconds(25);
    ids.push_back(fleet.AddTenant(spec));
  }
  fleet.ScheduleMigration(sim::Microseconds(150), ids[1], 6);
  fleet.ScheduleKill(sim::Microseconds(620), 0);

  FleetRunResult res;
  res.settled = fleet.Run(sim::Milliseconds(100));
  res.trace_fp = fleet.orchestrator().TraceFingerprint();
  res.injector_fp = fleet.InjectorFingerprint();
  res.settled_at = fleet.orchestrator().settled_at();
  for (const uint32_t id : ids) {
    res.hashes.push_back(fleet.tenant_data_hash(id));
    res.outcomes.push_back(fleet.tenant_outcome(id));
  }
  return res;
}

TEST(OrchestratorDeterminismTest, FleetIsBitIdenticalAcrossShardCountsAndThreading) {
  const FleetRunResult golden = RunDeterminismFleet(1, false);
  ASSERT_TRUE(golden.settled);
  // Pinned, not only compared run against run: a change that shifts the
  // outcome the same way at every shard count still fails here.
  EXPECT_EQ(golden.trace_fp, 0x1d1dcb44102e149dull);
  EXPECT_EQ(golden.injector_fp, 0x89bd7e9c47644667ull);
  EXPECT_EQ(golden.settled_at, 372856908u);
  for (const uint32_t shards : {2u, 4u, 8u}) {
    const FleetRunResult seq = RunDeterminismFleet(shards, false);
    EXPECT_TRUE(seq == golden) << "sequential shards=" << shards;
    const FleetRunResult thr = RunDeterminismFleet(shards, true);
    EXPECT_TRUE(thr == golden) << "threaded shards=" << shards;
  }
}

TEST(OrchestratorDeterminismTest, SameSeedRunsAreBitIdentical) {
  const FleetRunResult a = RunDeterminismFleet(4, false);
  const FleetRunResult b = RunDeterminismFleet(4, false);
  ASSERT_TRUE(a.settled);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace coyote
