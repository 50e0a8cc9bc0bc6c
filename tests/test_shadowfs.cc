// Shadow filesystem tests: replay correctness (constrained + autonomous),
// the never-writes invariant (I1), base/shadow equivalence after replay
// (I3), cross-check discrepancy detection, crafted-image refusal, and the
// check-level ablation behaviour.
#include <gtest/gtest.h>

#include "fsck/crafted.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "shadowfs/shadow_replay.h"
#include "tests/support/fixtures.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::make_test_fs;
using testing_support::pattern_bytes;

// Build an op log by hand the way the supervisor would.
struct LogBuilder {
  std::vector<OpRecord> records;
  Seq next = 1;

  OpRecord& push(OpRequest req, OpOutcome out, bool completed = true) {
    OpRecord rec;
    rec.seq = next++;
    rec.req = std::move(req);
    rec.out = out;
    rec.completed = completed;
    records.push_back(std::move(rec));
    return records.back();
  }
};

OpRequest req_create(std::string path) {
  OpRequest r;
  r.kind = OpKind::kCreate;
  r.path = std::move(path);
  r.mode = 0644;
  return r;
}

OpRequest req_mkdir(std::string path) {
  OpRequest r;
  r.kind = OpKind::kMkdir;
  r.path = std::move(path);
  r.mode = 0755;
  return r;
}

OpRequest req_write(Ino ino, FileOff off, std::vector<uint8_t> data) {
  OpRequest r;
  r.kind = OpKind::kWrite;
  r.ino = ino;
  r.offset = off;
  r.data = std::move(data);
  return r;
}

TEST(ShadowFs, OpensValidImageAndRejectsGarbage) {
  auto t = make_test_device();
  ShadowFs shadow(t.device.get(), ShadowCheckLevel::kExtensive);
  EXPECT_NO_THROW(shadow.open());

  MemBlockDevice garbage(64);
  ShadowFs bad(&garbage, ShadowCheckLevel::kExtensive);
  EXPECT_THROW(bad.open(), ShadowCheckError);
}

TEST(ShadowFs, NeverWritesToDevice) {
  auto t = make_test_device();
  uint64_t writes_before = t.device->stats().writes.load();
  ShadowFs shadow(t.device.get(), ShadowCheckLevel::kExtensive);
  shadow.open();
  ASSERT_TRUE(shadow.mkdir("/d", 0755, 1).ok());
  ASSERT_TRUE(shadow.create("/d/f", 0644, 2).ok());
  auto ino = shadow.lookup("/d/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(shadow.write(ino.value(), 0, 0, pattern_bytes(10000), 3).ok());
  auto dirty = shadow.seal();
  EXPECT_FALSE(dirty.empty());
  EXPECT_EQ(t.device->stats().writes.load(), writes_before);  // invariant I1
}

TEST(ShadowFs, OperationsMatchModelSemantics) {
  auto t = make_test_device();
  ShadowFs shadow(t.device.get(), ShadowCheckLevel::kExtensive);
  shadow.open();
  ModelFs model(512);

  // Error-path parity.
  EXPECT_EQ(shadow.create("/missing/x", 0644, 1).error(),
            model.create("/missing/x", 0644).error());
  EXPECT_EQ(shadow.unlink("/ghost", 1).error(),
            model.unlink("/ghost").error());
  EXPECT_EQ(shadow.rmdir("/", 1).error(), model.rmdir("/").error());

  // Build an identical tree in both.
  ASSERT_TRUE(shadow.mkdir("/d", 0755, 1).ok());
  ASSERT_TRUE(model.mkdir("/d", 0755).ok());
  auto si = shadow.create("/d/f", 0644, 2);
  auto mi = model.create("/d/f", 0644);
  ASSERT_TRUE(si.ok());
  ASSERT_TRUE(mi.ok());
  EXPECT_EQ(si.value(), mi.value());  // allocation policy parity

  auto data = pattern_bytes(7000);
  ASSERT_TRUE(shadow.write(si.value(), 0, 0, data, 3).ok());
  ASSERT_TRUE(model.write(mi.value(), 0, 0, data).ok());
  EXPECT_EQ(shadow.read(si.value(), 0, 100, 500).value(),
            model.read(mi.value(), 0, 100, 500).value());
  EXPECT_EQ(shadow.stat("/d/f").value().size,
            model.stat("/d/f").value().size);
}

TEST(ShadowReplay, ConstrainedModeReproducesBaseState) {
  // Run ops on a real base, record them, sync half way... here: run the
  // ops only "virtually" (log) against the initial image and verify the
  // shadow's output matches a base that actually executed them.
  auto recorded = make_test_fs();
  LogBuilder log;

  // Execute on the base AND record (what the supervisor does).
  auto d = recorded.fs->mkdir("/dir", 0755);
  ASSERT_TRUE(d.ok());
  log.push(req_mkdir("/dir"), OpOutcome{Errno::kOk, d.value(), 0, {}});
  auto f = recorded.fs->create("/dir/file", 0644);
  ASSERT_TRUE(f.ok());
  log.push(req_create("/dir/file"), OpOutcome{Errno::kOk, f.value(), 0, {}});
  auto data = pattern_bytes(20000, 9);
  auto w = recorded.fs->write(f.value(), 0, 0, data);
  ASSERT_TRUE(w.ok());
  log.push(req_write(f.value(), 0, data),
           OpOutcome{Errno::kOk, kInvalidIno, w.value(), {}});
  // An op that failed in the base: must be skipped by the shadow.
  auto dup = recorded.fs->create("/dir/file", 0644);
  ASSERT_FALSE(dup.ok());
  log.push(req_create("/dir/file"), OpOutcome{dup.error(), kInvalidIno, 0, {}});

  // The recorded base syncs so we can compare final on-disk states.
  ASSERT_TRUE(recorded.fs->unmount().ok());

  // Fresh image + shadow replay of the log.
  auto fresh = make_test_device();
  ShadowConfig config;
  auto outcome = shadow_execute(fresh.device.get(), log.records, config);
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(outcome.ops_replayed, 3u);
  EXPECT_EQ(outcome.ops_skipped_errored, 1u);
  EXPECT_TRUE(outcome.discrepancies.empty());

  // Apply the dirty set and compare trees (including ino numbers).
  for (const auto& ib : outcome.dirty) {
    ASSERT_TRUE(fresh.device->write_block(ib.block, ib.data).ok());
  }
  ASSERT_TRUE(fresh.device->flush().ok());

  auto base_a = BaseFs::mount(recorded.device.get(), BaseFsOptions{});
  auto base_b = BaseFs::mount(fresh.device.get(), BaseFsOptions{});
  ASSERT_TRUE(base_a.ok());
  ASSERT_TRUE(base_b.ok());
  auto diff = testing_support::compare_trees(*base_a.value(), *base_b.value());
  EXPECT_EQ(diff, "") << diff;

  // And the shadow-produced image passes strict fsck.
  ASSERT_TRUE(base_b.value()->unmount().ok());
  auto report = fsck(fresh.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(ShadowReplay, CrossCheckDetectsDiscrepancies) {
  auto fresh = make_test_device();
  LogBuilder log;
  // Claim the base assigned ino 5 -- but the shadow (and any correct
  // implementation) will assign 2 on an empty image. Constrained mode
  // validates the base's decision: ino 5 is free, so it is *usable* and
  // the shadow adopts it; no discrepancy.
  log.push(req_create("/a"), OpOutcome{Errno::kOk, 5, 0, {}});
  // But recording success for an op that must fail IS a discrepancy.
  log.push(req_create("/a"), OpOutcome{Errno::kOk, 6, 0, {}});

  ShadowConfig config;
  auto outcome = shadow_execute(fresh.device.get(), log.records, config);
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  ASSERT_EQ(outcome.discrepancies.size(), 1u);
  EXPECT_EQ(outcome.discrepancies[0].seq, 2u);
  EXPECT_NE(outcome.discrepancies[0].description.find("EEXIST"),
            std::string::npos);
}

TEST(ShadowReplay, FatalDiscrepancyStopsWhenConfigured) {
  auto fresh = make_test_device();
  LogBuilder log;
  log.push(req_create("/a"), OpOutcome{Errno::kOk, 2, 0, {}});
  log.push(req_create("/a"), OpOutcome{Errno::kOk, 3, 0, {}});
  ShadowConfig config;
  config.continue_on_discrepancy = false;
  auto outcome = shadow_execute(fresh.device.get(), log.records, config);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.failure.find("discrepancy"), std::string::npos);
}

TEST(ShadowReplay, UnusableForcedInoRefused) {
  auto fresh = make_test_device();
  LogBuilder log;
  // The base claims it assigned the root inode to a new file: not free,
  // not usable -- recovery must refuse, not guess.
  log.push(req_create("/a"), OpOutcome{Errno::kOk, kRootIno, 0, {}});
  auto outcome = shadow_execute(fresh.device.get(), log.records, {});
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.failure.find("not free"), std::string::npos);
}

TEST(ShadowReplay, AutonomousModeExecutesInflight) {
  auto fresh = make_test_device();
  LogBuilder log;
  log.push(req_create("/done"), OpOutcome{Errno::kOk, 2, 0, {}});
  // In-flight create: no recorded outcome; shadow decides autonomously.
  log.push(req_create("/pending"), OpOutcome{}, /*completed=*/false);

  auto outcome = shadow_execute(fresh.device.get(), log.records, {});
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  ASSERT_EQ(outcome.inflight_results.size(), 1u);
  EXPECT_EQ(outcome.inflight_results[0].first, 2u);
  EXPECT_EQ(outcome.inflight_results[0].second.err, Errno::kOk);
  EXPECT_EQ(outcome.inflight_results[0].second.assigned_ino, 3u);
}

TEST(ShadowReplay, InflightReadExecutedWithPayload) {
  auto fresh = make_test_device();
  LogBuilder log;
  log.push(req_create("/f"), OpOutcome{Errno::kOk, 2, 0, {}});
  auto data = pattern_bytes(500, 4);
  log.push(req_write(2, 0, data), OpOutcome{Errno::kOk, kInvalidIno, 500, {}});

  OpRequest read_req;
  read_req.kind = OpKind::kRead;
  read_req.ino = 2;
  read_req.offset = 100;
  read_req.len = 200;
  log.push(std::move(read_req), OpOutcome{}, /*completed=*/false);

  auto outcome = shadow_execute(fresh.device.get(), log.records, {});
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  ASSERT_EQ(outcome.inflight_results.size(), 1u);
  const auto& result = outcome.inflight_results[0].second;
  EXPECT_EQ(result.err, Errno::kOk);
  EXPECT_EQ(result.payload,
            std::vector<uint8_t>(data.begin() + 100, data.begin() + 300));
}

TEST(ShadowReplay, SyncOpsSkippedAndInflightSyncFlagged) {
  auto fresh = make_test_device();
  LogBuilder log;
  log.push(req_create("/f"), OpOutcome{Errno::kOk, 2, 0, {}});
  OpRequest sync_done;
  sync_done.kind = OpKind::kSync;
  log.push(std::move(sync_done), OpOutcome{Errno::kOk, 0, 0, {}});
  OpRequest sync_pending;
  sync_pending.kind = OpKind::kFsync;
  sync_pending.ino = 2;
  log.push(std::move(sync_pending), OpOutcome{}, /*completed=*/false);

  auto outcome = shadow_execute(fresh.device.get(), log.records, {});
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(outcome.ops_skipped_sync, 2u);
  ASSERT_EQ(outcome.inflight_retry_syncs.size(), 1u);
  EXPECT_EQ(outcome.inflight_retry_syncs[0], 3u);
}

// Every crafted kind that strict fsck rates fatal, replayed under a log
// whose create walks the damaged root directory.
struct ShadowReplayCraftCase {
  CraftKind kind;
  bool refused;
};

class ShadowReplayCraftTest
    : public ::testing::TestWithParam<ShadowReplayCraftCase> {};

TEST_P(ShadowReplayCraftTest, RefusesCraftedImage) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->mkdir("/sub", 0755).ok());
  ASSERT_TRUE(t.fs->create("/sub/f", 0644).ok());
  ASSERT_TRUE(t.fs->unmount().ok());
  ASSERT_TRUE(craft_image(t.device.get(), GetParam().kind).ok());

  LogBuilder log;
  log.push(req_create("/x"), OpOutcome{Errno::kOk, 5, 0, {}});
  auto outcome = shadow_execute(t.device.get(), log.records, {});
  EXPECT_EQ(!outcome.ok, GetParam().refused)
      << to_string(GetParam().kind) << ": " << outcome.failure;
  EXPECT_EQ(outcome.failure.empty(), !GetParam().refused);
}

INSTANTIATE_TEST_SUITE_P(
    FatalCraftKinds, ShadowReplayCraftTest,
    ::testing::Values(
        ShadowReplayCraftCase{CraftKind::kBadDirentNameLen, true},
        // The create never resolves the damaged entry in these two; the
        // open-time tree walk refuses them anyway.
        ShadowReplayCraftCase{CraftKind::kDanglingDirent, true},
        ShadowReplayCraftCase{CraftKind::kWildInodePointer, true},
        ShadowReplayCraftCase{CraftKind::kDirCycleLink, true}),
    [](const ::testing::TestParamInfo<ShadowReplayCraftCase>& info) {
      std::string name = to_string(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ShadowReplay, ChecksScaleWithLevel) {
  auto t = make_test_device();
  LogBuilder log;
  log.push(req_create("/a"), OpOutcome{Errno::kOk, 2, 0, {}});
  log.push(req_write(2, 0, pattern_bytes(8000)),
           OpOutcome{Errno::kOk, kInvalidIno, 8000, {}});

  ShadowConfig none;
  none.checks = ShadowCheckLevel::kNone;
  ShadowConfig basic;
  basic.checks = ShadowCheckLevel::kBasic;
  ShadowConfig extensive;
  extensive.checks = ShadowCheckLevel::kExtensive;

  auto on = shadow_execute(t.device.get(), log.records, none);
  auto ob = shadow_execute(t.device.get(), log.records, basic);
  auto oe = shadow_execute(t.device.get(), log.records, extensive);
  ASSERT_TRUE(on.ok);
  ASSERT_TRUE(ob.ok);
  ASSERT_TRUE(oe.ok);
  EXPECT_LT(on.checks, ob.checks);
  EXPECT_LT(ob.checks, oe.checks);
  // All three produce the same dirty set.
  ASSERT_EQ(on.dirty.size(), oe.dirty.size());
  for (size_t i = 0; i < on.dirty.size(); ++i) {
    EXPECT_EQ(on.dirty[i].block, oe.dirty[i].block);
    EXPECT_EQ(on.dirty[i].data, oe.dirty[i].data);
  }
}

TEST(ShadowReplay, EmptyLogProducesNothing) {
  auto t = make_test_device();
  auto outcome = shadow_execute(t.device.get(), {}, {});
  ASSERT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.dirty.empty());
  EXPECT_EQ(outcome.ops_replayed, 0u);
}

TEST(ShadowReplay, RenameUnlinkTruncateSequence) {
  auto fresh = make_test_device();
  LogBuilder log;
  log.push(req_mkdir("/a"), OpOutcome{Errno::kOk, 2, 0, {}});
  log.push(req_create("/a/f"), OpOutcome{Errno::kOk, 3, 0, {}});
  log.push(req_write(3, 0, pattern_bytes(10000, 2)),
           OpOutcome{Errno::kOk, kInvalidIno, 10000, {}});

  OpRequest ren;
  ren.kind = OpKind::kRename;
  ren.path = "/a/f";
  ren.path2 = "/a/g";
  log.push(std::move(ren), OpOutcome{Errno::kOk, 0, 0, {}});

  OpRequest trunc;
  trunc.kind = OpKind::kTruncate;
  trunc.ino = 3;
  trunc.len = 100;
  log.push(std::move(trunc), OpOutcome{Errno::kOk, 0, 0, {}});

  auto outcome = shadow_execute(fresh.device.get(), log.records, {});
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_TRUE(outcome.discrepancies.empty());

  for (const auto& ib : outcome.dirty) {
    ASSERT_TRUE(fresh.device->write_block(ib.block, ib.data).ok());
  }
  ASSERT_TRUE(fresh.device->flush().ok());
  auto fs = BaseFs::mount(fresh.device.get(), BaseFsOptions{});
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(fs.value()->lookup("/a/f").error(), Errno::kNoEnt);
  auto st = fs.value()->stat("/a/g");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 100u);
  auto content = fs.value()->read(st.value().ino, 0, 0, 100);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), pattern_bytes(100, 2));
}

}  // namespace
}  // namespace raefs
