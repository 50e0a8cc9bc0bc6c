// Shadow filesystem tests: replay correctness (constrained + autonomous),
// the never-writes invariant (I1), base/shadow equivalence after replay
// (I3), cross-check discrepancy detection, crafted-image refusal, the
// check-level ablation behaviour, and the read memo (each block of S0 is
// read from the device at most once, file contents are never kept).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "blockdev/fault_device.h"
#include "fsck/crafted.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "shadowfs/shadow_fsck.h"
#include "shadowfs/shadow_replay.h"
#include "tests/support/fixtures.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::make_test_fs;
using testing_support::pattern_bytes;
using testing_support::TestFs;

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

// Reaches into ShadowFs (it is a friend) to see the read memo and the
// block behind a file offset.
class ShadowFsTestPeer {
 public:
  static bool memo_holds(const ShadowFs& fs, BlockNo block) {
    return fs.memo_.count(block) > 0;
  }
  static size_t memo_size(const ShadowFs& fs) { return fs.memo_.size(); }
  static std::vector<uint8_t> read_block(ShadowFs& fs, BlockNo block) {
    return fs.read_block(block);
  }
  static DiskInode inode(ShadowFs& fs, Ino ino) { return fs.get_inode(ino); }
  /// The block holding `file_block` of inode `ino` (0 if unmapped).
  static BlockNo block_of(ShadowFs& fs, Ino ino, uint64_t file_block) {
    DiskInode inode = fs.get_inode(ino);
    return fs.map_block(&inode, file_block, /*alloc=*/false).value();
  }
};

namespace {

/// Counts device reads per block.
class ReadCountingDevice final : public BlockDevice {
 public:
  explicit ReadCountingDevice(BlockDevice* inner) : inner_(inner) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo b, std::span<uint8_t> out) override {
    ++reads_[b];
    return inner_->read_block(b, out);
  }
  Status write_block(BlockNo b, std::span<const uint8_t> d) override {
    return inner_->write_block(b, d);
  }
  Status flush() override { return inner_->flush(); }
  const DeviceStats& stats() const override { return inner_->stats(); }

  uint32_t reads_of(BlockNo b) const {
    auto it = reads_.find(b);
    return it == reads_.end() ? 0 : it->second;
  }
  size_t distinct_blocks_read() const { return reads_.size(); }
  uint32_t max_reads_of_one_block() const {
    uint32_t most = 0;
    for (const auto& [b, n] : reads_) most = std::max(most, n);
    return most;
  }

 private:
  BlockDevice* inner_;
  std::map<BlockNo, uint32_t> reads_;
};

/// An image with /d/f0../d/f3 of two blocks each.
TestFs make_populated_device() {
  auto t = make_test_fs();
  if (!t.fs->mkdir("/d", 0755).ok()) std::abort();
  for (int i = 0; i < 4; ++i) {
    auto ino = t.fs->create("/d/f" + std::to_string(i), 0644);
    if (!ino.ok()) std::abort();
    auto data = pattern_bytes(2 * kBlockSize, static_cast<uint8_t>(i));
    if (!t.fs->write(ino.value(), 0, 0, data).ok()) std::abort();
  }
  if (!t.fs->unmount().ok()) std::abort();
  t.fs.reset();
  return t;
}

TEST(ShadowMemo, RepeatedStatsAndWritesReadEachBlockOnce) {
  auto t = make_populated_device();
  ReadCountingDevice counting(t.device.get());
  ShadowFs shadow(&counting, ShadowCheckLevel::kExtensive);
  shadow.open();
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      std::string path = "/d/f" + std::to_string(i);
      auto st = shadow.stat(path);
      ASSERT_TRUE(st.ok());
      auto data = pattern_bytes(100, static_cast<uint8_t>(round));
      ASSERT_TRUE(
          shadow.write(st.value().ino, 0, 37 * round, data, round).ok());
      ASSERT_TRUE(shadow.create(path + "." + std::to_string(round), 0644,
                                round)
                      .ok());
    }
  }
  EXPECT_EQ(counting.max_reads_of_one_block(), 1u);
  EXPECT_EQ(shadow.device_reads(), counting.distinct_blocks_read());
  EXPECT_FALSE(shadow.seal().empty());
}

TEST(ShadowMemo, WholeBlockWriteReadsNoDataBlock) {
  auto t = make_populated_device();
  ReadCountingDevice counting(t.device.get());
  ShadowFs shadow(&counting, ShadowCheckLevel::kExtensive);
  shadow.open();
  Ino ino = shadow.lookup("/d/f1").value();
  BlockNo first = ShadowFsTestPeer::block_of(shadow, ino, 0);
  BlockNo second = ShadowFsTestPeer::block_of(shadow, ino, 1);
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);

  // Two whole blocks over existing data, and a third that is allocated.
  auto data = pattern_bytes(3 * kBlockSize, 99);
  auto written = shadow.write(ino, 0, 0, data, 1);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), data.size());
  EXPECT_EQ(counting.reads_of(first), 0u);
  EXPECT_EQ(counting.reads_of(second), 0u);
  BlockNo third = ShadowFsTestPeer::block_of(shadow, ino, 2);
  EXPECT_EQ(counting.reads_of(third), 0u);
  EXPECT_EQ(shadow.read(ino, 0, 0, data.size()).value(), data);
}

TEST(ShadowMemo, PartialWriteReadsOneBlockAndKeepsItsNeighbours) {
  auto t = make_populated_device();
  ReadCountingDevice counting(t.device.get());
  ShadowFs shadow(&counting, ShadowCheckLevel::kExtensive);
  shadow.open();
  Ino ino = shadow.lookup("/d/f2").value();
  ASSERT_TRUE(shadow.stat_ino(ino).ok());  // the inode's blocks are read

  const uint64_t before = shadow.device_reads();
  auto patch = pattern_bytes(100, 200);
  ASSERT_TRUE(shadow.write(ino, 0, kBlockSize + 50, patch, 1).ok());
  EXPECT_EQ(shadow.device_reads() - before, 1u);
  BlockNo patched = ShadowFsTestPeer::block_of(shadow, ino, 1);
  EXPECT_EQ(counting.reads_of(patched), 1u);
  EXPECT_FALSE(ShadowFsTestPeer::memo_holds(shadow, patched));

  auto expect = pattern_bytes(2 * kBlockSize, 2);
  std::copy(patch.begin(), patch.end(), expect.begin() + kBlockSize + 50);
  EXPECT_EQ(shadow.read(ino, 0, 0, expect.size()).value(), expect);
}

TEST(ShadowMemo, FreedBlockRereadsTheDeviceBytes) {
  auto t = make_populated_device();
  ShadowFs shadow(t.device.get(), ShadowCheckLevel::kExtensive);
  shadow.open();
  Ino dir = shadow.lookup("/d").value();
  Ino file = shadow.lookup("/d/f3").value();
  BlockNo dir_block = ShadowFsTestPeer::block_of(shadow, dir, 0);
  BlockNo data_block = ShadowFsTestPeer::block_of(shadow, file, 0);
  std::vector<uint8_t> dir_on_device(kBlockSize);
  std::vector<uint8_t> data_on_device(kBlockSize);
  ASSERT_TRUE(t.device->read_block(dir_block, dir_on_device).ok());
  ASSERT_TRUE(t.device->read_block(data_block, data_on_device).ok());

  // Overwrite both in the overlay, then free both: the directory block
  // was kept by the memo, the file block was not.
  ASSERT_TRUE(
      shadow.write(file, 0, 0, pattern_bytes(kBlockSize, 50), 1).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(shadow.unlink("/d/f" + std::to_string(i), 2).ok());
  }
  ASSERT_TRUE(ShadowFsTestPeer::memo_holds(shadow, dir_block));
  ASSERT_TRUE(shadow.rmdir("/d", 3).ok());

  EXPECT_EQ(ShadowFsTestPeer::read_block(shadow, dir_block), dir_on_device);
  EXPECT_EQ(ShadowFsTestPeer::read_block(shadow, data_block), data_on_device);
}

TEST(ShadowMemo, OneShotReadErrorRefusesAndTheRetrySealsTheSameOutput) {
  auto t = make_populated_device();
  Ino f0 = 0;
  {
    ShadowFs probe(t.device.get(), ShadowCheckLevel::kExtensive);
    probe.open();
    f0 = probe.lookup("/d/f0").value();
  }
  LogBuilder log;
  log.push(req_mkdir("/e"), OpOutcome{Errno::kOk, 100, 0, {}});
  log.push(req_create("/e/g"), OpOutcome{Errno::kOk, 101, 0, {}});
  log.push(req_write(101, 0, pattern_bytes(9000, 3)),
           OpOutcome{Errno::kOk, kInvalidIno, 9000, {}});
  log.push(req_write(f0, 100, pattern_bytes(300, 4)),
           OpOutcome{Errno::kOk, kInvalidIno, 300, {}});
  auto clean = shadow_execute(t.device.get(), log.records, {});
  ASSERT_TRUE(clean.ok) << clean.failure;

  FaultBlockDevice faulty(t.device.get());
  for (uint64_t at : {uint64_t{1}, clean.device_reads / 2,
                      clean.device_reads - 1}) {
    faulty.arm_read_error_at(faulty.reads_seen() + at);
    auto refused = shadow_execute(&faulty, log.records, {});
    EXPECT_FALSE(refused.ok) << "read " << at;
    EXPECT_NE(refused.failure.find("device read failed"), std::string::npos)
        << refused.failure;

    auto retried = shadow_execute(&faulty, log.records, {});
    ASSERT_TRUE(retried.ok) << retried.failure;
    ASSERT_EQ(retried.dirty.size(), clean.dirty.size());
    for (size_t i = 0; i < clean.dirty.size(); ++i) {
      EXPECT_EQ(retried.dirty[i].block, clean.dirty[i].block);
      EXPECT_EQ(retried.dirty[i].cls, clean.dirty[i].cls);
      EXPECT_EQ(retried.dirty[i].data, clean.dirty[i].data);
    }
  }

  // Within one shadow, the failed read leaves no memo entry: the next
  // read of the block goes to the device again and returns its bytes.
  ShadowFs shadow(&faulty, ShadowCheckLevel::kExtensive);
  shadow.open();
  BlockNo table = shadow.geometry().inode_table_start + 1;
  faulty.arm_read_error_at(faulty.reads_seen());
  EXPECT_THROW(ShadowFsTestPeer::read_block(shadow, table), ShadowCheckError);
  EXPECT_FALSE(ShadowFsTestPeer::memo_holds(shadow, table));
  std::vector<uint8_t> on_device(kBlockSize);
  ASSERT_TRUE(t.device->read_block(table, on_device).ok());
  EXPECT_EQ(ShadowFsTestPeer::read_block(shadow, table), on_device);
  EXPECT_TRUE(ShadowFsTestPeer::memo_holds(shadow, table));
}

TEST(ShadowMemo, FsckWalkKeepsNoFileContent) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->mkdir("/a", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/a/b", 0755).ok());
  std::vector<Ino> files;
  for (int i = 0; i < 3; ++i) {
    // 60000 bytes is 15 blocks: direct pointers plus an indirect block.
    auto ino = t.fs->create("/a/b/file" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(
        t.fs->write(ino.value(), 0, 0, pattern_bytes(60000, i)).ok());
    files.push_back(ino.value());
  }
  ASSERT_TRUE(t.fs->symlink("/a/ln", "/a/b/file0").ok());
  ASSERT_TRUE(t.fs->unmount().ok());
  ASSERT_TRUE(shadow_fsck(t.device.get()).ok);

  // The reads shadow_fsck makes: the extensive open, then every file's
  // and symlink's contents.
  ShadowFs shadow(t.device.get(), ShadowCheckLevel::kExtensive);
  shadow.open();
  shadow.walk_tree([&](const std::string& path, const DirEntry& entry,
                       const DiskInode& inode) {
    if (entry.type == FileType::kRegular) {
      ASSERT_TRUE(shadow.read(entry.ino, 0, 0, inode.size).ok());
    } else if (entry.type == FileType::kSymlink) {
      ASSERT_TRUE(shadow.readlink(path).ok());
    }
  });

  Ino link = shadow.lookup("/a/ln").value();
  EXPECT_FALSE(ShadowFsTestPeer::memo_holds(
      shadow, ShadowFsTestPeer::block_of(shadow, link, 0)));
  std::set<BlockNo> content;
  for (Ino ino : files) {
    for (uint64_t fb = 0; fb < 15; ++fb) {
      BlockNo b = ShadowFsTestPeer::block_of(shadow, ino, fb);
      ASSERT_NE(b, 0u);
      content.insert(b);
      EXPECT_FALSE(ShadowFsTestPeer::memo_holds(shadow, b)) << "block " << b;
    }
  }
  // What it keeps is metadata: the indirect blocks and the inode table.
  for (Ino ino : files) {
    BlockNo indirect = ShadowFsTestPeer::inode(shadow, ino).indirect;
    ASSERT_NE(indirect, 0u);
    EXPECT_TRUE(ShadowFsTestPeer::memo_holds(shadow, indirect));
  }
  EXPECT_TRUE(ShadowFsTestPeer::memo_holds(
      shadow, shadow.geometry().inode_table_start));
  EXPECT_LT(ShadowFsTestPeer::memo_size(shadow), content.size());
}

}  // namespace
}  // namespace raefs
