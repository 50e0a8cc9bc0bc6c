// Durability tests: clean unmount/remount round trips, crash + journal
// replay, fsync semantics, checkpointing under journal pressure, and the
// fsck-clean invariant after every path.
#include <gtest/gtest.h>

#include "fsck/fsck.h"
#include "tests/support/fixtures.h"

namespace raefs {
namespace {

using testing_support::make_test_fs;
using testing_support::pattern_bytes;
using testing_support::TestFsOptions;

BaseFsOptions default_base() { return BaseFsOptions{}; }

TEST(Persistence, CleanUnmountRemountPreservesEverything) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  auto ino = t.fs->create("/d/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(30000);
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, data).ok());
  ASSERT_TRUE(t.fs->symlink("/ln", "/d/f").ok());
  ASSERT_TRUE(t.fs->unmount().ok());

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_EQ(fs2.value()->stats().journal_replays_at_mount, 0u);
  auto st = fs2.value()->stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, data.size());
  auto back = fs2.value()->read(st.value().ino, 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  EXPECT_EQ(fs2.value()->readlink("/ln").value(), "/d/f");
}

TEST(Persistence, CheckpointOfAnEmptyJournalDoesNoIo) {
  // A fresh mount's journal holds nothing past its floor, so unmount's
  // forced checkpoint writes nothing; only the clean superblock remains.
  auto t = make_test_fs();
  const uint64_t writes = t.device->stats().writes.load();
  const uint64_t flushes = t.device->stats().flushes.load();
  const uint64_t checkpoints = t.fs->stats().checkpoints;
  ASSERT_TRUE(t.fs->unmount().ok());
  EXPECT_EQ(t.device->stats().writes.load() - writes, 1u);
  EXPECT_LE(t.device->stats().flushes.load() - flushes, 1u);
  EXPECT_EQ(t.fs->stats().checkpoints, checkpoints);

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_EQ(fs2.value()->stats().journal_replays_at_mount, 0u);
  ASSERT_TRUE(fs2.value()->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, CrashWithoutSyncLosesUnsyncedButStaysConsistent) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->create("/synced", 0644).ok());
  ASSERT_TRUE(t.fs->sync().ok());
  ASSERT_TRUE(t.fs->create("/unsynced", 0644).ok());
  // No sync; destroy the fs (no write-back) and crash the device.
  t.fs.reset();
  t.device->crash();

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_TRUE(fs2.value()->lookup("/synced").ok());
  EXPECT_EQ(fs2.value()->lookup("/unsynced").error(), Errno::kNoEnt);

  ASSERT_TRUE(fs2.value()->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, JournalReplayRecoversCommittedButUncheckpointed) {
  auto t = make_test_fs();
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(5000, 11);
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, data).ok());
  // sync commits to the journal; with low fill, no checkpoint happens,
  // so the metadata lives only in the journal + volatile cache.
  ASSERT_TRUE(t.fs->sync().ok());
  t.fs.reset();
  t.device->crash();  // volatile device cache lost; journal is flushed

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_GE(fs2.value()->stats().journal_replays_at_mount, 1u);
  auto st = fs2.value()->stat("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, data.size());
  auto back = fs2.value()->read(st.value().ino, 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(Persistence, RepeatedCrashRemountCycles) {
  auto t = make_test_fs();
  for (int round = 0; round < 5; ++round) {
    std::string path = "/r" + std::to_string(round);
    auto ino = t.fs->create(path, 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(
        t.fs->write(ino.value(), 0, 0, pattern_bytes(2000, uint8_t(round)))
            .ok());
    ASSERT_TRUE(t.fs->sync().ok());
    t.fs.reset();
    t.device->crash();
    auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
    ASSERT_TRUE(fs2.ok());
    t.fs = std::move(fs2).value();
    // Everything synced in prior rounds must still be there.
    for (int prev = 0; prev <= round; ++prev) {
      auto st = t.fs->stat("/r" + std::to_string(prev));
      ASSERT_TRUE(st.ok()) << "round " << round << " lost /r" << prev;
      EXPECT_EQ(st.value().size, 2000u);
    }
  }
  ASSERT_TRUE(t.fs->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, CrashWithPartialDeviceSurvivalStillRecovers) {
  // Even when a random subset of volatile writes reached the media before
  // power-cut, journal replay must produce a consistent image.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto t = make_test_fs();
    for (int i = 0; i < 10; ++i) {
      auto ino = t.fs->create("/f" + std::to_string(i), 0644);
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(
          t.fs->write(ino.value(), 0, 0, pattern_bytes(3000, uint8_t(i)))
              .ok());
    }
    ASSERT_TRUE(t.fs->sync().ok());
    ASSERT_TRUE(t.fs->create("/after-sync", 0644).ok());
    t.fs.reset();
    Rng rng(seed);
    t.device->crash(&rng, 0.5);

    auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
    ASSERT_TRUE(fs2.ok());
    for (int i = 0; i < 10; ++i) {
      auto st = fs2.value()->stat("/f" + std::to_string(i));
      ASSERT_TRUE(st.ok()) << "seed " << seed << " file " << i;
      auto back = fs2.value()->read(st.value().ino, 0, 0, 3000);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value(), pattern_bytes(3000, uint8_t(i)));
    }
    ASSERT_TRUE(fs2.value()->unmount().ok());
    auto report = fsck(t.device.get(), FsckLevel::kStrict);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().consistent())
        << "seed " << seed << ": " << report.value().summary();
  }
}

TEST(Persistence, JournalPressureTriggersCheckpoints) {
  TestFsOptions opts;
  opts.journal_blocks = 32;  // small journal: fills quickly
  auto t = make_test_fs(opts);
  for (int i = 0; i < 40; ++i) {
    auto ino = t.fs->create("/f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(100)).ok());
    ASSERT_TRUE(t.fs->sync().ok());
  }
  EXPECT_GT(t.fs->stats().checkpoints, 1u);
  ASSERT_TRUE(t.fs->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, OversizedTransactionSplitsAndSurvives) {
  TestFsOptions opts;
  opts.journal_blocks = 16;  // max ~13 records per txn
  opts.total_blocks = 8192;
  auto t = make_test_fs(opts);
  // Dirty far more metadata blocks than one journal txn can hold: lots of
  // directories (each with its own dir block + inode table blocks).
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(t.fs->mkdir("/dir" + std::to_string(i), 0755).ok());
  }
  ASSERT_TRUE(t.fs->sync().ok());
  ASSERT_TRUE(t.fs->unmount().ok());

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(fs2.value()->lookup("/dir" + std::to_string(i)).ok());
  }
}

TEST(Persistence, FsyncMakesDataDurable) {
  auto t = make_test_fs();
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(8000, 3)).ok());
  ASSERT_TRUE(t.fs->fsync(ino.value()).ok());
  t.fs.reset();
  t.device->crash();

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  auto st = fs2.value()->stat("/f");
  ASSERT_TRUE(st.ok());
  auto back = fs2.value()->read(st.value().ino, 0, 0, 8000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(8000, 3));
}

TEST(Persistence, MountCountIncrements) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->unmount().ok());
  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  ASSERT_TRUE(fs2.value()->unmount().ok());
  // Superblock decodes and mount_count reflects the three mounts.
  std::vector<uint8_t> sb_block(kBlockSize);
  ASSERT_TRUE(t.device->read_block(0, sb_block).ok());
  auto sb = Superblock::decode(sb_block);
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sb.value().mount_count, 2u);
  EXPECT_EQ(sb.value().state, FsState::kClean);
}

TEST(Persistence, DurableCallbackAdvancesWithSync) {
  auto t = make_test_fs();
  Seq durable = 0;
  t.fs->set_durable_callback([&](Seq s) { durable = s; });
  t.fs->set_current_op_seq(7);
  ASSERT_TRUE(t.fs->create("/f", 0644).ok());
  EXPECT_EQ(durable, 0u);  // nothing durable yet
  ASSERT_TRUE(t.fs->sync().ok());
  EXPECT_EQ(durable, 7u);
}

}  // namespace
}  // namespace raefs
