// Parallel recovery differential tests: every parallel phase of the
// recovery pipeline (journal replay, fsck, bulk install) must be
// byte-equivalent to its serial reference at any worker count, on clean
// logs, on crashx-generated dirty images, and across a mid-recovery power
// cut. The shadow replay itself is sequential. The ScalingSmoke* test
// doubles as the CI recovery_scaling_smoke target (small image, 1 vs 4
// workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "blockdev/fault_device.h"
#include "common/panic.h"
#include "crashx/ops.h"
#include "faults/bug_library.h"
#include "format/layout.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "rae/supervisor.h"
#include "shadowfs/shadow_replay.h"
#include "tests/support/fixtures.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::pattern_bytes;
using testing_support::TestFsOptions;

Geometry test_geometry() {
  // Must match make_test_device's TestFsOptions defaults.
  return compute_geometry(4096, 512, 128).value();
}

std::vector<uint8_t> image_of(const MemBlockDevice& dev) {
  return dev.persisted_image();
}

/// A dirty image the way crashx makes them: run a deterministic workload,
/// cut power at write index `k`, discard the volatile device cache. The
/// result is what journal replay sees after a real crash.
std::unique_ptr<MemBlockDevice> make_dirty_image(uint64_t seed, uint64_t k) {
  auto t = make_test_device();
  auto ops = crashx::generate_ops(seed, 48, 8);
  FaultBlockDevice fdev(t.device.get());
  fdev.arm_crash_after_writes(k);
  auto mounted = BaseFs::mount(&fdev, {}, t.clock);
  if (mounted.ok()) {
    auto fs = std::move(mounted).value();
    try {
      for (size_t i = 0; i < ops.size(); ++i) {
        (void)crashx::apply_op(*fs, nullptr, ops[i], seed, i);
        if (fdev.crashed()) break;
      }
      // fs dropped without unmount either way: committed-but-not-
      // checkpointed transactions stay pending in the journal.
    } catch (const FsPanicError&) {
      // Dying while the power fails is legal; state is judged after the
      // power cycle.
    }
  }
  fdev.disarm();
  t.device->crash();
  return std::move(t.device);
}

/// A dirty image the way crashx v2 makes them: buffer writes between
/// flush barriers, cut power at barrier `f`, materialize a subset of the
/// frozen pending epoch (every other write, ascending submission order),
/// and discard the volatile cache. If barrier `f` is past the workload the
/// image comes back clean, which the differential tests handle trivially.
std::unique_ptr<MemBlockDevice> make_reorder_dirty_image(uint64_t seed,
                                                         uint64_t f) {
  auto t = make_test_device();
  auto ops = crashx::generate_ops(seed, 48, 8);
  FaultBlockDevice fdev(t.device.get());
  EXPECT_TRUE(fdev.set_reorder_buffering(true).ok());
  fdev.arm_crash_at_flush(f);
  auto mounted = BaseFs::mount(&fdev, {}, t.clock);
  if (mounted.ok()) {
    auto fs = std::move(mounted).value();
    try {
      for (size_t i = 0; i < ops.size(); ++i) {
        (void)crashx::apply_op(*fs, nullptr, ops[i], seed, i);
        if (fdev.crashed()) break;
      }
    } catch (const FsPanicError&) {
      // Dying while the power fails is legal.
    }
  }
  if (fdev.crashed()) {
    std::vector<size_t> keep;
    for (size_t i = 0; i < fdev.pending_writes(); i += 2) keep.push_back(i);
    EXPECT_TRUE(fdev.materialize_pending(keep).ok());
  }
  fdev.disarm();
  t.device->crash();
  return std::move(t.device);
}

void expect_same_report(const FsckReport& a, const FsckReport& b) {
  EXPECT_EQ(a.consistent(), b.consistent());
  EXPECT_EQ(a.inodes_in_use, b.inodes_in_use);
  EXPECT_EQ(a.blocks_claimed, b.blocks_claimed);
  ASSERT_EQ(a.findings.size(), b.findings.size()) << a.summary() << " vs "
                                                  << b.summary();
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].severity, b.findings[i].severity);
    EXPECT_EQ(a.findings[i].what, b.findings[i].what);
  }
}

// ---------------------------------------------------------------------
// Journal replay: parallel apply must be byte- and count-identical.
// ---------------------------------------------------------------------

TEST(JournalParallel, MatchesSerialWithOverwrites) {
  // Repeated targets across transactions exercise latest-wins batching.
  auto t = make_test_device();
  Geometry geo = test_geometry();
  Journal journal(t.device.get(), geo);
  ASSERT_TRUE(Journal::format(t.device.get(), geo).ok());
  ASSERT_TRUE(journal.open().ok());
  auto block_of = [](uint8_t fill) {
    return std::vector<uint8_t>(kBlockSize, fill);
  };
  for (int txn = 0; txn < 6; ++txn) {
    std::vector<JournalRecord> recs;
    for (int j = 0; j < 4; ++j) {
      BlockNo target = geo.data_start + ((txn * 3 + j * 7) % 40);
      recs.emplace_back(target, block_of(static_cast<uint8_t>(txn * 16 + j)));
    }
    ASSERT_TRUE(journal.commit(recs).ok());
  }

  auto serial_dev = t.device->clone_full();
  auto par_dev = t.device->clone_full();
  auto a = Journal::replay(serial_dev.get(), geo);
  auto b = Journal::replay(par_dev.get(), geo, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().applied_txns, b.value().applied_txns);
  EXPECT_EQ(a.value().applied_blocks, b.value().applied_blocks);
  EXPECT_EQ(image_of(*serial_dev), image_of(*par_dev));
}

TEST(JournalParallel, MatchesSerialOnCrashImages) {
  for (uint64_t k : {5u, 13u, 29u, 61u, 97u}) {
    auto dirty = make_dirty_image(/*seed=*/1234, k);
    Geometry geo = test_geometry();
    auto serial_dev = dirty->clone_full();
    auto par_dev = dirty->clone_full();
    auto a = Journal::replay(serial_dev.get(), geo);
    auto b = Journal::replay(par_dev.get(), geo, 4);
    ASSERT_EQ(a.ok(), b.ok()) << "crash point " << k;
    if (!a.ok()) continue;
    EXPECT_EQ(a.value().applied_txns, b.value().applied_txns);
    EXPECT_EQ(a.value().applied_blocks, b.value().applied_blocks);
    EXPECT_EQ(image_of(*serial_dev), image_of(*par_dev))
        << "crash point " << k;
  }
}

TEST(JournalParallel, MatchesSerialOnReorderCrashImages) {
  // Images dirtied by the crashx v2 reorder engine: a partially
  // materialized pending epoch leaves arbitrary barrier-respecting block
  // mixes on disk, and parallel replay must still be byte-identical.
  for (uint64_t f : {2u, 5u, 9u, 14u}) {
    auto dirty = make_reorder_dirty_image(/*seed=*/1234, f);
    Geometry geo = test_geometry();
    auto serial_dev = dirty->clone_full();
    auto par_dev = dirty->clone_full();
    auto a = Journal::replay(serial_dev.get(), geo);
    auto b = Journal::replay(par_dev.get(), geo, 4);
    ASSERT_EQ(a.ok(), b.ok()) << "flush " << f;
    if (!a.ok()) continue;
    EXPECT_EQ(a.value().applied_txns, b.value().applied_txns);
    EXPECT_EQ(a.value().applied_blocks, b.value().applied_blocks);
    EXPECT_EQ(image_of(*serial_dev), image_of(*par_dev)) << "flush " << f;
  }
}

TEST(JournalParallel, PowerCutMidReplayIsIdempotent) {
  // Cut power during a PARALLEL replay, then recover again: the final
  // image must equal an uninterrupted serial replay. (Replay formats the
  // journal header only after every block is applied and flushed, so a
  // partial apply re-runs from scratch.)
  //
  // The comparison masks journal blocks past the header: everything there
  // is below the floor after replay (dead bytes), and replay scrubs the
  // torn-tail guard block differently depending on how often it ran.
  auto dirty = make_dirty_image(/*seed=*/99, /*k=*/41);
  Geometry geo = test_geometry();
  auto live_image = [&](const MemBlockDevice& dev) {
    auto img = dev.persisted_image();
    std::fill(img.begin() + (geo.journal_start + 1) * kBlockSize,
              img.begin() +
                  (geo.journal_start + geo.journal_blocks) * kBlockSize,
              0);
    return img;
  };

  auto reference = dirty->clone_full();
  ASSERT_TRUE(Journal::replay(reference.get(), geo).ok());

  for (uint64_t cut : {0u, 2u, 5u, 11u, 23u}) {
    auto victim = dirty->clone_full();
    {
      FaultBlockDevice fdev(victim.get());
      fdev.arm_crash_after_writes(cut);
      (void)Journal::replay(&fdev, geo, 4);  // may fail: power is failing
    }
    victim->crash();  // second power cycle: volatile cache gone
    auto again = Journal::replay(victim.get(), geo, 4);
    ASSERT_TRUE(again.ok()) << "cut at write " << cut;
    EXPECT_EQ(live_image(*victim), live_image(*reference)) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------
// Recorded scenario: the shadow's dirty set for it feeds the bulk-install
// tests below.
// ---------------------------------------------------------------------

/// Base image with preexisting directories plus an op log recorded
/// against it (assigned inos taken from a real BaseFs run on a clone, so
/// the constrained cross-checks agree).
struct RecordedScenario {
  std::unique_ptr<MemBlockDevice> device;
  std::vector<OpRecord> log;
};

RecordedScenario record_scenario() {
  RecordedScenario s;
  TestFsOptions big;
  big.total_blocks = 8192;
  big.inode_count = 1024;
  auto t = make_test_device(big);
  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    for (int d = 0; d < 8; ++d) {
      EXPECT_TRUE(fs->mkdir("/d" + std::to_string(d), 0755).ok());
    }
    EXPECT_TRUE(fs->unmount().ok());
  }
  s.device = std::move(t.device);

  // Record pass on a throwaway clone: the log's outcomes are exactly
  // what the base observed.
  auto rec_dev = s.device->clone_full();
  auto fs = std::move(BaseFs::mount(rec_dev.get(), {}, nullptr)).value();
  Seq seq = 1;
  auto push = [&](OpRequest req, OpOutcome out, bool completed = true) {
    OpRecord rec;
    rec.seq = seq++;
    rec.req = std::move(req);
    rec.out = std::move(out);
    rec.completed = completed;
    s.log.push_back(std::move(rec));
  };
  for (int d = 0; d < 8; ++d) {
    std::string dir = "/d" + std::to_string(d);
    std::string f = dir + "/f";
    auto ino = fs->create(f, 0644);
    EXPECT_TRUE(ino.ok());
    OpRequest c;
    c.kind = OpKind::kCreate;
    c.path = f;
    c.mode = 0644;
    OpOutcome co;
    co.err = Errno::kOk;
    co.assigned_ino = ino.value();
    push(std::move(c), co);

    auto data = pattern_bytes(3000 + 500 * d, static_cast<uint8_t>(d + 1));
    auto wrote = fs->write(ino.value(), 0, 0, data);
    EXPECT_TRUE(wrote.ok());
    OpRequest w;
    w.kind = OpKind::kWrite;
    w.ino = ino.value();
    w.offset = 0;
    w.data = data;
    OpOutcome wo;
    wo.err = Errno::kOk;
    wo.result_len = wrote.value();
    push(std::move(w), wo);

    if (d % 2 == 0) {
      std::string g = dir + "/renamed";
      EXPECT_TRUE(fs->rename(f, g).ok());
      OpRequest r;
      r.kind = OpKind::kRename;
      r.path = f;
      r.path2 = g;
      OpOutcome ro;
      ro.err = Errno::kOk;
      push(std::move(r), ro);
    }
    if (d % 3 == 0) {
      std::string h = dir + "/link";
      std::string target = (d % 2 == 0) ? dir + "/renamed" : f;
      EXPECT_TRUE(fs->link(target, h).ok());
      OpRequest l;
      l.kind = OpKind::kLink;
      l.path = target;
      l.path2 = h;
      OpOutcome lo;
      lo.err = Errno::kOk;
      push(std::move(l), lo);
    }
  }
  // A trailing in-flight op exercises the autonomous tail.
  OpRequest pending;
  pending.kind = OpKind::kCreate;
  pending.path = "/d0/pending";
  pending.mode = 0644;
  push(std::move(pending), {}, /*completed=*/false);
  return s;
}

// ---------------------------------------------------------------------
// fsck: parallel scan must report byte-identical findings.
// ---------------------------------------------------------------------

TEST(FsckParallel, MatchesSerialOnHealthyImage) {
  auto t = make_test_device();
  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    for (int d = 0; d < 4; ++d) {
      std::string dir = "/dir" + std::to_string(d);
      ASSERT_TRUE(fs->mkdir(dir, 0755).ok());
      for (int f = 0; f < 6; ++f) {
        auto ino = fs->create(dir + "/f" + std::to_string(f), 0644);
        ASSERT_TRUE(ino.ok());
        // Large enough to grow indirect blocks on some files.
        size_t len = (f % 3 == 2) ? 15 * kBlockSize : 2000;
        ASSERT_TRUE(
            fs->write(ino.value(), 0, 0, pattern_bytes(len, f)).ok());
      }
    }
    ASSERT_TRUE(fs->unmount().ok());
  }
  auto serial = fsck(t.device.get(), FsckLevel::kStrict);
  FsckOptions opts;
  opts.workers = 4;
  auto par = fsck(t.device.get(), opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(serial.value().consistent());
  expect_same_report(serial.value(), par.value());
}

TEST(FsckParallel, MatchesSerialOnDirtyCrashImages) {
  // fsck on unreplayed crash images: findings (pending journal, bitmap
  // disagreements, ...) must match whatever the serial checker says.
  for (uint64_t k : {7u, 31u, 53u}) {
    auto dirty = make_dirty_image(/*seed=*/777, k);
    auto serial = fsck(dirty.get(), FsckLevel::kStrict);
    FsckOptions opts;
    opts.workers = 4;
    auto par = fsck(dirty.get(), opts);
    ASSERT_EQ(serial.ok(), par.ok()) << "crash point " << k;
    if (!serial.ok()) continue;
    expect_same_report(serial.value(), par.value());
  }
}

TEST(FsckParallel, MatchesSerialOnCorruptImage) {
  auto t = make_test_device();
  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    ASSERT_TRUE(fs->mkdir("/d", 0755).ok());
    auto ino = fs->create("/d/f", 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs->write(ino.value(), 0, 0, pattern_bytes(9000)).ok());
    ASSERT_TRUE(fs->unmount().ok());
  }
  // Smash a byte in the middle of the inode table.
  Geometry geo = test_geometry();
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_TRUE(t.device->read_block(geo.inode_table_start, block).ok());
  block[2 * kInodeSize + 40] ^= 0xFF;
  ASSERT_TRUE(t.device->write_block(geo.inode_table_start, block).ok());

  auto serial = fsck(t.device.get(), FsckLevel::kStrict);
  FsckOptions opts;
  opts.workers = 4;
  auto par = fsck(t.device.get(), opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(par.ok());
  expect_same_report(serial.value(), par.value());
}

// ---------------------------------------------------------------------
// Supervisor: recovery, including the optional verify phase, runs every
// phase at the base's queue depth and behaves the same at every depth.
// ---------------------------------------------------------------------

class QueueDepth : public ::testing::TestWithParam<int> {
 protected:
  int async_workers() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(AsyncWorkers, QueueDepth, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "async_workers_" +
                                  std::to_string(info.param);
                         });

TEST_P(QueueDepth, SupervisorRecoversAndVerifies) {
  auto t = make_test_device();
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.base.async_workers = async_workers();
  opts.verify_after_recovery = true;
  auto started = RaeSupervisor::start(t.device.get(), opts, t.clock, &bugs);
  ASSERT_TRUE(started.ok());
  auto sup = std::move(started).value();

  std::string trigger = "/" + std::string(54, 'x');
  auto keep = sup->create("/keep", 0644);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(sup->write(keep.value(), 0, 0, pattern_bytes(3000, 7)).ok());
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());

  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_FALSE(sup->offline());
  EXPECT_GT(sup->stats().verify_ns, 0u);
  // Post-recovery state is intact.
  EXPECT_EQ(sup->lookup(trigger).error(), Errno::kNoEnt);
  auto back = sup->read(keep.value(), 0, 0, 3000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(3000, 7));
  ASSERT_TRUE(sup->shutdown().ok());

  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

// ---------------------------------------------------------------------
// Bulk install: the parallel in-place apply must be byte-identical to
// the serial apply at every worker count, and the journaled install
// transaction must be atomic under power cuts.
// ---------------------------------------------------------------------

std::vector<InstallBlock> scenario_dirty(const RecordedScenario& s) {
  auto out = shadow_execute(s.device.get(), s.log, {});
  EXPECT_TRUE(out.ok) << out.failure;
  return out.dirty;
}

/// Mount a clone of `image` at `async_workers`, install `set`, unmount,
/// and return the persisted image.
std::vector<uint8_t> installed_image(const MemBlockDevice& image,
                                     const std::vector<InstallBlock>& set,
                                     int async_workers) {
  auto dev = image.clone_full();
  BaseFsOptions opts;
  opts.async_workers = async_workers;
  auto mounted = BaseFs::mount(dev.get(), opts, nullptr);
  EXPECT_TRUE(mounted.ok());
  if (!mounted.ok()) return {};
  auto fs = std::move(mounted).value();
  EXPECT_TRUE(fs->install_blocks(set).ok());
  EXPECT_TRUE(fs->unmount().ok());
  return image_of(*dev);
}

TEST_P(QueueDepth, InstallMatchesSerialApply) {
  auto s = record_scenario();
  auto dirty = scenario_dirty(s);
  ASSERT_FALSE(dirty.empty());
  EXPECT_EQ(installed_image(*s.device, dirty, async_workers()),
            installed_image(*s.device, dirty, 1));
}

TEST_P(QueueDepth, InstallMatchesSerialOnReorderCrashImages) {
  // Bulk installs onto crashx v2 reorder-dirtied images: mount replays
  // the journal first, then the install must leave the image the serial
  // path leaves. The install set is harvested from a different crash
  // image with the same geometry, so it is structurally valid and its
  // writes are not no-ops.
  Geometry geo = test_geometry();
  auto donor = make_reorder_dirty_image(/*seed=*/777, /*f=*/3);
  ASSERT_TRUE(Journal::replay(donor.get(), geo).ok());
  std::vector<InstallBlock> set;
  auto harvest = [&](BlockNo b) {
    InstallBlock ib;
    ib.block = b;
    ib.data.resize(kBlockSize);
    EXPECT_TRUE(donor->read_block(b, ib.data).ok());
    set.push_back(std::move(ib));
  };
  harvest(geo.block_bitmap_start);
  harvest(geo.inode_bitmap_start);
  for (uint64_t i = 0; i < std::min<uint64_t>(4, geo.inode_table_blocks); ++i) {
    harvest(geo.inode_table_start + i);
  }

  for (uint64_t f : {2u, 5u, 9u}) {
    auto dirty = make_reorder_dirty_image(/*seed=*/1234, f);
    EXPECT_EQ(installed_image(*dirty, set, async_workers()),
              installed_image(*dirty, set, 1))
        << "flush " << f;
  }
}

TEST(InstallParallel, PowerCutThroughBulkInstallIsAtomic) {
  // Cut power at every point of the journaled bulk install (journal
  // chunk writes, barrier, commit record, in-place apply, checkpoint):
  // after the power cycle and journal replay the image must hold either
  // the complete pre-install state or the complete post-install state
  // for every installed block -- never a mix.
  auto s = record_scenario();
  auto dirty = scenario_dirty(s);
  ASSERT_FALSE(dirty.empty());
  Geometry geo = compute_geometry(8192, 1024, 128).value();
  // The set must take the journaled bulk path (fits the region), or the
  // atomicity contract under test does not apply.
  ASSERT_LT(Journal::blocks_needed_multi(dirty.size(), 0),
            geo.journal_blocks);

  std::unordered_map<BlockNo, std::vector<uint8_t>> oldc, newc;
  for (const auto& ib : dirty) {
    std::vector<uint8_t> before(kBlockSize);
    ASSERT_TRUE(s.device->read_block(ib.block, before).ok());
    oldc[ib.block] = std::move(before);
    newc[ib.block] = ib.data;  // dedup latest-wins, like the install
  }

  bool saw_old = false, saw_new = false;
  for (uint64_t cut = 1; cut < 4096; cut += 3) {
    auto victim = s.device->clone_full();
    bool completed = false;
    {
      FaultBlockDevice fdev(victim.get());
      BaseFsOptions opts;
      opts.async_workers = 4;
      auto mounted = BaseFs::mount(&fdev, opts, nullptr);
      ASSERT_TRUE(mounted.ok()) << "cut " << cut;
      auto fs = std::move(mounted).value();
      fdev.arm_crash_after_writes(cut);
      try {
        (void)fs->install_blocks(dirty);  // power failing: errors are legal
      } catch (const FsPanicError&) {
      }
      completed = !fdev.crashed();
      fdev.disarm();
      // fs dropped without unmount: the power is gone.
    }
    victim->crash();
    ASSERT_TRUE(Journal::replay(victim.get(), geo).ok()) << "cut " << cut;

    size_t old_n = 0, new_n = 0, mixed = 0;
    for (const auto& [b, oldv] : oldc) {
      std::vector<uint8_t> got(kBlockSize);
      ASSERT_TRUE(victim->read_block(b, got).ok());
      if (oldv == newc[b]) continue;  // ambiguous either way
      if (got == newc[b]) {
        ++new_n;
      } else if (got == oldv) {
        ++old_n;
      } else {
        ++mixed;
      }
    }
    EXPECT_EQ(mixed, 0u) << "cut " << cut;
    EXPECT_TRUE(old_n == 0 || new_n == 0)
        << "cut " << cut << ": " << old_n << " old vs " << new_n
        << " new blocks survived together";
    if (old_n > 0) saw_old = true;
    if (new_n > 0) saw_new = true;
    if (completed) break;  // the whole install beat the cut: sweep done
  }
  // The sweep must have produced both outcomes, or it proved nothing.
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

// ---------------------------------------------------------------------
// CI smoke: small image, 1 vs 4 workers, byte-equivalence. Run as the
// recovery_scaling_smoke ctest via --gtest_filter=ParallelRecovery.ScalingSmoke*
// ---------------------------------------------------------------------

TEST(ParallelRecovery, ScalingSmokeJournal) {
  auto dirty = make_dirty_image(/*seed=*/4242, /*k=*/37);
  Geometry geo = test_geometry();
  auto one = dirty->clone_full();
  auto four = dirty->clone_full();
  auto a = Journal::replay(one.get(), geo, 1);
  auto b = Journal::replay(four.get(), geo, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(image_of(*one), image_of(*four));

  // And the checker agrees with itself on the replayed image.
  FsckOptions par;
  par.workers = 4;
  auto serial_report = fsck(one.get(), FsckLevel::kStrict);
  auto par_report = fsck(four.get(), par);
  ASSERT_TRUE(serial_report.ok());
  ASSERT_TRUE(par_report.ok());
  expect_same_report(serial_report.value(), par_report.value());
}

}  // namespace
}  // namespace raefs
