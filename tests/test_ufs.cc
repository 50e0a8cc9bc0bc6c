// Base-host tests (paper §4.2): RaeSupervisor with its base in process and
// as a forked server over shared-memory storage (RaeOptions::fork_base),
// where a bug genuinely kills the server process and the contained reboot
// is a waitpid + fork. Every case that makes sense on both hosts runs on
// both, through the one recovery pipeline. Also covers the server's pipe
// protocol and the shared-memory device.
#include <gtest/gtest.h>

#include "faults/bug_library.h"
#include "fsck/fsck.h"
#include "obs/incident.h"
#include "rae/supervisor.h"
#include "tests/support/fixtures.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"
#include "ufs/shm_device.h"
#include "ufs/ufs_proto.h"
#include "workload/workload.h"

namespace raefs {
namespace {

using testing_support::pattern_bytes;

TEST(UfsProto, FrameAndResponseRoundTrip) {
  ufs::Frame frame;
  frame.kind = ufs::FrameKind::kOp;
  frame.req.kind = OpKind::kWrite;
  frame.req.ino = 7;
  frame.req.offset = 4096;
  frame.req.data = pattern_bytes(1000);
  auto decoded = ufs::decode_frame(ufs::encode_frame(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().req.kind, OpKind::kWrite);
  EXPECT_EQ(decoded.value().req.data, frame.req.data);

  ufs::Frame shutdown_frame;
  shutdown_frame.kind = ufs::FrameKind::kShutdown;
  auto sd = ufs::decode_frame(ufs::encode_frame(shutdown_frame));
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd.value().kind, ufs::FrameKind::kShutdown);

  OpOutcome out;
  out.err = Errno::kExist;
  out.assigned_ino = 9;
  out.payload = {1, 2, 3};
  auto resp = ufs::decode_response(ufs::encode_response(out));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().err, Errno::kExist);
  EXPECT_EQ(resp.value().payload, (std::vector<uint8_t>{1, 2, 3}));

  auto bytes = ufs::encode_frame(frame);
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(ufs::decode_frame(bytes).ok());
}

TEST(ShmDevice, SharedSemantics) {
  ShmBlockDevice dev(16);
  std::vector<uint8_t> block(kBlockSize, 0x3C);
  ASSERT_TRUE(dev.write_block(5, block).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(5, out).ok());
  EXPECT_EQ(out, block);
  EXPECT_EQ(dev.read_block(16, out).error(), Errno::kInval);
  auto snap = dev.snapshot();
  ASSERT_TRUE(snap->read_block(5, out).ok());
  EXPECT_EQ(out, block);
}

TEST(ForkBase, RequiresSharedMemoryDevice) {
  auto t = testing_support::make_test_fs();
  ASSERT_TRUE(t.fs->unmount().ok());
  RaeOptions opts;
  opts.fork_base = true;
  auto sup = RaeSupervisor::start(t.device.get(), opts, t.clock, nullptr);
  ASSERT_FALSE(sup.ok());
  EXPECT_EQ(sup.error(), Errno::kInval);
}

// Both hosts run over a ShmBlockDevice, so the only difference between the
// two instantiations is RaeOptions::fork_base.
class BaseHostTest : public ::testing::TestWithParam<bool> {
 protected:
  void start(BugRegistry* bugs, uint64_t total_blocks = 8192,
             uint64_t inode_count = 1024, RaeOptions opts = {}) {
    clock = make_clock();
    device = std::make_unique<ShmBlockDevice>(total_blocks);
    MkfsOptions mkfs;
    mkfs.total_blocks = total_blocks;
    mkfs.inode_count = inode_count;
    mkfs.journal_blocks = 128;
    ASSERT_TRUE(BaseFs::mkfs(device.get(), mkfs).ok());
    opts.fork_base = forked();
    auto started = RaeSupervisor::start(device.get(), opts, clock, bugs);
    ASSERT_TRUE(started.ok()) << to_string(started.error());
    sup = std::move(started).value();
  }

  bool forked() const { return GetParam(); }

  SimClockPtr clock;
  std::unique_ptr<ShmBlockDevice> device;
  std::unique_ptr<RaeSupervisor> sup;
};

TEST_P(BaseHostTest, NormalOperation) {
  start(nullptr);
  ASSERT_TRUE(sup->mkdir("/d", 0755).ok());
  auto ino = sup->create("/d/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(10000, 7);
  auto written = sup->write(ino.value(), 0, 0, data);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), data.size());

  auto back = sup->read(ino.value(), 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);

  auto listing = sup->readdir("/d");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing.value().size(), 1u);
  EXPECT_EQ(listing.value()[0].name, "f");

  auto st = sup->stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, data.size());

  ASSERT_TRUE(sup->symlink("/ln", "/d/f").ok());
  EXPECT_EQ(sup->readlink("/ln").value(), "/d/f");
  EXPECT_EQ(sup->create("/d/f", 0644).error(), Errno::kExist);
  // The forked base's counters live in the server process.
  EXPECT_EQ(sup->base_stats().ops == 0, forked());
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, CrashIsMaskedAndLeavesStrictCleanImage) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  start(&bugs);

  auto keep = sup->create("/keep", 0644);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(sup->write(keep.value(), 0, 0, pattern_bytes(3000, 5)).ok());

  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());

  // The unlink kills the base (on the forked host, the server PROCESS).
  // The app sees success.
  ASSERT_TRUE(sup->unlink(trigger).ok());
  EXPECT_EQ(sup->stats().panics_trapped, 1u);
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_FALSE(sup->offline());

  EXPECT_EQ(sup->lookup(trigger).error(), Errno::kNoEnt);
  auto back = sup->read(keep.value(), 0, 0, 3000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(3000, 5));
  ASSERT_TRUE(sup->shutdown().ok());

  auto snap = device->snapshot();
  auto report = fsck(snap.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST_P(BaseHostTest, InflightWriteAnsweredByShadow) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kWriteIndirectBoundaryPanic));
  start(&bugs);
  auto ino = sup->create("/big", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(1500, 2);
  auto written = sup->write(ino.value(), 0, 12 * kBlockSize, data);
  ASSERT_TRUE(written.ok()) << to_string(written.error());
  EXPECT_EQ(written.value(), data.size());
  EXPECT_EQ(sup->stats().recoveries, 1u);

  auto back = sup->read(ino.value(), 0, 12 * kBlockSize, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, ReadTriggeredCrashAnsweredByShadow) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kCraftedNamePanic));
  start(&bugs);
  auto ino = sup->create("/evilname", 0644);
  ASSERT_TRUE(ino.ok());
  auto looked = sup->lookup("/evilname");
  ASSERT_TRUE(looked.ok()) << to_string(looked.error());
  EXPECT_EQ(looked.value(), ino.value());
  EXPECT_GE(sup->stats().recoveries, 1u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, FsyncInterruptedRetriedOnFreshBase) {
  // Gate on op_index (ops since mount) rather than max_fires: each forked
  // server gets a fresh copy of the registry, so a max_fires=1 bug would
  // re-arm on every respawn. The original fsync is the 3rd op of its base
  // (index 2); the post-recovery retry sync is the fresh base's first op
  // (index 0) and sails through -- the paper's §3.3 story.
  BugRegistry bugs;
  BugSpec spec;
  spec.id = 9300;
  spec.description = "kill the base on a warmed-up sync";
  spec.consequence = BugConsequence::kCrash;
  spec.trigger = [](const BugContext& ctx) {
    return ctx.site == "basefs.op.dispatch" && op_is_sync(ctx.op) &&
           ctx.op_index >= 2;
  };
  bugs.install(spec);
  start(&bugs);
  auto ino = sup->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sup->write(ino.value(), 0, 0, pattern_bytes(2000, 9)).ok());

  ASSERT_TRUE(sup->fsync(ino.value()).ok());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->lookup("/f").value(), ino.value());
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, DeterministicBugSurvivesRepeatedTriggers) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  start(&bugs);
  std::string trigger = "/" + std::string(54, 'z');
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(sup->create(trigger, 0644).ok());
    ASSERT_TRUE(sup->unlink(trigger).ok()) << "round " << round;
  }
  EXPECT_EQ(sup->stats().recoveries, 4u);
  EXPECT_FALSE(sup->offline());
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, WorkloadUnderTransientBugsMatchesModel) {
  BugRegistry bugs(321);
  bugs.install(bugs::make(bugs::kTransientPanic, 0.004));
  start(&bugs, 16384, 2048);
  ModelFs model(2048);

  WorkloadOptions wl;
  wl.kind = WorkloadKind::kFileserver;
  wl.seed = 99;
  wl.nops = 250;
  wl.initial_files = 8;
  auto sup_result = run_workload(*sup, wl);
  auto model_result = run_workload(model, wl);
  EXPECT_EQ(sup_result.io_failures, 0u);
  EXPECT_EQ(sup_result.ops_failed, model_result.ops_failed);
  EXPECT_EQ(sup->stats().failed_recoveries, 0u);

  testing_support::CompareOptions cmp;
  cmp.compare_inos = false;
  auto diff = testing_support::compare_trees(*sup, model, cmp);
  EXPECT_EQ(diff, "") << diff;
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, OplogTruncatesOnSync) {
  start(nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sup->create("/f" + std::to_string(i), 0644).ok());
  }
  EXPECT_EQ(sup->oplog_stats().live_records, 5u);
  ASSERT_TRUE(sup->sync().ok());
  EXPECT_EQ(sup->oplog_stats().live_records, 0u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, EachRecoveryFilesOneIncidentSummingToDowntime) {
  obs::incidents().clear();
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.verify_after_recovery = true;  // works on both: shm snapshots
  start(&bugs, 8192, 1024, opts);
  std::string trigger = "/" + std::string(54, 'y');
  Nanos downtime_sum = 0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(sup->create(trigger, 0644).ok());
    ASSERT_TRUE(sup->unlink(trigger).ok());
    ASSERT_EQ(obs::incidents().total_recorded(),
              static_cast<uint64_t>(round + 1));
    const obs::Incident inc = obs::incidents().snapshot().back();
    EXPECT_TRUE(inc.ok) << inc.failure;
    EXPECT_NE(inc.failed_op_seq, 0u);
    EXPECT_FALSE(inc.trigger_function.empty());
    Nanos phase_sum = inc.detect_ns + inc.contain_ns + inc.reboot_ns +
                      inc.replay_ns + inc.download_ns + inc.verify_ns +
                      inc.resume_ns;
    EXPECT_EQ(phase_sum, inc.downtime_ns);
    EXPECT_GT(inc.verify_ns, 0u);
    EXPECT_EQ(inc.t_end - inc.t_begin, inc.downtime_ns);
    downtime_sum += inc.downtime_ns;
  }
  EXPECT_EQ(sup->stats().recoveries, 2u);
  EXPECT_EQ(downtime_sum, sup->stats().total_downtime);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_P(BaseHostTest, ScrubOnBothHostsDeepOnlyInProcess) {
  start(nullptr);
  ASSERT_TRUE(sup->create("/a", 0644).ok());
  auto shallow = sup->scrub(false);
  ASSERT_TRUE(shallow.ok());
  EXPECT_TRUE(shallow.value().ok) << shallow.value().failure;
  auto deep = sup->scrub(true);
  if (forked()) {
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.error(), Errno::kNotSup);
  } else {
    ASSERT_TRUE(deep.ok());
    EXPECT_TRUE(deep.value().discrepancies.empty());
  }
  ASSERT_TRUE(sup->shutdown().ok());
}

INSTANTIATE_TEST_SUITE_P(Hosts, BaseHostTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "forked" : "in_process";
                         });

}  // namespace
}  // namespace raefs
