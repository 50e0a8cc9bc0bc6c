// Operation-log tests: recording, completion, durable-watermark
// truncation (invariant I5), snapshots.
#include <gtest/gtest.h>

#include "oplog/op_log.h"

namespace raefs {
namespace {

OpRequest make_req(OpKind kind, std::string path) {
  OpRequest req;
  req.kind = kind;
  req.path = std::move(path);
  return req;
}

TEST(OpLog, AppendAssignsMonotonicSeqs) {
  OpLog log;
  EXPECT_EQ(log.append_started(make_req(OpKind::kCreate, "/a")), 1u);
  EXPECT_EQ(log.append_started(make_req(OpKind::kWrite, "")), 2u);
  EXPECT_EQ(log.last_seq(), 2u);
  EXPECT_EQ(log.snapshot().size(), 2u);
}

TEST(OpLog, CompleteRecordsOutcome) {
  OpLog log;
  Seq seq = log.append_started(make_req(OpKind::kCreate, "/a"));
  EXPECT_FALSE(log.snapshot()[0].completed);

  OpOutcome out;
  out.err = Errno::kOk;
  out.assigned_ino = 17;
  log.complete(seq, out);
  auto snap = log.snapshot();
  EXPECT_TRUE(snap[0].completed);
  EXPECT_EQ(snap[0].out.assigned_ino, 17u);
}

TEST(OpLog, TruncateDropsOnlyCompletedBelowWatermark) {
  OpLog log;
  Seq s1 = log.append_started(make_req(OpKind::kCreate, "/a"));
  Seq s2 = log.append_started(make_req(OpKind::kCreate, "/b"));
  Seq s3 = log.append_started(make_req(OpKind::kCreate, "/c"));
  log.complete(s1, {});
  // s2 is in flight: even below the watermark it must be retained.
  log.complete(s3, {});

  log.truncate_durable(s2);
  auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].seq, s2);
  EXPECT_EQ(snap[1].seq, s3);
  EXPECT_EQ(log.durable_watermark(), s2);
}

TEST(OpLog, WatermarkNeverRegresses) {
  OpLog log;
  Seq s1 = log.append_started(make_req(OpKind::kCreate, "/a"));
  log.complete(s1, {});
  log.truncate_durable(5);
  log.truncate_durable(2);  // ignored
  EXPECT_EQ(log.durable_watermark(), 5u);
}

TEST(OpLog, ClearEmptiesButKeepsSeqCounter) {
  OpLog log;
  log.append_started(make_req(OpKind::kCreate, "/a"));
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.append_started(make_req(OpKind::kCreate, "/b")), 2u);
}

TEST(OpLog, StatsTrackFootprint) {
  OpLog log;
  OpRequest req = make_req(OpKind::kWrite, "");
  req.data.assign(1000, 0xAA);
  log.append_started(std::move(req));
  auto stats = log.stats();
  EXPECT_EQ(stats.live_records, 1u);
  EXPECT_GE(stats.live_bytes, 1000u);
  EXPECT_EQ(stats.appended, 1u);
}

TEST(OpLog, LiveBytesEqualsSumOfFootprints) {
  // live_bytes is a running total (the supervisor reads it on every
  // mutation); it must equal a full recount after every log operation.
  OpLog log;
  auto recount = [&] {
    size_t sum = 0;
    for (const auto& r : log.snapshot()) sum += r.req.footprint();
    return sum;
  };
  for (int i = 0; i < 6; ++i) {
    OpRequest req = make_req(OpKind::kWrite, "/f" + std::to_string(i));
    req.data.assign(100 * (i + 1), 0x5A);
    Seq seq = log.append_started(std::move(req));
    if (i != 3) log.complete(seq, OpOutcome{});  // seq 4 stays in flight
    EXPECT_EQ(log.stats().live_bytes, recount()) << "after append " << i;
  }
  log.truncate_durable(5);  // drops 1..3 and 5; in-flight 4 survives
  EXPECT_EQ(log.stats().live_records, 2u);
  EXPECT_EQ(log.stats().live_bytes, recount());
  log.clear();
  EXPECT_EQ(log.stats().live_bytes, 0u);
  EXPECT_EQ(log.stats().live_bytes, recount());
}

TEST(OpDescribe, HumanReadable) {
  OpRequest req;
  req.kind = OpKind::kRename;
  req.path = "/a";
  req.path2 = "/b";
  EXPECT_EQ(req.describe(), "rename /a -> /b");

  OpRequest w;
  w.kind = OpKind::kWrite;
  w.ino = 5;
  w.offset = 100;
  w.data.assign(3, 0);
  EXPECT_EQ(w.describe(), "write  ino=5 off=100 len=3");
}

TEST(OpKinds, MutationClassification) {
  EXPECT_TRUE(op_mutates(OpKind::kCreate));
  EXPECT_TRUE(op_mutates(OpKind::kRename));
  EXPECT_TRUE(op_mutates(OpKind::kWrite));
  EXPECT_FALSE(op_mutates(OpKind::kRead));
  EXPECT_FALSE(op_mutates(OpKind::kLookup));
  EXPECT_FALSE(op_mutates(OpKind::kFsync));
  EXPECT_TRUE(op_is_sync(OpKind::kFsync));
  EXPECT_TRUE(op_is_sync(OpKind::kSync));
  EXPECT_FALSE(op_is_sync(OpKind::kWrite));
}

}  // namespace
}  // namespace raefs
