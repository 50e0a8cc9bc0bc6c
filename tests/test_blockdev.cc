// Block-device substrate tests: memory device semantics, volatile-cache
// crash behaviour, fault injection, read-only shadow view, async layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "basefs/base_fs.h"
#include "blockdev/async_device.h"
#include "blockdev/fault_device.h"
#include "blockdev/file_device.h"
#include "blockdev/mem_device.h"
#include "common/panic.h"

namespace raefs {
namespace {

std::vector<uint8_t> filled(uint8_t b) {
  return std::vector<uint8_t>(kBlockSize, b);
}

TEST(MemDevice, ReadBackWhatWasWritten) {
  MemBlockDevice dev(16);
  ASSERT_TRUE(dev.write_block(3, filled(0x42)).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(3, out).ok());
  EXPECT_EQ(out, filled(0x42));
}

TEST(MemDevice, FreshDeviceIsZero) {
  MemBlockDevice dev(4);
  std::vector<uint8_t> out(kBlockSize, 0xFF);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(out, filled(0));
}

TEST(MemDevice, BoundsAndSizeChecks) {
  MemBlockDevice dev(4);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(dev.read_block(4, out).error(), Errno::kInval);
  std::vector<uint8_t> small(16);
  EXPECT_EQ(dev.read_block(0, small).error(), Errno::kInval);
  EXPECT_EQ(dev.write_block(4, filled(1)).error(), Errno::kInval);
}

TEST(MemDevice, CrashDropsUnflushedWrites) {
  MemBlockDevice dev(8);
  ASSERT_TRUE(dev.write_block(1, filled(0x11)).ok());
  ASSERT_TRUE(dev.flush().ok());
  ASSERT_TRUE(dev.write_block(1, filled(0x22)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(0x33)).ok());
  EXPECT_EQ(dev.volatile_blocks(), 2u);

  dev.crash();
  EXPECT_EQ(dev.volatile_blocks(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0x11));  // flushed version survived
  ASSERT_TRUE(dev.read_block(2, out).ok());
  EXPECT_EQ(out, filled(0x00));  // unflushed write lost
}

TEST(MemDevice, CrashWithPartialSurvival) {
  MemBlockDevice dev(64);
  for (BlockNo b = 0; b < 64; ++b) {
    ASSERT_TRUE(dev.write_block(b, filled(0x77)).ok());
  }
  Rng rng(9);
  dev.crash(&rng, 0.5);
  int survived = 0;
  std::vector<uint8_t> out(kBlockSize);
  for (BlockNo b = 0; b < 64; ++b) {
    ASSERT_TRUE(dev.read_block(b, out).ok());
    if (out == filled(0x77)) ++survived;
  }
  EXPECT_GT(survived, 10);
  EXPECT_LT(survived, 54);
}

TEST(MemDevice, LatencyChargesClock) {
  auto clock = make_clock();
  LatencyModel lat;
  lat.read_ns = 10;
  lat.write_ns = 20;
  lat.flush_ns = 100;
  MemBlockDevice dev(4, clock, lat);
  std::vector<uint8_t> out(kBlockSize);
  (void)dev.read_block(0, out);
  (void)dev.write_block(0, filled(1));
  (void)dev.flush();
  EXPECT_EQ(clock->now(), 130u);
}

TEST(MemDevice, StatsCount) {
  MemBlockDevice dev(4);
  std::vector<uint8_t> out(kBlockSize);
  (void)dev.read_block(0, out);
  (void)dev.read_block(1, out);
  (void)dev.write_block(0, filled(1));
  (void)dev.flush();
  EXPECT_EQ(dev.stats().reads.load(), 2u);
  EXPECT_EQ(dev.stats().writes.load(), 1u);
  EXPECT_EQ(dev.stats().flushes.load(), 1u);
}

TEST(MemDevice, CloneFullIncludesVolatile) {
  MemBlockDevice dev(4);
  ASSERT_TRUE(dev.write_block(2, filled(0x9A)).ok());  // unflushed
  auto copy = dev.clone_full();
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(copy->read_block(2, out).ok());
  EXPECT_EQ(out, filled(0x9A));
}

TEST(ReadOnlyDevice, RefusesWritesWithShadowCheck) {
  MemBlockDevice inner(4);
  ReadOnlyDevice ro(&inner);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_TRUE(ro.read_block(0, out).ok());
  EXPECT_THROW((void)ro.write_block(0, filled(1)), ShadowCheckError);
  EXPECT_THROW((void)ro.flush(), ShadowCheckError);
  EXPECT_EQ(ro.refused_writes(), 2u);
}

TEST(FaultDevice, InjectsReadErrors) {
  MemBlockDevice inner(4);
  FaultDeviceConfig config;
  config.read_error_prob = 1.0;
  FaultBlockDevice dev(&inner, config);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(dev.read_block(0, out).error(), Errno::kIo);
  EXPECT_EQ(dev.injected_read_errors(), 1u);
  dev.disarm();
  EXPECT_TRUE(dev.read_block(0, out).ok());
}

TEST(FaultDevice, SilentCorruptionFlipsOneBit) {
  MemBlockDevice inner(4);
  ASSERT_TRUE(inner.write_block(0, filled(0x00)).ok());
  FaultDeviceConfig config;
  config.read_corrupt_prob = 1.0;
  FaultBlockDevice dev(&inner, config);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(0, out).ok());  // "succeeds" -- silently wrong
  int bits = 0;
  for (uint8_t b : out) bits += __builtin_popcount(b);
  EXPECT_EQ(bits, 1);
  EXPECT_EQ(dev.injected_corruptions(), 1u);
}

TEST(FaultDevice, WriteErrors) {
  MemBlockDevice inner(4);
  FaultDeviceConfig config;
  config.write_error_prob = 1.0;
  FaultBlockDevice dev(&inner, config);
  EXPECT_EQ(dev.write_block(0, filled(1)).error(), Errno::kIo);
  EXPECT_EQ(dev.injected_write_errors(), 1u);
}

TEST(FaultDevice, CrashAfterKthWriteIsADeadDevice) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  dev.arm_crash_after_writes(2);
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  ASSERT_TRUE(dev.write_block(1, filled(2)).ok());
  EXPECT_FALSE(dev.crashed());
  // The k-th write and everything after it fail: the machine lost power.
  EXPECT_EQ(dev.write_block(2, filled(3)).error(), Errno::kIo);
  EXPECT_TRUE(dev.crashed());
  EXPECT_EQ(dev.write_block(3, filled(4)).error(), Errno::kIo);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(dev.read_block(0, out).error(), Errno::kIo);
  EXPECT_EQ(dev.flush().error(), Errno::kIo);
  // Counters name IO *attempts*, so a crash index is reproducible even
  // when some attempts failed.
  EXPECT_EQ(dev.writes_seen(), 4u);
  EXPECT_EQ(dev.reads_seen(), 1u);
}

TEST(FaultDevice, DisarmRevivesACrashedDevice) {
  MemBlockDevice inner(4);
  FaultBlockDevice dev(&inner);
  dev.arm_crash_after_writes(0);
  EXPECT_EQ(dev.write_block(0, filled(1)).error(), Errno::kIo);
  EXPECT_TRUE(dev.crashed());
  dev.disarm();
  EXPECT_FALSE(dev.crashed());
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(out, filled(1));
}

TEST(FaultDevice, OneShotWriteErrorAtExactIndex) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  dev.arm_write_error_at(1);
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  EXPECT_EQ(dev.write_block(1, filled(2)).error(), Errno::kIo);
  // One-shot: the very next attempt succeeds and nothing else fires.
  ASSERT_TRUE(dev.write_block(1, filled(2)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(3)).ok());
  EXPECT_EQ(dev.injected_write_errors(), 1u);
  EXPECT_FALSE(dev.crashed());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(1, out).ok());
  EXPECT_EQ(out, filled(2));
}

TEST(FaultDevice, OneShotReadErrorAtExactIndex) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.write_block(0, filled(7)).ok());
  dev.arm_read_error_at(1);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(dev.read_block(0, out).error(), Errno::kIo);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(out, filled(7));
  EXPECT_EQ(dev.injected_read_errors(), 1u);
  EXPECT_EQ(dev.reads_seen(), 3u);
}

// --- reorder mode (crashx v2) ------------------------------------------

TEST(FaultDeviceReorder, BuffersWritesUntilBarrierAndReadsYourWrites) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  EXPECT_TRUE(dev.reorder_buffering());
  ASSERT_TRUE(dev.write_block(1, filled(0xAA)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(0xBB)).ok());
  ASSERT_TRUE(dev.write_block(1, filled(0xCC)).ok());
  EXPECT_EQ(dev.pending_writes(), 3u);
  // The inner device has seen nothing yet...
  EXPECT_EQ(inner.stats().writes.load(), 0u);
  // ...but the host observes its own newest write through the cache.
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0xCC));
  // The epoch snapshot is in submission order with submission indices.
  auto pend = dev.pending_epoch();
  ASSERT_EQ(pend.size(), 3u);
  EXPECT_EQ(pend[0].index, 0u);
  EXPECT_EQ(pend[0].block, 1u);
  EXPECT_EQ(pend[1].index, 1u);
  EXPECT_EQ(pend[1].block, 2u);
  EXPECT_EQ(pend[2].index, 2u);
  EXPECT_EQ(pend[2].block, 1u);
  // A barrier drains in submission order: latest write per block wins.
  ASSERT_TRUE(dev.flush().ok());
  EXPECT_EQ(dev.pending_writes(), 0u);
  ASSERT_TRUE(inner.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0xCC));
  ASSERT_TRUE(inner.read_block(2, out).ok());
  EXPECT_EQ(out, filled(0xBB));
}

TEST(FaultDeviceReorder, ArmedFlushCrashFreezesTheEpoch) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  ASSERT_TRUE(dev.flush().ok());
  dev.arm_crash_at_flush(1);
  ASSERT_TRUE(dev.write_block(1, filled(2)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(3)).ok());
  EXPECT_EQ(dev.flush().error(), Errno::kIo);
  EXPECT_TRUE(dev.crashed());
  EXPECT_EQ(dev.writes_at_crash(), 3u);
  // The epoch is frozen, not drained: exactly the writes issued since the
  // last successful barrier, still in the volatile cache.
  auto pend = dev.pending_epoch();
  ASSERT_EQ(pend.size(), 2u);
  EXPECT_EQ(pend[0].index, 1u);
  EXPECT_EQ(pend[1].index, 2u);
  // Post-crash write attempts fail, never enter the epoch, and do not
  // disturb the frozen submission count.
  EXPECT_EQ(dev.write_block(3, filled(4)).error(), Errno::kIo);
  EXPECT_EQ(dev.pending_writes(), 2u);
  EXPECT_EQ(dev.writes_at_crash(), 3u);
  EXPECT_EQ(dev.writes_seen(), 4u);
}

TEST(FaultDeviceReorder, MaterializeAppliesSubsetLatestWins) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  dev.arm_crash_at_flush(0);
  ASSERT_TRUE(dev.write_block(5, filled(0x11)).ok());  // pos 0
  ASSERT_TRUE(dev.write_block(6, filled(0x22)).ok());  // pos 1
  ASSERT_TRUE(dev.write_block(5, filled(0x33)).ok());  // pos 2
  EXPECT_EQ(dev.flush().error(), Errno::kIo);
  // Out-of-range selections are rejected with nothing applied.
  EXPECT_EQ(dev.materialize_pending({0, 3}).error(), Errno::kInval);
  EXPECT_EQ(inner.stats().writes.load(), 0u);
  EXPECT_EQ(dev.pending_writes(), 3u);
  // Keep both writes to block 5, positions in any order with duplicates:
  // ascending submission order applies, so the later copy wins; the
  // unselected write to block 6 is dropped with the epoch.
  ASSERT_TRUE(dev.materialize_pending({2, 0, 2}).ok());
  EXPECT_EQ(dev.pending_writes(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(5, out).ok());
  EXPECT_EQ(out, filled(0x33));
  ASSERT_TRUE(inner.read_block(6, out).ok());
  EXPECT_EQ(out, filled(0x00));
}

TEST(FaultDeviceReorder, MaterializeRequiresReorderMode) {
  MemBlockDevice inner(4);
  FaultBlockDevice dev(&inner);
  EXPECT_EQ(dev.materialize_pending({}).error(), Errno::kInval);
}

TEST(FaultDeviceReorder, DisarmDropsThePendingEpochDeterministically) {
  // Disarm with a non-empty pending epoch drops it in full -- power-cycle
  // semantics -- never leaking buffered writes into later ops, and leaves
  // the buffering mode itself as configured. The identical sequence must
  // yield the identical image on every run.
  auto run = [] {
    MemBlockDevice inner(8);
    FaultBlockDevice dev(&inner);
    EXPECT_TRUE(dev.set_reorder_buffering(true).ok());
    EXPECT_TRUE(dev.write_block(1, filled(0x5A)).ok());
    EXPECT_TRUE(dev.flush().ok());
    dev.arm_crash_at_flush(1);
    EXPECT_TRUE(dev.write_block(2, filled(0x6B)).ok());
    EXPECT_TRUE(dev.write_block(3, filled(0x7C)).ok());
    EXPECT_EQ(dev.flush().error(), Errno::kIo);
    dev.disarm();
    EXPECT_FALSE(dev.crashed());
    EXPECT_EQ(dev.writes_at_crash(), 0u);
    EXPECT_EQ(dev.pending_writes(), 0u);   // dropped, not drained
    EXPECT_TRUE(dev.reorder_buffering());  // mode survives disarm
    // Later ops start a fresh epoch; nothing from before leaks through.
    EXPECT_TRUE(dev.write_block(4, filled(0x8D)).ok());
    EXPECT_TRUE(dev.flush().ok());
    std::vector<uint8_t> image;
    std::vector<uint8_t> out(kBlockSize);
    for (BlockNo b = 0; b < 8; ++b) {
      EXPECT_TRUE(inner.read_block(b, out).ok());
      image.insert(image.end(), out.begin(), out.end());
    }
    return image;
  };
  auto first = run();
  EXPECT_EQ(first, run());
  // Only barrier-covered writes survive: block 1 and block 4.
  auto block_of = [&](const std::vector<uint8_t>& img, BlockNo b) {
    return std::vector<uint8_t>(img.begin() + b * kBlockSize,
                                img.begin() + (b + 1) * kBlockSize);
  };
  EXPECT_EQ(block_of(first, 1), filled(0x5A));
  EXPECT_EQ(block_of(first, 2), filled(0x00));  // dropped with the epoch
  EXPECT_EQ(block_of(first, 3), filled(0x00));  // dropped with the epoch
  EXPECT_EQ(block_of(first, 4), filled(0x8D));
}

TEST(FaultDeviceReorder, DisablingBufferingDrainsInsteadOfDropping) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  ASSERT_TRUE(dev.write_block(2, filled(0xE1)).ok());
  ASSERT_TRUE(dev.set_reorder_buffering(false).ok());
  EXPECT_FALSE(dev.reorder_buffering());
  EXPECT_EQ(dev.pending_writes(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(2, out).ok());
  EXPECT_EQ(out, filled(0xE1));  // drained, not lost
}

TEST(FaultDeviceReorder, OneShotWriteErrorCountsSubmissionOrder) {
  // arm_write_error_at names the submission attempt even under buffering;
  // the failed write never enters the pending epoch.
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  dev.arm_write_error_at(1);
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  EXPECT_EQ(dev.write_block(1, filled(2)).error(), Errno::kIo);
  ASSERT_TRUE(dev.write_block(2, filled(3)).ok());
  auto pend = dev.pending_epoch();
  ASSERT_EQ(pend.size(), 2u);
  EXPECT_EQ(pend[0].index, 0u);
  EXPECT_EQ(pend[1].index, 2u);  // index 1 was the EIO'd attempt
  ASSERT_TRUE(dev.flush().ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0));  // the EIO'd write never reached the cache
  EXPECT_EQ(dev.injected_write_errors(), 1u);
}

TEST(FaultDeviceReorder, CrashImagesMatchUnbufferedExecution) {
  // Repro byte-identity: a crash-at-write-k repro recorded without
  // buffering produces the same durable image with buffering on, because
  // IO indices count submission order in both modes and the MemBlockDevice
  // volatile cache already drops unflushed writes at crash().
  auto drive = [](bool reorder) {
    MemBlockDevice mem(8);
    FaultBlockDevice dev(&mem);
    EXPECT_TRUE(dev.set_reorder_buffering(reorder).ok());
    dev.arm_crash_after_writes(4);
    for (BlockNo b = 0; b < 3; ++b) {
      EXPECT_TRUE(dev.write_block(b, filled(static_cast<uint8_t>(b + 1))).ok());
    }
    EXPECT_TRUE(dev.flush().ok());
    EXPECT_TRUE(dev.write_block(3, filled(0x44)).ok());  // index 3: volatile
    EXPECT_EQ(dev.write_block(4, filled(0x55)).error(), Errno::kIo);
    EXPECT_TRUE(dev.crashed());
    EXPECT_EQ(dev.writes_at_crash(), 4u);
    mem.crash();  // power loss: volatile contents gone in both modes
    std::vector<uint8_t> image;
    std::vector<uint8_t> out(kBlockSize);
    for (BlockNo b = 0; b < 8; ++b) {
      EXPECT_TRUE(mem.read_block(b, out).ok());
      image.insert(image.end(), out.begin(), out.end());
    }
    return image;
  };
  EXPECT_EQ(drive(false), drive(true));
}

TEST(AsyncDevice, CompletesReadsAndWrites) {
  MemBlockDevice inner(8);
  AsyncBlockDevice async(&inner, 2);
  std::atomic<int> completions{0};

  async.submit_write(3, filled(0x5C), [&](Status st) {
    EXPECT_TRUE(st.ok());
    ++completions;
  });
  async.drain();

  async.submit_read(3, [&](Status st, std::vector<uint8_t> data) {
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(data, filled(0x5C));
    ++completions;
  });
  async.drain();
  EXPECT_EQ(completions.load(), 2);
  EXPECT_EQ(async.pending(), 0u);
}

TEST(AsyncDevice, FlushIsABarrier) {
  MemBlockDevice inner(64);
  AsyncBlockDevice async(&inner, 4);
  std::atomic<bool> flush_done{false};
  std::atomic<int> writes_before_flush{0};

  for (BlockNo b = 0; b < 32; ++b) {
    async.submit_write(b, filled(1), [&](Status) {
      EXPECT_FALSE(flush_done.load());
      ++writes_before_flush;
    });
  }
  async.submit_flush([&](Status st) {
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(writes_before_flush.load(), 32);
    flush_done = true;
  });
  async.drain();
  EXPECT_TRUE(flush_done.load());
  EXPECT_EQ(inner.volatile_blocks(), 0u);
}

TEST(AsyncDevice, ManyConcurrentRequests) {
  MemBlockDevice inner(256);
  AsyncBlockDevice async(&inner, 4);
  std::atomic<int> done{0};
  for (int round = 0; round < 4; ++round) {
    for (BlockNo b = 0; b < 256; ++b) {
      async.submit_write(b, filled(static_cast<uint8_t>(round)),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok());
                           ++done;
                         });
    }
  }
  async.drain();
  EXPECT_EQ(done.load(), 1024);
}

/// Holds every IO for `hold_us` and records how many writes were on the
/// device at once; flushes can also be held at a gate.
class PeakDevice final : public BlockDevice {
 public:
  PeakDevice(BlockDevice* inner, uint32_t hold_us)
      : inner_(inner), hold_us_(hold_us) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo b, std::span<uint8_t> out) override {
    std::this_thread::sleep_for(std::chrono::microseconds(hold_us_));
    return inner_->read_block(b, out);
  }
  Status write_block(BlockNo b, std::span<const uint8_t> d) override {
    const int now = writes_in_flight_.fetch_add(1) + 1;
    int peak = peak_writes_.load();
    while (now > peak && !peak_writes_.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(hold_us_));
    writes_in_flight_.fetch_sub(1);
    return inner_->write_block(b, d);
  }
  Status flush() override {
    std::unique_lock<std::mutex> lk(mu_);
    ++flushes_started_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !flush_gate_closed_; });
    return inner_->flush();
  }
  const DeviceStats& stats() const override { return inner_->stats(); }

  int peak_writes() const { return peak_writes_.load(); }
  void close_flush_gate() {
    std::lock_guard<std::mutex> lk(mu_);
    flush_gate_closed_ = true;
  }
  void open_flush_gate() {
    std::lock_guard<std::mutex> lk(mu_);
    flush_gate_closed_ = false;
    cv_.notify_all();
  }
  void wait_flush_started() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return flushes_started_ > 0; });
  }

 private:
  BlockDevice* inner_;
  uint32_t hold_us_;
  std::atomic<int> writes_in_flight_{0};
  std::atomic<int> peak_writes_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool flush_gate_closed_ = false;
  int flushes_started_ = 0;
};

const int kDefaultWorkers = BaseFsOptions{}.async_workers;

TEST(AsyncDevice, FlushFencesEarlierWritesAndReadsAtDefaultWorkers) {
  MemBlockDevice mem(128);
  PeakDevice dev(&mem, 100);
  AsyncBlockDevice async(&dev, kDefaultWorkers);
  std::atomic<int> before{0};
  std::atomic<bool> flushed{false};
  std::atomic<int> after{0};
  for (BlockNo b = 0; b < 32; ++b) {
    async.submit_write(b, filled(7), [&](Status st) {
      EXPECT_TRUE(st.ok());
      EXPECT_FALSE(flushed.load());
      ++before;
    });
  }
  for (BlockNo b = 32; b < 48; ++b) {
    async.submit_read(b, [&](Status st, std::vector<uint8_t>) {
      EXPECT_TRUE(st.ok());
      EXPECT_FALSE(flushed.load());
      ++before;
    });
  }
  async.submit_flush([&](Status st) {
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(before.load(), 48);
    flushed = true;
  });
  // Requests behind the barrier start only once it completed.
  for (BlockNo b = 64; b < 80; ++b) {
    async.submit_write(b, filled(9), [&](Status st) {
      EXPECT_TRUE(st.ok());
      EXPECT_TRUE(flushed.load());
      ++after;
    });
  }
  async.drain();
  EXPECT_TRUE(flushed.load());
  EXPECT_EQ(after.load(), 16);
  EXPECT_EQ(mem.volatile_blocks(), 16u);  // only the post-barrier writes
}

TEST(AsyncDevice, BaseWriteBackOverlapsAtDefaultWorkers) {
  // A 64-block file written back by one sync keeps several writes on the
  // device at once.
  MemBlockDevice mem(4096);
  ASSERT_TRUE(BaseFs::mkfs(&mem, MkfsOptions{}).ok());
  PeakDevice dev(&mem, 200);
  auto fs = BaseFs::mount(&dev, BaseFsOptions{});
  ASSERT_TRUE(fs.ok());
  auto ino = fs.value()->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> data(64 * kBlockSize, 0x3C);
  ASSERT_EQ(fs.value()->write(ino.value(), 0, 0, data).value(), data.size());
  ASSERT_TRUE(fs.value()->sync().ok());
  EXPECT_GT(dev.peak_writes(), 1);
  ASSERT_TRUE(fs.value()->unmount().ok());
}

TEST(AsyncDevice, ReadBatchDoesNotWaitBehindABarrier) {
  MemBlockDevice mem(64);
  for (BlockNo b = 0; b < 8; ++b) {
    ASSERT_TRUE(mem.write_block(b, filled(static_cast<uint8_t>(b + 1))).ok());
  }
  PeakDevice dev(&mem, 0);
  AsyncBlockDevice async(&dev, kDefaultWorkers);
  dev.close_flush_gate();
  async.submit_flush([](Status) {});
  dev.wait_flush_started();
  async.submit_write(20, filled(0x20), [](Status) {});  // queued behind it
  const std::vector<BlockNo> want = {3, 1, 7, 0, 5};
  auto got = async.read_batch(want);  // must not wait for the gate
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.value()[i], filled(static_cast<uint8_t>(want[i] + 1)));
  }
  EXPECT_EQ(async.pending(), 2u);  // flush running, write still queued
  dev.open_flush_gate();
  async.drain();
  EXPECT_EQ(async.pending(), 0u);
}

TEST(AsyncDevice, ReadBatchReportsAReadError) {
  MemBlockDevice mem(16);
  FaultBlockDevice dev(&mem);
  AsyncBlockDevice async(&dev, kDefaultWorkers);
  dev.arm_read_error_at(2);
  const std::vector<BlockNo> want = {0, 1, 2, 3, 4, 5};
  auto got = async.read_batch(want);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error(), Errno::kIo);
}

TEST(FileDevice, RoundTripsThroughDisk) {
  std::string path = ::testing::TempDir() + "/raefs_filedev_test.img";
  {
    FileBlockDevice dev(path, 8);
    ASSERT_TRUE(dev.write_block(5, filled(0xEE)).ok());
    ASSERT_TRUE(dev.flush().ok());
  }
  {
    FileBlockDevice dev(path, 8);
    std::vector<uint8_t> out(kBlockSize);
    ASSERT_TRUE(dev.read_block(5, out).ok());
    EXPECT_EQ(out, filled(0xEE));
  }
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace raefs
