// Wall-clock tracing from outside the filesystem: a block-device decorator
// that classifies every IO by on-disk region and records one span per IO,
// and the per-thread op id the benchmark sets around each filesystem call.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "blockdev/block_device.h"
#include "format/layout.h"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum Region : uint8_t { kSuper, kBitmap, kItable, kJournal, kData, kNumRegions };
inline constexpr const char* kRegionNames[kNumRegions] = {
    "super", "bitmap", "itable", "journal", "data"};

enum IoType : uint8_t { kIoRead, kIoWrite, kIoFlush, kNumIoTypes };

struct IoSpan {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t op_id = 0;   // benchmark op in flight on the issuing thread (0: none)
  uint32_t thread = 0;  // dense per-process thread index
  uint8_t type = kIoRead;
  uint8_t region = kNumRegions;  // kNumRegions for flushes
};

/// Op id of the benchmark call in flight on this thread; 0 on threads the
/// filesystem owns (write-back, commit, recovery workers).
inline thread_local uint64_t t_op_id = 0;

/// Small dense index of the calling thread, stable for its lifetime.
uint32_t thread_index();

/// Counts and times every IO per on-disk region while active. Sits above
/// the latency model, so a span covers the modelled device time.
class RegionDevice final : public raefs::BlockDevice {
 public:
  RegionDevice(raefs::BlockDevice* inner, const raefs::Geometry& geo)
      : inner_(inner), geo_(geo) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  raefs::Status read_block(raefs::BlockNo block,
                           std::span<uint8_t> out) override;
  raefs::Status write_block(raefs::BlockNo block,
                            std::span<const uint8_t> data) override;
  raefs::Status flush() override;
  const raefs::DeviceStats& stats() const override { return inner_->stats(); }

  /// IOs are counted and recorded only while active.
  void set_active(bool on) { active_.store(on); }

  uint64_t count(IoType type, Region region) const {
    return counts_[type][region].load();
  }
  /// Every recorded span, sorted by start time.
  std::vector<IoSpan> spans() const;

 private:
  Region classify(raefs::BlockNo b) const;
  template <typename F>
  raefs::Status record(IoType type, Region region, F&& io);

  raefs::BlockDevice* inner_;
  raefs::Geometry geo_;
  std::atomic<bool> active_{false};
  std::array<std::array<std::atomic<uint64_t>, kNumRegions + 1>, kNumIoTypes>
      counts_{};
  mutable std::mutex mu_;
  std::vector<IoSpan> spans_;
};

/// Merge possibly overlapping spans into disjoint busy intervals.
std::vector<std::pair<int64_t, int64_t>> busy_intervals(
    const std::vector<IoSpan>& sorted_spans);

/// Length of the part of [start, end) covered by `busy` (disjoint, sorted).
/// `cursor` advances monotonically, so querying non-decreasing windows is
/// linear overall.
int64_t covered(const std::vector<std::pair<int64_t, int64_t>>& busy,
                size_t* cursor, int64_t start, int64_t end);

}  // namespace perfbench
