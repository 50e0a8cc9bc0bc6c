#include "io_trace.h"

#include <algorithm>

namespace perfbench {

uint32_t thread_index() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

Region RegionDevice::classify(raefs::BlockNo b) const {
  if (b < geo_.inode_bitmap_start) return kSuper;
  if (b < geo_.inode_table_start) return kBitmap;
  if (b < geo_.journal_start) return kItable;
  if (b < geo_.data_start) return kJournal;
  return kData;
}

template <typename F>
raefs::Status RegionDevice::record(IoType type, Region region, F&& io) {
  if (!active_.load(std::memory_order_relaxed)) return io();
  IoSpan span;
  span.start = now_ns();
  raefs::Status st = io();
  span.end = now_ns();
  span.op_id = t_op_id;
  span.thread = thread_index();
  span.type = type;
  span.region = region;
  counts_[type][region].fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(span);
  return st;
}

raefs::Status RegionDevice::read_block(raefs::BlockNo block,
                                       std::span<uint8_t> out) {
  return record(kIoRead, classify(block),
                [&] { return inner_->read_block(block, out); });
}

raefs::Status RegionDevice::write_block(raefs::BlockNo block,
                                        std::span<const uint8_t> data) {
  return record(kIoWrite, classify(block),
                [&] { return inner_->write_block(block, data); });
}

raefs::Status RegionDevice::flush() {
  return record(kIoFlush, kNumRegions, [&] { return inner_->flush(); });
}

std::vector<IoSpan> RegionDevice::spans() const {
  std::vector<IoSpan> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const IoSpan& a, const IoSpan& b) {
    return a.start < b.start;
  });
  return out;
}

std::vector<std::pair<int64_t, int64_t>> busy_intervals(
    const std::vector<IoSpan>& sorted_spans) {
  std::vector<std::pair<int64_t, int64_t>> busy;
  for (const IoSpan& s : sorted_spans) {
    if (!busy.empty() && s.start <= busy.back().second) {
      busy.back().second = std::max(busy.back().second, s.end);
    } else {
      busy.emplace_back(s.start, s.end);
    }
  }
  return busy;
}

int64_t covered(const std::vector<std::pair<int64_t, int64_t>>& busy,
                size_t* cursor, int64_t start, int64_t end) {
  while (*cursor < busy.size() && busy[*cursor].second <= start) ++*cursor;
  int64_t total = 0;
  for (size_t i = *cursor; i < busy.size() && busy[i].first < end; ++i) {
    total += std::min(end, busy[i].second) - std::max(start, busy[i].first);
  }
  return total;
}

}  // namespace perfbench
