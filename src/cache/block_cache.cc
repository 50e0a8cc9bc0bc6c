#include "cache/block_cache.h"

#include <algorithm>
#include <cstdint>

namespace raefs {

BlockCache::BlockCache(BlockDevice* dev, size_t capacity, int shards)
    : dev_(dev),
      per_shard_capacity_(std::max<size_t>(1, capacity / static_cast<size_t>(shards))),
      shards_(static_cast<size_t>(shards)) {}

Result<BlockCache::Entry*> BlockCache::load_locked(Shard& s, BlockNo block) {
  auto it = s.map.find(block);
  if (it != s.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    touch_locked(s, block, it->second);
    return &it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto data = std::make_shared<BlockBuf>(dev_->block_size());
  RAEFS_TRY_VOID(dev_->read_block(block, *data));
  return &insert_clean_locked(s, block, std::move(data));
}

BlockCache::Entry& BlockCache::insert_clean_locked(
    Shard& s, BlockNo block, std::shared_ptr<BlockBuf> data) {
  evict_locked(s);
  s.lru.push_front(block);
  s.clean_lru.push_front(block);
  Entry e;
  e.data = std::move(data);
  e.lru_pos = s.lru.begin();
  e.clean_pos = s.clean_lru.begin();
  return s.map.emplace(block, std::move(e)).first->second;
}

void BlockCache::touch_locked(Shard& s, BlockNo block, Entry& e) {
  (void)block;
  s.lru.splice(s.lru.begin(), s.lru, e.lru_pos);
  if (!e.dirty) s.clean_lru.splice(s.clean_lru.begin(), s.clean_lru, e.clean_pos);
}

void BlockCache::evict_locked(Shard& s) {
  // Evict least-recently-used *clean* blocks; dirty blocks are pinned.
  // The clean-LRU list makes each eviction O(1) even when dirty blocks
  // dominate the shard. When everything is dirty the cache grows past
  // capacity (soft limit); the clean list lets it shrink back as soon as
  // write-back marks blocks clean again.
  while (s.map.size() >= per_shard_capacity_ && !s.clean_lru.empty()) {
    BlockNo victim = s.clean_lru.back();
    auto it = s.map.find(victim);
    s.clean_lru.pop_back();
    s.lru.erase(it->second.lru_pos);
    s.map.erase(it);
  }
}

void BlockCache::mark_dirty_locked(Shard& s, BlockNo block, Entry& e) {
  // Every dirtying touch retags with the current open epoch, even when the
  // entry is already dirty: the commit engine relies on the tag naming the
  // *latest* epoch that modified the block (mark_clean_upto must not clean
  // a block re-dirtied after its snapshot was taken).
  e.epoch = open_epoch_.load(std::memory_order_acquire);
  if (e.dirty) return;
  e.dirty = true;
  s.clean_lru.erase(e.clean_pos);
  s.dirty_list.push_front(block);
  e.dirty_pos = s.dirty_list.begin();
  ++s.dirty_count;
}

void BlockCache::ensure_unique_locked(Entry& e) {
  // A handle escaped via read() or dirty_snapshot(): clone before writing
  // so the holder keeps its point-in-time view. Handles are only acquired
  // under the shard lock, so a use_count of 1 here cannot race upward.
  if (e.data.use_count() > 1) {
    cow_clones_.fetch_add(1, std::memory_order_relaxed);
    bytes_copied_.fetch_add(e.data->size(), std::memory_order_relaxed);
    e.data = std::make_shared<BlockBuf>(*e.data);
  }
}

Result<BlockRef> BlockCache::read(BlockNo block) {
  Shard& s = shard_of(block);
  std::lock_guard<std::mutex> lk(s.mu);
  RAEFS_TRY(Entry * e, load_locked(s, block));
  return BlockRef(BlockBufPtr(e->data));
}

Result<std::vector<BlockRef>> BlockCache::read_many(
    std::span<const BlockNo> blocks, AsyncBlockDevice& io) {
  std::vector<BlockRef> out(blocks.size());
  std::vector<size_t> missing;
  std::vector<uint64_t> seen;  // shard version when the miss was seen
  for (size_t i = 0; i < blocks.size(); ++i) {
    Shard& s = shard_of(blocks[i]);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(blocks[i]);
    if (it != s.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      touch_locked(s, blocks[i], it->second);
      out[i] = BlockRef(BlockBufPtr(it->second.data));
      continue;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    missing.push_back(i);
    seen.push_back(s.version);
  }
  if (missing.empty()) return out;

  std::vector<BlockNo> want;
  want.reserve(missing.size());
  for (size_t i : missing) want.push_back(blocks[i]);
  RAEFS_TRY(auto fetched, io.read_batch(want));

  // Touch and insert in request order, hits again included, so the LRU
  // order ends up as if the blocks had been read one at a time.
  size_t k = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const BlockNo block = blocks[i];
    Shard& s = shard_of(block);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(block);
    if (k == missing.size() || missing[k] != i) {
      if (it != s.map.end()) touch_locked(s, block, it->second);
      continue;
    }
    Entry* e = nullptr;
    if (it != s.map.end()) {
      e = &it->second;  // filled or written meanwhile: the cache wins
      touch_locked(s, block, *e);
    } else if (s.version == seen[k]) {
      e = &insert_clean_locked(
          s, block, std::make_shared<BlockBuf>(std::move(fetched[k])));
    } else {
      // The shard changed while the read was in flight, so the bytes may
      // predate a write that has since been written back and evicted.
      // Read again, under the lock.
      RAEFS_TRY(e, load_locked(s, block));
    }
    out[i] = BlockRef(BlockBufPtr(e->data));
    ++k;
  }
  return out;
}

Status BlockCache::write(BlockNo block, std::vector<uint8_t> data) {
  if (data.size() != dev_->block_size()) return Errno::kInval;
  Shard& s = shard_of(block);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.map.find(block);
  if (it != s.map.end()) {
    // Whole-block replace: swap in the new buffer, never copy.
    it->second.data = std::make_shared<BlockBuf>(std::move(data));
    mark_dirty_locked(s, block, it->second);
    touch_locked(s, block, it->second);
    return Status::Ok();
  }
  evict_locked(s);
  s.lru.push_front(block);
  Entry e;
  e.data = std::make_shared<BlockBuf>(std::move(data));
  e.dirty = true;
  e.epoch = open_epoch_.load(std::memory_order_acquire);
  e.lru_pos = s.lru.begin();
  s.dirty_list.push_front(block);
  e.dirty_pos = s.dirty_list.begin();
  s.map.emplace(block, std::move(e));
  ++s.dirty_count;
  return Status::Ok();
}

Status BlockCache::modify(BlockNo block,
                          const std::function<void(std::span<uint8_t>)>& fn) {
  Shard& s = shard_of(block);
  std::lock_guard<std::mutex> lk(s.mu);
  RAEFS_TRY(Entry * e, load_locked(s, block));
  ensure_unique_locked(*e);
  fn(std::span<uint8_t>(*e->data));
  mark_dirty_locked(s, block, *e);
  return Status::Ok();
}

std::vector<std::pair<BlockNo, BlockBufPtr>>
BlockCache::dirty_snapshot() const {
  return dirty_snapshot_range(0, UINT64_MAX);
}

std::vector<std::pair<BlockNo, BlockBufPtr>>
BlockCache::dirty_snapshot_range(uint64_t after, uint64_t upto) const {
  std::vector<std::pair<BlockNo, BlockBufPtr>> out;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    out.reserve(out.size() + s.dirty_count);
    // The dirty list holds exactly the dirty entries: O(dirty) per shard.
    for (BlockNo block : s.dirty_list) {
      const Entry& e = s.map.at(block);
      if (e.epoch > after && e.epoch <= upto) {
        out.emplace_back(block, BlockBufPtr(e.data));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void BlockCache::mark_clean(std::span<const BlockNo> blocks) {
  mark_clean_upto(blocks, UINT64_MAX);
}

void BlockCache::mark_clean_upto(std::span<const BlockNo> blocks,
                                 uint64_t upto) {
  for (BlockNo block : blocks) {
    Shard& s = shard_of(block);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(block);
    if (it != s.map.end() && it->second.dirty && it->second.epoch <= upto) {
      ++s.version;
      it->second.dirty = false;
      --s.dirty_count;
      s.dirty_list.erase(it->second.dirty_pos);
      s.clean_lru.push_front(block);
      it->second.clean_pos = s.clean_lru.begin();
    }
  }
}

void BlockCache::install_clean(
    const std::vector<std::pair<BlockNo, BlockBufPtr>>& blocks) {
  for (const auto& [block, buf] : blocks) {
    if (!buf || buf->size() != dev_->block_size()) continue;
    Shard& s = shard_of(block);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(block);
    if (it != s.map.end()) {
      Entry& e = it->second;
      e.data = std::make_shared<BlockBuf>(*buf);
      if (e.dirty) {
        ++s.version;
        e.dirty = false;
        --s.dirty_count;
        s.dirty_list.erase(e.dirty_pos);
        s.clean_lru.push_front(block);
        e.clean_pos = s.clean_lru.begin();
      }
      touch_locked(s, block, e);
      continue;
    }
    insert_clean_locked(s, block, std::make_shared<BlockBuf>(*buf));
  }
}

void BlockCache::drop_all() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.map.clear();
    s.lru.clear();
    s.clean_lru.clear();
    s.dirty_list.clear();
    s.dirty_count = 0;
    ++s.version;
  }
}

void BlockCache::drop(BlockNo block) {
  Shard& s = shard_of(block);
  std::lock_guard<std::mutex> lk(s.mu);
  ++s.version;
  auto it = s.map.find(block);
  if (it != s.map.end()) {
    s.lru.erase(it->second.lru_pos);
    if (it->second.dirty) {
      --s.dirty_count;
      s.dirty_list.erase(it->second.dirty_pos);
    } else {
      s.clean_lru.erase(it->second.clean_pos);
    }
    s.map.erase(it);
  }
}

size_t BlockCache::cached_blocks() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    total += s.map.size();
  }
  return total;
}

size_t BlockCache::dirty_blocks() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    total += s.dirty_count;
  }
  return total;
}

}  // namespace raefs
