// Data path of the base filesystem: file-block mapping through direct /
// indirect / double-indirect pointers, read/write/truncate, block freeing.
#include <algorithm>
#include <cstring>

#include "basefs/base_fs.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {

namespace {

uint64_t read_ptr(std::span<const uint8_t> block, uint32_t index) {
  uint64_t v = 0;
  std::memcpy(&v, block.data() + index * 8, sizeof(v));
  return v;
}

void write_ptr(std::span<uint8_t> block, uint32_t index, uint64_t v) {
  std::memcpy(block.data() + index * 8, &v, sizeof(v));
}

}  // namespace

// ---------------------------------------------------------------------------
// block mapping
// ---------------------------------------------------------------------------

Result<BlockNo> BaseFs::map_block(DiskInode* inode, uint64_t file_block,
                                  bool alloc, std::span<const uint8_t> seed,
                                  bool* seeded) {
  if (file_block >= kMaxFileBlocks) return Errno::kFBig;

  auto alloc_fresh = [&](BlockClass cls) -> Result<BlockNo> {
    const bool use_seed = cls == BlockClass::kFileData && !seed.empty();
    RAEFS_TRY(BlockNo b, alloc_block());
    Status st = block_cache_.write(
        b, use_seed ? std::vector<uint8_t>(seed.begin(), seed.end())
                    : std::vector<uint8_t>(kBlockSize, 0));
    if (!st.ok()) {
      (void)free_block(b);
      return st.error();
    }
    note_meta_block(b, cls);
    if (seeded != nullptr && use_seed) *seeded = true;
    return b;
  };

  // Direct pointers.
  if (file_block < kNumDirect) {
    BlockNo b = inode->direct[file_block];
    if (b == 0 && alloc) {
      RAEFS_TRY(b, alloc_fresh(BlockClass::kFileData));
      inode->direct[file_block] = b;
      note_mutation();
    }
    BASE_BUG_ON(b != 0 && !geo_.is_data_block(b), "BaseFs::map_block",
                "direct pointer outside data region");
    return b;
  }

  // Single indirect. A fresh pointer block allocated here is released
  // again if any later step of the same call fails: a map_block that does
  // not return a wired data block must not consume space.
  uint64_t rel = file_block - kNumDirect;
  if (rel < kPtrsPerBlock) {
    bool fresh_ind = false;
    if (inode->indirect == 0) {
      if (!alloc) return BlockNo{0};
      RAEFS_TRY(BlockNo ib, alloc_fresh(BlockClass::kIndirectMeta));
      inode->indirect = ib;
      fresh_ind = true;
      note_mutation();
    }
    auto unwind = [&] {
      if (fresh_ind) {
        (void)free_block(inode->indirect);
        inode->indirect = 0;
      }
    };
    auto iread = block_cache_.read(inode->indirect);
    if (!iread.ok()) {
      unwind();
      return iread.error();
    }
    auto iblock = std::move(iread).value();
    BlockNo b = read_ptr(iblock, static_cast<uint32_t>(rel));
    if (b == 0 && alloc) {
      auto fresh = alloc_fresh(BlockClass::kFileData);
      if (!fresh.ok()) {
        unwind();
        return fresh.error();
      }
      b = fresh.value();
      Status wired = block_cache_.modify(
          inode->indirect, [&](std::span<uint8_t> blk) {
            write_ptr(blk, static_cast<uint32_t>(rel), b);
          });
      if (!wired.ok()) {
        (void)free_block(b);
        unwind();
        return wired.error();
      }
      note_meta_block(inode->indirect, BlockClass::kIndirectMeta);
      note_mutation();
    }
    BASE_BUG_ON(b != 0 && !geo_.is_data_block(b), "BaseFs::map_block",
                "indirect pointer outside data region");
    return b;
  }

  // Double indirect. Same contract: the chain of fresh intermediates
  // (top block, L1 block) is torn back down on any partial failure.
  rel -= kPtrsPerBlock;
  uint64_t l1 = rel / kPtrsPerBlock;
  uint64_t l2 = rel % kPtrsPerBlock;
  bool fresh_dind = false;
  bool fresh_l1 = false;
  BlockNo l1_block = 0;
  auto unwind = [&] {
    if (fresh_l1 && l1_block != 0) {
      if (!fresh_dind) {
        (void)block_cache_.modify(
            inode->dindirect, [&](std::span<uint8_t> blk) {
              write_ptr(blk, static_cast<uint32_t>(l1), 0);
            });
      }
      (void)free_block(l1_block);
    }
    if (fresh_dind) {
      (void)free_block(inode->dindirect);
      inode->dindirect = 0;
    }
  };
  if (inode->dindirect == 0) {
    if (!alloc) return BlockNo{0};
    RAEFS_TRY(BlockNo db, alloc_fresh(BlockClass::kIndirectMeta));
    inode->dindirect = db;
    fresh_dind = true;
    note_mutation();
  }
  auto dread = block_cache_.read(inode->dindirect);
  if (!dread.ok()) {
    unwind();
    return dread.error();
  }
  auto dblock = std::move(dread).value();
  l1_block = read_ptr(dblock, static_cast<uint32_t>(l1));
  if (l1_block == 0) {
    if (!alloc) return BlockNo{0};
    auto fresh = alloc_fresh(BlockClass::kIndirectMeta);
    if (!fresh.ok()) {
      unwind();
      return fresh.error();
    }
    l1_block = fresh.value();
    fresh_l1 = true;
    Status wired = block_cache_.modify(
        inode->dindirect, [&](std::span<uint8_t> blk) {
          write_ptr(blk, static_cast<uint32_t>(l1), l1_block);
        });
    if (!wired.ok()) {
      unwind();
      return wired.error();
    }
    note_meta_block(inode->dindirect, BlockClass::kIndirectMeta);
    note_mutation();
  }
  BASE_BUG_ON(!geo_.is_data_block(l1_block), "BaseFs::map_block",
              "double-indirect L1 pointer outside data region");
  auto l1read = block_cache_.read(l1_block);
  if (!l1read.ok()) {
    unwind();
    return l1read.error();
  }
  auto l1_data = std::move(l1read).value();
  BlockNo b = read_ptr(l1_data, static_cast<uint32_t>(l2));
  if (b == 0 && alloc) {
    auto fresh = alloc_fresh(BlockClass::kFileData);
    if (!fresh.ok()) {
      unwind();
      return fresh.error();
    }
    b = fresh.value();
    Status wired = block_cache_.modify(l1_block, [&](std::span<uint8_t> blk) {
      write_ptr(blk, static_cast<uint32_t>(l2), b);
    });
    if (!wired.ok()) {
      (void)free_block(b);
      unwind();
      return wired.error();
    }
    note_meta_block(l1_block, BlockClass::kIndirectMeta);
    note_mutation();
  }
  BASE_BUG_ON(b != 0 && !geo_.is_data_block(b), "BaseFs::map_block",
              "double-indirect pointer outside data region");
  return b;
}

// ---------------------------------------------------------------------------
// batched mapping walk
// ---------------------------------------------------------------------------

Result<std::vector<BaseFs::Extent>> BaseFs::map_range(Ino ino,
                                                      const DiskInode& inode,
                                                      uint64_t first_fb,
                                                      uint64_t count) {
  std::vector<Extent> out;
  if (count == 0) return out;
  if (first_fb >= kMaxFileBlocks || count > kMaxFileBlocks - first_fb) {
    return Errno::kFBig;
  }
  const uint64_t end = first_fb + count;
  const uint64_t epoch = mutation_epoch_.load(std::memory_order_acquire);

  // Hint fast path: the whole request lies inside the last mapped run
  // recorded for this inode, and no mutation has happened since.
  {
    std::lock_guard<std::mutex> lk(extent_hint_mu_);
    auto it = extent_hints_.find(ino);
    if (it != extent_hints_.end() && it->second.epoch == epoch) {
      const Extent& h = it->second.ext;
      if (h.disk_block != 0 && first_fb >= h.file_block &&
          end <= h.file_block + h.len) {
        extent_hint_hits_.fetch_add(1, std::memory_order_relaxed);
        out.push_back(
            Extent{first_fb, h.disk_block + (first_fb - h.file_block), count});
        return out;
      }
    }
  }
  extent_walks_.fetch_add(1, std::memory_order_relaxed);

  // Coalesce a single mapped (or hole) block onto the extent list.
  auto push = [&out](uint64_t fb, BlockNo b, uint64_t len) {
    if (!out.empty()) {
      Extent& last = out.back();
      if (last.file_block + last.len == fb &&
          ((last.disk_block == 0 && b == 0) ||
           (last.disk_block != 0 && b != 0 &&
            last.disk_block + last.len == b))) {
        last.len += len;
        return;
      }
    }
    out.push_back(Extent{fb, b, len});
  };

  // Pointer-block context, loaded at most once each per walk. This is the
  // whole point: an N-block IO touches each indirect block once, not N
  // times.
  BlockRef ind;                      // single-indirect pointer block
  BlockRef dind;                     // double-indirect top block
  BlockRef l1_data;                  // current double-indirect L1 block
  uint64_t l1_loaded = ~uint64_t{0};

  uint64_t fb = first_fb;
  while (fb < end) {
    if (fb < kNumDirect) {
      BlockNo b = inode.direct[fb];
      BASE_BUG_ON(b != 0 && !geo_.is_data_block(b), "BaseFs::map_range",
                  "direct pointer outside data region");
      push(fb, b, 1);
      ++fb;
      continue;
    }
    uint64_t rel = fb - kNumDirect;
    if (rel < kPtrsPerBlock) {
      if (inode.indirect == 0) {
        uint64_t run = std::min(end - fb, kPtrsPerBlock - rel);
        push(fb, 0, run);
        fb += run;
        continue;
      }
      if (!ind) RAEFS_TRY(ind, block_cache_.read(inode.indirect));
      BlockNo b = read_ptr(ind, static_cast<uint32_t>(rel));
      BASE_BUG_ON(b != 0 && !geo_.is_data_block(b), "BaseFs::map_range",
                  "indirect pointer outside data region");
      push(fb, b, 1);
      ++fb;
      continue;
    }
    rel -= kPtrsPerBlock;
    if (inode.dindirect == 0) {
      push(fb, 0, end - fb);  // the whole remaining range is a hole
      break;
    }
    uint64_t l1 = rel / kPtrsPerBlock;
    uint64_t l2 = rel % kPtrsPerBlock;
    if (!dind) RAEFS_TRY(dind, block_cache_.read(inode.dindirect));
    BlockNo l1_block = read_ptr(dind, static_cast<uint32_t>(l1));
    if (l1_block == 0) {
      uint64_t run = std::min(end - fb, kPtrsPerBlock - l2);
      push(fb, 0, run);
      fb += run;
      continue;
    }
    BASE_BUG_ON(!geo_.is_data_block(l1_block), "BaseFs::map_range",
                "double-indirect L1 pointer outside data region");
    if (l1_loaded != l1) {
      RAEFS_TRY(l1_data, block_cache_.read(l1_block));
      l1_loaded = l1;
    }
    BlockNo b = read_ptr(l1_data, static_cast<uint32_t>(l2));
    BASE_BUG_ON(b != 0 && !geo_.is_data_block(b), "BaseFs::map_range",
                "double-indirect pointer outside data region");
    push(fb, b, 1);
    ++fb;
    continue;
  }

  // Extend the final mapped run past the request using only the pointer
  // context already in hand (no extra reads), so the recorded hint can
  // serve the next sequential IO without a walk.
  Extent hint{};
  if (!out.empty() && out.back().disk_block != 0) hint = out.back();
  if (hint.len != 0 && hint.file_block + hint.len == end) {
    constexpr uint64_t kHintCap = 1024;
    uint64_t efb = end;
    while (efb < kMaxFileBlocks && hint.len < kHintCap) {
      BlockNo b = 0;
      if (efb < kNumDirect) {
        b = inode.direct[efb];
      } else if (efb - kNumDirect < kPtrsPerBlock) {
        if (!ind) break;
        b = read_ptr(ind, static_cast<uint32_t>(efb - kNumDirect));
      } else {
        uint64_t erel = efb - kNumDirect - kPtrsPerBlock;
        if (l1_loaded != erel / kPtrsPerBlock) break;
        b = read_ptr(l1_data, static_cast<uint32_t>(erel % kPtrsPerBlock));
      }
      if (b == 0 || !geo_.is_data_block(b) ||
          b != hint.disk_block + hint.len) {
        break;
      }
      ++hint.len;
      ++efb;
    }
  } else {
    // Otherwise remember the longest mapped run of the walk.
    for (const Extent& e : out) {
      if (e.disk_block != 0 && e.len > hint.len) hint = e;
    }
  }
  if (hint.len != 0) {
    std::lock_guard<std::mutex> lk(extent_hint_mu_);
    if (extent_hints_.size() > 1024) extent_hints_.clear();
    extent_hints_[ino] = ExtentHint{hint, epoch};
  }
  return out;
}

// ---------------------------------------------------------------------------
// freeing
// ---------------------------------------------------------------------------

Status BaseFs::free_file_blocks(DiskInode* inode, uint64_t keep_blocks) {
  // Direct.
  for (uint64_t fb = keep_blocks; fb < kNumDirect; ++fb) {
    if (inode->direct[fb] != 0) {
      RAEFS_TRY_VOID(free_block(inode->direct[fb]));
      inode->direct[fb] = 0;
    }
  }

  // Single indirect.
  if (inode->indirect != 0) {
    uint64_t first_kept =
        keep_blocks > kNumDirect ? keep_blocks - kNumDirect : 0;
    if (first_kept < kPtrsPerBlock) {
      RAEFS_TRY(auto iblock, block_cache_.read(inode->indirect));
      bool any_kept = first_kept > 0;
      for (uint64_t i = first_kept; i < kPtrsPerBlock; ++i) {
        BlockNo b = read_ptr(iblock, static_cast<uint32_t>(i));
        if (b != 0) RAEFS_TRY_VOID(free_block(b));
      }
      if (!any_kept) {
        RAEFS_TRY_VOID(free_block(inode->indirect));
        inode->indirect = 0;
      } else {
        RAEFS_TRY_VOID(block_cache_.modify(
            inode->indirect, [&](std::span<uint8_t> blk) {
              for (uint64_t i = first_kept; i < kPtrsPerBlock; ++i) {
                write_ptr(blk, static_cast<uint32_t>(i), 0);
              }
            }));
        note_meta_block(inode->indirect, BlockClass::kIndirectMeta);
      }
    }
  }

  // Double indirect.
  if (inode->dindirect != 0) {
    uint64_t base = kNumDirect + kPtrsPerBlock;
    uint64_t first_kept = keep_blocks > base ? keep_blocks - base : 0;
    if (first_kept < static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
      RAEFS_TRY(auto dblock, block_cache_.read(inode->dindirect));
      bool dind_kept = first_kept > 0;
      for (uint64_t l1 = 0; l1 < kPtrsPerBlock; ++l1) {
        BlockNo l1_block = read_ptr(dblock, static_cast<uint32_t>(l1));
        if (l1_block == 0) continue;
        uint64_t l1_first = l1 * kPtrsPerBlock;
        uint64_t l1_last = l1_first + kPtrsPerBlock;
        if (l1_last <= first_kept) continue;  // fully kept
        uint64_t start = first_kept > l1_first ? first_kept - l1_first : 0;
        RAEFS_TRY(auto l1_data, block_cache_.read(l1_block));
        for (uint64_t i = start; i < kPtrsPerBlock; ++i) {
          BlockNo b = read_ptr(l1_data, static_cast<uint32_t>(i));
          if (b != 0) RAEFS_TRY_VOID(free_block(b));
        }
        if (start == 0) {
          RAEFS_TRY_VOID(free_block(l1_block));
          RAEFS_TRY_VOID(block_cache_.modify(
              inode->dindirect, [&](std::span<uint8_t> blk) {
                write_ptr(blk, static_cast<uint32_t>(l1), 0);
              }));
          note_meta_block(inode->dindirect, BlockClass::kIndirectMeta);
        } else {
          RAEFS_TRY_VOID(
              block_cache_.modify(l1_block, [&](std::span<uint8_t> blk) {
                for (uint64_t i = start; i < kPtrsPerBlock; ++i) {
                  write_ptr(blk, static_cast<uint32_t>(i), 0);
                }
              }));
          note_meta_block(l1_block, BlockClass::kIndirectMeta);
        }
      }
      if (!dind_kept) {
        RAEFS_TRY_VOID(free_block(inode->dindirect));
        inode->dindirect = 0;
      }
    }
  }
  note_mutation();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// read / write / truncate
// ---------------------------------------------------------------------------

Result<std::vector<uint8_t>> BaseFs::read(Ino ino, uint64_t gen, FileOff off,
                                          uint64_t len) {
  obs::TraceSpan span(obs::kSpanBaseRead, clock_.get());
  // Gate wait measured separately: with a commit draining ops, the time a
  // reader spends blocked here is lock wait, not cache work, and the
  // slow-op watchdog reports it as such.
  obs::TraceSpan lock_wait(obs::kSpanBaseLockWait, clock_.get());
  std::shared_lock gate(op_gate_);
  lock_wait.end();
  charge_op();
  bug_site("basefs.op.dispatch", OpKind::kRead, "", ino, off, len);
  if (!geo_.ino_valid(ino)) return Errno::kInval;

  std::shared_lock il(inode_lock(ino));
  RAEFS_TRY(DiskInode node, get_inode(ino));
  if (!node.in_use()) return Errno::kBadFd;
  if (gen != 0 && gen != node.generation) return Errno::kBadFd;
  if (node.type == FileType::kDirectory) return Errno::kIsDir;

  if (off >= node.size) return std::vector<uint8_t>{};
  len = std::min<uint64_t>(len, node.size - off);
  std::vector<uint8_t> out(len);
  if (len == 0) return out;

  // One mapping walk for the whole request, one cache batch for every
  // mapped block (its misses read from the device concurrently), then the
  // copy out.
  uint64_t first_fb = off / kBlockSize;
  uint64_t last_fb = (off + len - 1) / kBlockSize;
  RAEFS_TRY(auto extents, map_range(ino, node, first_fb, last_fb - first_fb + 1));
  std::vector<BlockNo> mapped;
  for (const Extent& e : extents) {
    if (e.disk_block == 0) continue;
    for (uint64_t i = 0; i < e.len; ++i) mapped.push_back(e.disk_block + i);
  }
  RAEFS_TRY(auto blocks, block_cache_.read_many(mapped, async_));

  size_t next = 0;  // index into blocks
  uint64_t done = 0;
  for (const Extent& e : extents) {
    for (uint64_t i = 0; i < e.len && done < len; ++i) {
      uint64_t pos = off + done;
      uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
      uint64_t chunk = std::min<uint64_t>(len - done, kBlockSize - in_block);
      if (e.disk_block == 0) {
        std::memset(out.data() + done, 0, chunk);  // hole reads as zeros
      } else {
        std::memcpy(out.data() + done, blocks[next++].data() + in_block, chunk);
      }
      done += chunk;
    }
  }
  return out;
}

Result<uint64_t> BaseFs::write(Ino ino, uint64_t gen, FileOff off,
                               std::span<const uint8_t> data) {
  obs::TraceSpan span(obs::kSpanBaseWrite, clock_.get());
  obs::TraceSpan lock_wait(obs::kSpanBaseLockWait, clock_.get());
  std::shared_lock gate(op_gate_);
  lock_wait.end();
  charge_op();
  bug_site("basefs.op.dispatch", OpKind::kWrite, "", ino, off, data.size());
  if (!geo_.ino_valid(ino)) return Errno::kInval;
  // Overflow-safe bound check: `off + data.size()` can wrap uint64 for
  // offsets near UINT64_MAX, which would slip past a naive comparison.
  if (data.size() > kMaxFileSize || off > kMaxFileSize - data.size()) {
    return Errno::kFBig;
  }

  std::unique_lock il(inode_lock(ino));
  RAEFS_TRY(DiskInode node, get_inode(ino));
  if (!node.in_use()) return Errno::kBadFd;
  if (gen != 0 && gen != node.generation) return Errno::kBadFd;
  if (node.type != FileType::kRegular) return Errno::kIsDir;
  const DiskInode entry_node = node;

  // Pre-walk the existing mappings once; only holes fall back to the
  // per-block allocating walk. Allocation never remaps an existing block,
  // so extents gathered here stay valid across mid-write allocations.
  std::vector<Extent> extents;
  if (!data.empty()) {
    uint64_t first_fb = off / kBlockSize;
    uint64_t last_fb = (off + data.size() - 1) / kBlockSize;
    auto mapped = map_range(ino, node, first_fb, last_fb - first_fb + 1);
    if (mapped.ok()) extents = std::move(mapped).value();
  }
  size_t ei = 0;

  uint64_t done = 0;
  Errno failure = Errno::kOk;
  while (done < data.size()) {
    uint64_t pos = off + done;
    uint64_t fb = pos / kBlockSize;
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    uint64_t chunk =
        std::min<uint64_t>(data.size() - done, kBlockSize - in_block);

    bug_site("basefs.write.map_block", OpKind::kWrite, "", ino,
             fb * kBlockSize, chunk);
    BlockNo target = 0;
    bool seeded = false;  // a fresh block already holds this whole chunk
    while (ei < extents.size() &&
           extents[ei].file_block + extents[ei].len <= fb) {
      ++ei;
    }
    if (ei < extents.size() && extents[ei].file_block <= fb &&
        extents[ei].disk_block != 0) {
      target = extents[ei].disk_block + (fb - extents[ei].file_block);
    }
    if (target == 0) {
      auto mapped = map_block(
          &node, fb, /*alloc=*/true,
          chunk == kBlockSize ? data.subspan(done, chunk)
                              : std::span<const uint8_t>{},
          &seeded);
      if (!mapped.ok()) {
        failure = mapped.error();
        break;
      }
      target = mapped.value();
    }
    // A whole block is replaced without reading it; a partial one is
    // read, modified and written.
    Status st =
        seeded ? Status::Ok()
        : chunk == kBlockSize
            ? block_cache_.write(target, {data.begin() + done,
                                          data.begin() + done + chunk})
            : block_cache_.modify(target, [&](std::span<uint8_t> blk) {
                std::memcpy(blk.data() + in_block, data.data() + done, chunk);
              });
    if (!st.ok()) {
      failure = st.error();
      break;
    }
    // Silent DATA corruption injection point: flips a byte of the block
    // just written, in cache. Metadata validation cannot see it; only
    // re-execution (the deep scrub / recovery replay) can.
    bug_site("basefs.write.data", OpKind::kWrite, "", ino, fb * kBlockSize,
             chunk, [&] {
               (void)block_cache_.modify(target, [&](std::span<uint8_t> blk) {
                 blk[in_block] ^= 0x01;
               });
             });
    done += chunk;
  }

  if (done == 0 && failure != Errno::kOk) {
    // A mid-loop map_block may have wired fresh blocks into the mapping
    // before the failure. Those live only in the local inode copy and the
    // cached pointer blocks; dropping the copy here would leave them
    // allocated in the bitmap but unreachable from any inode. Persist the
    // mapping so the blocks stay owned (pre-allocated past the write
    // point) instead of leaking.
    bool mapping_changed =
        node.indirect != entry_node.indirect ||
        node.dindirect != entry_node.dindirect ||
        !std::equal(std::begin(node.direct), std::end(node.direct),
                    std::begin(entry_node.direct));
    if (mapping_changed) {
      put_inode(ino, node);
      note_mutation();
    }
    return failure;
  }
  if (done > 0) {
    node.size = std::max<uint64_t>(node.size, off + done);
    node.mtime = clock_ ? clock_->now() : 0;
    put_inode(ino, node);
    note_mutation();
  }
  // Wrong-result injection point: a buggy base may *report* fewer bytes
  // than it wrote (or vice versa) -- invisible to the app, detectable
  // only by the shadow's outcome cross-check (scrub / recovery).
  uint64_t reported = done;
  bug_site("basefs.write.result", OpKind::kWrite, "", ino, off, done, [&] {
    if (reported > 0) --reported;
  });
  return reported;  // short write on mid-stream failure, POSIX-style
}

Status BaseFs::truncate(Ino ino, uint64_t gen, uint64_t new_size) {
  std::shared_lock gate(op_gate_);
  charge_op();
  bug_site("basefs.op.dispatch", OpKind::kTruncate, "", ino, 0, new_size);
  bug_site("basefs.truncate.entry", OpKind::kTruncate, "", ino, 0, new_size);
  if (!geo_.ino_valid(ino)) return Errno::kInval;
  if (new_size > kMaxFileSize) return Errno::kFBig;

  std::unique_lock il(inode_lock(ino));
  RAEFS_TRY(DiskInode node, get_inode(ino));
  if (!node.in_use()) return Errno::kBadFd;
  if (gen != 0 && gen != node.generation) return Errno::kBadFd;
  if (node.type != FileType::kRegular) return Errno::kIsDir;

  if (new_size < node.size) {
    uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;
    RAEFS_TRY_VOID(free_file_blocks(&node, keep));
    // Zero the tail of the final kept block so later growth reads zeros.
    if (new_size % kBlockSize != 0) {
      RAEFS_TRY(BlockNo b, map_block(&node, new_size / kBlockSize,
                                     /*alloc=*/false));
      if (b != 0) {
        uint32_t from = static_cast<uint32_t>(new_size % kBlockSize);
        RAEFS_TRY_VOID(block_cache_.modify(b, [&](std::span<uint8_t> blk) {
          std::memset(blk.data() + from, 0, kBlockSize - from);
        }));
      }
    }
  }
  // Growth is sparse: unmapped blocks read as zeros.
  node.size = new_size;
  node.mtime = clock_ ? clock_->now() : 0;
  put_inode(ino, node);
  note_mutation();
  return Status::Ok();
}

Status BaseFs::fsync(Ino ino) {
  charge_op();
  bug_site("basefs.op.dispatch", OpKind::kFsync, "", ino, 0, 0);
  // Join the epoch open right now and wait only for *its* durability:
  // concurrent fsyncs collapse into one group-commit transaction, and an
  // epoch opened after this call owes us nothing.
  return commit_upto(epoch_open_.load(std::memory_order_acquire),
                     /*force_checkpoint=*/false);
}

Status BaseFs::sync() {
  charge_op();
  bug_site("basefs.op.dispatch", OpKind::kSync, "", 0, 0, 0);
  return commit_upto(epoch_open_.load(std::memory_order_acquire),
                     /*force_checkpoint=*/false);
}

}  // namespace raefs
