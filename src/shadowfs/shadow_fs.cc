// ShadowFs core: checked block/object access, allocation, block mapping,
// open-time image validation and seal-time output validation.
#include "shadowfs/shadow_fs.h"

#include <cstring>
#include <deque>
#include <unordered_set>

#include "common/panic.h"

namespace raefs {

ShadowFs::ShadowFs(BlockDevice* dev, ShadowCheckLevel checks,
                   SimClockPtr clock)
    : rodev_(dev), checks_level_(checks), clock_(std::move(clock)) {}

void ShadowFs::check(bool cond, const char* what) {
  if (checks_level_ == ShadowCheckLevel::kNone) return;
  ++checks_;
  SHADOW_CHECK(cond, what);
}

void ShadowFs::check_extensive(bool cond, const char* what) {
  if (checks_level_ != ShadowCheckLevel::kExtensive) return;
  ++checks_;
  SHADOW_CHECK(cond, what);
}

// ---------------------------------------------------------------------------
// open / validation
// ---------------------------------------------------------------------------

void ShadowFs::open() {
  SHADOW_CHECK(!opened_, "ShadowFs::open called twice");
  std::vector<uint8_t> sb_block(kBlockSize);
  SHADOW_CHECK(rodev_.read_block(0, sb_block).ok(),
               "cannot read superblock");
  ++device_reads_;
  auto sb = Superblock::decode(sb_block);
  SHADOW_CHECK(sb.ok(), "superblock failed validation");
  sb_ = sb.value();
  auto geo = sb_.geometry();
  SHADOW_CHECK(geo.ok(), "superblock geometry inconsistent");
  geo_ = geo.value();
  SHADOW_CHECK(geo_.total_blocks <= rodev_.block_count(),
               "image larger than device");
  opened_ = true;

  if (checks_level_ == ShadowCheckLevel::kExtensive) {
    validate_image_extensive();
  } else {
    // Still need the free counters for allocation bookkeeping.
    free_blocks_ = 0;
    for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
      auto data = read_block(geo_.block_bitmap_start + i);
      uint64_t bits = std::min<uint64_t>(kBitsPerBlock,
                                         geo_.total_blocks - i * kBitsPerBlock);
      free_blocks_ += bits - ConstBitmapView(data, bits).count_set();
    }
    free_inodes_ = 0;
    for (uint64_t i = 0; i < geo_.inode_bitmap_blocks; ++i) {
      auto data = read_block(geo_.inode_bitmap_start + i);
      uint64_t bits = std::min<uint64_t>(kBitsPerBlock,
                                         geo_.inode_count - i * kBitsPerBlock);
      free_inodes_ += bits - ConstBitmapView(data, bits).count_set();
    }
  }
}

void ShadowFs::validate_image_extensive() {
  // A verified-FSCK stand-in (paper §4.3: the input image must be valid
  // for the shadow's liveness guarantee to hold). Checks:
  //  - metadata region blocks are marked allocated in the block bitmap;
  //  - every allocated inode decodes, validates, and its bit agrees;
  //  - the root inode is an allocated directory;
  //  - the directory tree is sound (walk_tree; file contents unread);
  //  - free counters are derived for later cross-checks.
  free_blocks_ = 0;
  for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
    auto data = read_block(geo_.block_bitmap_start + i);
    uint64_t base_bit = i * kBitsPerBlock;
    uint64_t bits = std::min<uint64_t>(kBitsPerBlock,
                                       geo_.total_blocks - base_bit);
    ConstBitmapView view(data, bits);
    for (uint64_t b = 0; b < bits; ++b) {
      bool set = view.test(b);
      if (base_bit + b < geo_.data_start) {
        check_extensive(set, "metadata block not marked allocated in bitmap");
      }
      if (!set) ++free_blocks_;
    }
  }

  free_inodes_ = 0;
  for (uint64_t i = 0; i < geo_.inode_bitmap_blocks; ++i) {
    auto data = read_block(geo_.inode_bitmap_start + i);
    uint64_t base_bit = i * kBitsPerBlock;
    uint64_t bits =
        std::min<uint64_t>(kBitsPerBlock, geo_.inode_count - base_bit);
    ConstBitmapView view(data, bits);
    for (uint64_t b = 0; b < bits; ++b) {
      Ino ino = base_bit + b + 1;
      bool allocated = view.test(b);
      if (!allocated) {
        ++free_inodes_;
        continue;
      }
      auto table = read_block(geo_.inode_block(ino));
      auto inode = inode_from_table_block(table, geo_.inode_slot(ino), geo_);
      check_extensive(inode.ok(), "allocated inode fails validation");
      check_extensive(inode.ok() && inode.value().in_use(),
                      "inode bitmap set but inode table slot free");
    }
  }

  auto root = get_inode(kRootIno);
  check_extensive(root.type == FileType::kDirectory,
                  "root inode is not a directory");
  walk_tree();
}

void ShadowFs::walk_tree(const TreeVisitor& visit) {
  // Breadth-first by inode number, so the walk costs one inode read per
  // entry plus the directory blocks -- no per-entry path resolution.
  std::deque<std::pair<std::string, Ino>> dirs;
  std::unordered_set<Ino> seen_dirs{kRootIno};
  dirs.emplace_back("/", kRootIno);
  while (!dirs.empty()) {
    auto [dir_path, dir_ino] = std::move(dirs.front());
    dirs.pop_front();
    auto entries = dir_entries(get_inode(dir_ino));
    SHADOW_CHECK(entries.ok(), "directory unreadable during walk");
    for (const DirEntry& entry : entries.value()) {
      std::string path = (dir_path == "/" ? "" : dir_path) + "/" + entry.name;
      // get_inode range-checks the number and refuses an in-use inode
      // whose bitmap bit is clear.
      DiskInode inode = get_inode(entry.ino);
      SHADOW_CHECK(inode.in_use(), "dirent references a free inode");
      SHADOW_CHECK(inode.type == entry.type,
                   "dirent type disagrees with inode");
      if (entry.type == FileType::kDirectory) {
        // A directory reachable twice is a cycle or an illegal hard link
        // -- and would loop the walk forever.
        SHADOW_CHECK(seen_dirs.insert(entry.ino).second,
                     "directory reachable via multiple paths");
        dirs.emplace_back(path, entry.ino);
      }
      if (visit) visit(path, entry, inode);
    }
  }
}

// ---------------------------------------------------------------------------
// block access
// ---------------------------------------------------------------------------

Nanos ShadowFs::block_access_cost() const {
  // The shadow keeps no decoded state: every block access re-decodes and
  // (per level) re-validates -- CRCs over 4 KiB, dirent/inode structural
  // checks, bitmap cross-checks. The base amortizes all of this through
  // its caches; the shadow pays it every time, by design.
  switch (checks_level_) {
    case ShadowCheckLevel::kNone: return 500;
    case ShadowCheckLevel::kBasic: return 1500;
    case ShadowCheckLevel::kExtensive: return 3000;
  }
  return 3000;
}

std::vector<uint8_t> ShadowFs::read_block(BlockNo block) {
  check(block < geo_.total_blocks || !opened_, "block number out of range");
  if (clock_) clock_->advance(block_access_cost());
  auto it = overlay_.find(block);
  if (it != overlay_.end()) return it->second.data;
  std::vector<uint8_t> data(kBlockSize);
  SHADOW_CHECK(rodev_.read_block(block, data).ok(), "device read failed");
  ++device_reads_;
  return data;
}

void ShadowFs::write_block(BlockNo block, std::vector<uint8_t> data,
                           BlockClass cls) {
  check(block < geo_.total_blocks, "write: block number out of range");
  check(data.size() == kBlockSize, "write: bad block size");
  check(block >= geo_.data_start || block < geo_.journal_start,
        "write: journal region is off-limits to the shadow");
  auto& slot = overlay_[block];
  slot.data = std::move(data);
  if (cls != BlockClass::kFileData) slot.cls = cls;
  if (clock_) clock_->advance(block_access_cost());
}

void ShadowFs::modify_block(BlockNo block, BlockClass cls,
                            const std::function<void(std::span<uint8_t>)>& fn) {
  auto data = read_block(block);
  fn(std::span<uint8_t>(data));
  write_block(block, std::move(data), cls);
}

// ---------------------------------------------------------------------------
// inodes & bitmaps
// ---------------------------------------------------------------------------

DiskInode ShadowFs::get_inode(Ino ino) {
  SHADOW_CHECK(geo_.ino_valid(ino), "inode number out of range");
  auto table = read_block(geo_.inode_block(ino));
  auto slot = std::span<const uint8_t>(table).subspan(
      geo_.inode_slot(ino) * kInodeSize, kInodeSize);
  Result<DiskInode> inode =
      checks_level_ == ShadowCheckLevel::kNone
          ? DiskInode::decode_raw(slot)
          : inode_from_table_block(table, geo_.inode_slot(ino), geo_);
  SHADOW_CHECK(inode.ok(), "on-disk inode failed validation");
  if (checks_level_ == ShadowCheckLevel::kExtensive && inode.value().in_use()) {
    check_extensive(bitmap_get(geo_.inode_bitmap_start, ino - 1),
                    "in-use inode not marked in inode bitmap");
  }
  return inode.value();
}

void ShadowFs::put_inode(Ino ino, const DiskInode& inode) {
  SHADOW_CHECK(geo_.ino_valid(ino), "inode number out of range");
  check(inode.validate(geo_).ok(), "refusing to write an invalid inode");
  modify_block(geo_.inode_block(ino), BlockClass::kFileData,
               [&](std::span<uint8_t> block) {
                 inode_into_table_block(block, geo_.inode_slot(ino), inode);
               });
}

bool ShadowFs::bitmap_get(BlockNo bitmap_start, uint64_t index) {
  auto data = read_block(bitmap_start + index / kBitsPerBlock);
  return ConstBitmapView(data, kBitsPerBlock).test(index % kBitsPerBlock);
}

void ShadowFs::bitmap_put(BlockNo bitmap_start, uint64_t index, bool value) {
  modify_block(bitmap_start + index / kBitsPerBlock, BlockClass::kFileData,
               [&](std::span<uint8_t> data) {
                 BitmapView view(data, kBitsPerBlock);
                 check(view.test(index % kBitsPerBlock) != value,
                       "bitmap bit already in target state");
                 if (value) {
                   view.set(index % kBitsPerBlock);
                 } else {
                   view.clear(index % kBitsPerBlock);
                 }
               });
}

// ---------------------------------------------------------------------------
// allocation (simple first-fit)
// ---------------------------------------------------------------------------

Result<Ino> ShadowFs::alloc_inode(FileType type, uint16_t mode, Nanos stamp,
                                  Ino forced_ino) {
  Ino ino = kInvalidIno;
  if (forced_ino != kInvalidIno) {
    // Constrained mode: validate the base's decision is usable (§3.2)
    // rather than allocating independently (which could diverge).
    SHADOW_CHECK(geo_.ino_valid(forced_ino),
                 "base-assigned inode number out of range");
    SHADOW_CHECK(!bitmap_get(geo_.inode_bitmap_start, forced_ino - 1),
                 "base-assigned inode number is not free");
    ino = forced_ino;
  } else {
    if (free_inodes_ == 0) return Errno::kNoSpace;
    // First-fit from index 0 (the simplest policy; it may differ from the
    // base's hint-based choice -- an allowed policy divergence, §3.3).
    for (uint64_t bm = 0; bm < geo_.inode_bitmap_blocks && ino == kInvalidIno;
         ++bm) {
      auto data = read_block(geo_.inode_bitmap_start + bm);
      uint64_t bits = std::min<uint64_t>(
          kBitsPerBlock, geo_.inode_count - bm * kBitsPerBlock);
      BitmapView view(data, bits);
      if (auto clear = view.find_clear()) {
        ino = bm * kBitsPerBlock + *clear + 1;
      }
    }
    if (ino == kInvalidIno) return Errno::kNoSpace;
  }

  auto old = get_inode(ino);
  check(!old.in_use(), "allocating an in-use inode");
  bitmap_put(geo_.inode_bitmap_start, ino - 1, true);
  --free_inodes_;

  DiskInode fresh;
  fresh.type = type;
  fresh.mode = mode;
  fresh.nlink = type == FileType::kDirectory ? 2 : 1;
  fresh.generation = old.generation + 1;
  fresh.atime = fresh.mtime = fresh.ctime = stamp;
  put_inode(ino, fresh);
  return ino;
}

void ShadowFs::free_inode(Ino ino) {
  auto inode = get_inode(ino);
  check(inode.in_use(), "freeing a free inode");
  DiskInode freed;
  freed.generation = inode.generation;
  put_inode(ino, freed);
  bitmap_put(geo_.inode_bitmap_start, ino - 1, false);
  ++free_inodes_;
}

Result<BlockNo> ShadowFs::alloc_block(BlockClass cls) {
  if (free_blocks_ == 0) return Errno::kNoSpace;
  // First-fit over the data region, scanning whole bitmap blocks.
  for (uint64_t bm = geo_.data_start / kBitsPerBlock;
       bm < geo_.block_bitmap_blocks; ++bm) {
    auto data = read_block(geo_.block_bitmap_start + bm);
    uint64_t base_bit = bm * kBitsPerBlock;
    uint64_t bits =
        std::min<uint64_t>(kBitsPerBlock, geo_.total_blocks - base_bit);
    BitmapView view(data, bits);
    uint64_t from = geo_.data_start > base_bit ? geo_.data_start - base_bit : 0;
    auto clear = view.find_clear(from);
    if (!clear || base_bit + *clear >= geo_.total_blocks) continue;
    BlockNo candidate = base_bit + *clear;
    bitmap_put(geo_.block_bitmap_start, candidate, true);
    --free_blocks_;
    write_block(candidate, std::vector<uint8_t>(kBlockSize, 0), cls);
    return candidate;
  }
  return Errno::kNoSpace;
}

void ShadowFs::free_block(BlockNo block) {
  check(geo_.is_data_block(block), "freeing a non-data block");
  check(bitmap_get(geo_.block_bitmap_start, block), "double free of block");
  bitmap_put(geo_.block_bitmap_start, block, false);
  ++free_blocks_;
  overlay_.erase(block);
}

// ---------------------------------------------------------------------------
// block mapping (mirrors BaseFs::map_block, without caches)
// ---------------------------------------------------------------------------

namespace {
uint64_t read_ptr(std::span<const uint8_t> block, uint32_t index) {
  uint64_t v = 0;
  std::memcpy(&v, block.data() + index * 8, sizeof(v));
  return v;
}
}  // namespace

Result<BlockNo> ShadowFs::map_block(DiskInode* inode, uint64_t file_block,
                                    bool alloc) {
  if (file_block >= kMaxFileBlocks) return Errno::kFBig;

  auto set_ptr = [&](BlockNo holder, uint32_t index, BlockNo value) {
    modify_block(holder, BlockClass::kIndirectMeta,
                 [&](std::span<uint8_t> blk) {
                   std::memcpy(blk.data() + index * 8, &value, sizeof(value));
                 });
  };
  auto check_ptr = [&](BlockNo b, const char* what) {
    check(b == 0 || geo_.is_data_block(b), what);
  };

  if (file_block < kNumDirect) {
    BlockNo b = inode->direct[file_block];
    check_ptr(b, "direct pointer outside data region");
    if (b == 0 && alloc) {
      RAEFS_TRY(b, alloc_block(BlockClass::kFileData));
      inode->direct[file_block] = b;
    }
    return b;
  }

  uint64_t rel = file_block - kNumDirect;
  if (rel < kPtrsPerBlock) {
    if (inode->indirect == 0) {
      if (!alloc) return BlockNo{0};
      RAEFS_TRY(BlockNo ib, alloc_block(BlockClass::kIndirectMeta));
      inode->indirect = ib;
    }
    check_ptr(inode->indirect, "indirect block outside data region");
    auto iblock = read_block(inode->indirect);
    BlockNo b = read_ptr(iblock, static_cast<uint32_t>(rel));
    check_ptr(b, "indirect pointer outside data region");
    if (b == 0 && alloc) {
      RAEFS_TRY(b, alloc_block(BlockClass::kFileData));
      set_ptr(inode->indirect, static_cast<uint32_t>(rel), b);
    }
    return b;
  }

  rel -= kPtrsPerBlock;
  uint64_t l1 = rel / kPtrsPerBlock;
  uint64_t l2 = rel % kPtrsPerBlock;
  if (inode->dindirect == 0) {
    if (!alloc) return BlockNo{0};
    RAEFS_TRY(BlockNo db, alloc_block(BlockClass::kIndirectMeta));
    inode->dindirect = db;
  }
  check_ptr(inode->dindirect, "double-indirect block outside data region");
  auto dblock = read_block(inode->dindirect);
  BlockNo l1_block = read_ptr(dblock, static_cast<uint32_t>(l1));
  check_ptr(l1_block, "double-indirect L1 pointer outside data region");
  if (l1_block == 0) {
    if (!alloc) return BlockNo{0};
    RAEFS_TRY(l1_block, alloc_block(BlockClass::kIndirectMeta));
    set_ptr(inode->dindirect, static_cast<uint32_t>(l1), l1_block);
  }
  auto l1_data = read_block(l1_block);
  BlockNo b = read_ptr(l1_data, static_cast<uint32_t>(l2));
  check_ptr(b, "double-indirect L2 pointer outside data region");
  if (b == 0 && alloc) {
    RAEFS_TRY(b, alloc_block(BlockClass::kFileData));
    set_ptr(l1_block, static_cast<uint32_t>(l2), b);
  }
  return b;
}

Status ShadowFs::free_file_blocks(DiskInode* inode, uint64_t keep_blocks) {
  for (uint64_t fb = keep_blocks; fb < kNumDirect; ++fb) {
    if (inode->direct[fb] != 0) {
      free_block(inode->direct[fb]);
      inode->direct[fb] = 0;
    }
  }

  if (inode->indirect != 0) {
    uint64_t first_kept =
        keep_blocks > kNumDirect ? keep_blocks - kNumDirect : 0;
    if (first_kept < kPtrsPerBlock) {
      auto iblock = read_block(inode->indirect);
      for (uint64_t i = first_kept; i < kPtrsPerBlock; ++i) {
        BlockNo b = read_ptr(iblock, static_cast<uint32_t>(i));
        if (b != 0) free_block(b);
      }
      if (first_kept == 0) {
        free_block(inode->indirect);
        inode->indirect = 0;
      } else {
        modify_block(inode->indirect, BlockClass::kIndirectMeta,
                     [&](std::span<uint8_t> blk) {
                       std::memset(blk.data() + first_kept * 8, 0,
                                   (kPtrsPerBlock - first_kept) * 8);
                     });
      }
    }
  }

  if (inode->dindirect != 0) {
    uint64_t base = kNumDirect + kPtrsPerBlock;
    uint64_t first_kept = keep_blocks > base ? keep_blocks - base : 0;
    if (first_kept < static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
      auto dblock = read_block(inode->dindirect);
      for (uint64_t l1 = 0; l1 < kPtrsPerBlock; ++l1) {
        BlockNo l1_block = read_ptr(dblock, static_cast<uint32_t>(l1));
        if (l1_block == 0) continue;
        uint64_t l1_first = l1 * kPtrsPerBlock;
        if (l1_first + kPtrsPerBlock <= first_kept) continue;
        uint64_t start = first_kept > l1_first ? first_kept - l1_first : 0;
        auto l1_data = read_block(l1_block);
        for (uint64_t i = start; i < kPtrsPerBlock; ++i) {
          BlockNo b = read_ptr(l1_data, static_cast<uint32_t>(i));
          if (b != 0) free_block(b);
        }
        if (start == 0) {
          free_block(l1_block);
          modify_block(inode->dindirect, BlockClass::kIndirectMeta,
                       [&](std::span<uint8_t> blk) {
                         uint64_t zero = 0;
                         std::memcpy(blk.data() + l1 * 8, &zero, sizeof(zero));
                       });
        } else {
          modify_block(l1_block, BlockClass::kIndirectMeta,
                       [&](std::span<uint8_t> blk) {
                         std::memset(blk.data() + start * 8, 0,
                                     (kPtrsPerBlock - start) * 8);
                       });
        }
      }
      if (first_kept == 0) {
        free_block(inode->dindirect);
        inode->dindirect = 0;
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// seal
// ---------------------------------------------------------------------------

std::vector<InstallBlock> ShadowFs::seal() {
  if (checks_level_ == ShadowCheckLevel::kExtensive) {
    validate_overlay_extensive();
  }
  SHADOW_CHECK(rodev_.refused_writes() == 0,
               "shadow attempted a device write");
  std::vector<InstallBlock> out;
  out.reserve(overlay_.size());
  for (auto& [block, ob] : overlay_) {
    InstallBlock ib;
    ib.block = block;
    ib.cls = ob.cls;
    ib.data = std::move(ob.data);
    out.push_back(std::move(ib));
  }
  overlay_.clear();
  return out;
}

void ShadowFs::validate_overlay_extensive() {
  for (const auto& [block, ob] : overlay_) {
    check_extensive(block < geo_.total_blocks, "overlay block out of range");
    check_extensive(
        block < geo_.journal_start ||
            block >= geo_.journal_start + geo_.journal_blocks,
        "overlay must not touch the journal region");
    if (block >= geo_.inode_table_start &&
        block < geo_.inode_table_start + geo_.inode_table_blocks) {
      for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
        auto inode = DiskInode::decode(
            std::span<const uint8_t>(ob.data).subspan(slot * kInodeSize,
                                                      kInodeSize),
            geo_);
        check_extensive(inode.ok(), "sealed inode-table block invalid");
      }
    } else if (ob.cls == BlockClass::kDirMeta) {
      check_extensive(dirent_scan_block(ob.data).ok(),
                      "sealed directory block invalid");
    } else if (ob.cls == BlockClass::kIndirectMeta) {
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t ptr = read_ptr(ob.data, i);
        check_extensive(ptr == 0 || geo_.is_data_block(ptr),
                        "sealed indirect block has wild pointer");
      }
    }
  }

  // Free counters must agree with the (possibly overlaid) bitmaps.
  uint64_t free_b = 0;
  for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
    auto data = read_block(geo_.block_bitmap_start + i);
    uint64_t bits = std::min<uint64_t>(kBitsPerBlock,
                                       geo_.total_blocks - i * kBitsPerBlock);
    free_b += bits - ConstBitmapView(data, bits).count_set();
  }
  check_extensive(free_b == free_blocks_,
                  "block free count diverged from bitmap");
}

}  // namespace raefs
