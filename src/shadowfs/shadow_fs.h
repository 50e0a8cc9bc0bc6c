// ShadowFs -- the shadow filesystem (Figure 2, right; paper §2.3, §3.3).
//
// The simplest possible implementation that is *equivalent* to BaseFs:
//   - strictly single-threaded, no locks;
//   - no dentry cache: every path walk starts from the root inode and
//     scans directory entries;
//   - no inode or block caches: a plain overlay map holds only the blocks
//     modified during this recovery;
//   - synchronous reads directly from the device, through a read-only
//     view -- the shadow NEVER writes to the device. Its entire output is
//     the overlay (dirty-block set) handed back to the base;
//   - no journal, no crash-consistency logic: completed sync operations
//     are already on disk (they are the shadow's input) and incomplete
//     ones are re-issued by the rebooted base after hand-off.
//
// Robustness comes from extensive runtime checks (SHADOW_CHECK): in the
// real system these sit alongside formal verification; here they are the
// design-by-contract stand-in. A check failure throws ShadowCheckError:
// the shadow refuses to take an unchecked step (e.g. on a crafted image).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "basefs/base_fs.h"  // StatResult, InstallBlock, BlockClass
#include "blockdev/block_device.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/stats.h"
#include "format/dirent.h"
#include "format/inode.h"
#include "format/superblock.h"

namespace raefs {

/// How much checking the shadow performs (ablation knob for the
/// bench_shadow_checks experiment; production setting is kExtensive).
enum class ShadowCheckLevel : uint8_t {
  kNone = 0,   // decode CRCs only (unavoidable)
  kBasic,      // + structural validation of every decoded object
  kExtensive,  // + bitmap cross-checks on every allocation/read, image
               //   pre-validation at open, full output validation at seal
};

class ShadowFs {
 public:
  /// `dev` is wrapped in a ReadOnlyDevice internally: any write attempt is
  /// an invariant violation and throws.
  ShadowFs(BlockDevice* dev, ShadowCheckLevel checks,
           SimClockPtr clock = nullptr);

  /// Validate the superblock (and, at kExtensive, the whole allocation
  /// state) and load the geometry. Must be called before any operation.
  /// Throws ShadowCheckError on a corrupt/crafted image.
  void open();

  // --- operations (same semantics and error codes as BaseFs) ----------
  // create/mkdir/symlink take `forced_ino`: in constrained replay the
  // shadow validates and reuses the inode number the base assigned
  // (paper §3.2); kInvalidIno means autonomous policy (own first-fit).
  Result<Ino> lookup(std::string_view path);
  Result<Ino> create(std::string_view path, uint16_t mode, Nanos stamp,
                     Ino forced_ino = kInvalidIno);
  Result<Ino> mkdir(std::string_view path, uint16_t mode, Nanos stamp,
                    Ino forced_ino = kInvalidIno);
  Result<Ino> symlink(std::string_view linkpath, std::string_view target,
                      Nanos stamp, Ino forced_ino = kInvalidIno);
  Status unlink(std::string_view path, Nanos stamp);
  Status rmdir(std::string_view path, Nanos stamp);
  Status rename(std::string_view src, std::string_view dst, Nanos stamp);
  Status link(std::string_view existing, std::string_view newpath,
              Nanos stamp);
  Result<std::string> readlink(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path);
  Result<StatResult> stat(std::string_view path);
  Result<StatResult> stat_ino(Ino ino);
  Result<std::vector<uint8_t>> read(Ino ino, uint64_t gen, FileOff off,
                                    uint64_t len);
  Result<uint64_t> write(Ino ino, uint64_t gen, FileOff off,
                         std::span<const uint8_t> data, Nanos stamp);
  Status truncate(Ino ino, uint64_t gen, uint64_t new_size, Nanos stamp);

  /// Walk the whole directory tree from the root through the checked
  /// accessors: every dirent must name an allocated inode of the entry's
  /// type, and no directory may be reachable twice (a cycle or an illegal
  /// directory hard link). `visit`, if set, sees every entry with its
  /// path and inode. The extensive open runs this walk without a visitor;
  /// shadow_fsck runs it with one. Throws ShadowCheckError on a violation.
  using TreeVisitor = std::function<void(const std::string& path,
                                         const DirEntry& entry,
                                         const DiskInode& inode)>;
  void walk_tree(const TreeVisitor& visit = {});

  // --- output -----------------------------------------------------------
  /// Final validation (kExtensive) and the overlay as install-ready
  /// blocks: the complete effect of every executed operation.
  std::vector<InstallBlock> seal();

  uint64_t device_reads() const { return device_reads_; }
  uint64_t checks_performed() const { return checks_; }
  const Geometry& geometry() const { return geo_; }
  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t free_inodes() const { return free_inodes_; }

 private:
  friend class ShadowFsTestPeer;

  // -- checked block access ----------------------------------------------
  /// Read through the overlay; device reads are counted and validated.
  /// Returns by value: simplicity over speed, the shadow's explicit trade.
  std::vector<uint8_t> read_block(BlockNo block);
  /// Write into the overlay (never the device).
  void write_block(BlockNo block, std::vector<uint8_t> data, BlockClass cls);
  void modify_block(BlockNo block, BlockClass cls,
                    const std::function<void(std::span<uint8_t>)>& fn);

  void check(bool cond, const char* what);
  void check_extensive(bool cond, const char* what);
  Nanos block_access_cost() const;

  // -- checked object access ----------------------------------------------
  DiskInode get_inode(Ino ino);
  void put_inode(Ino ino, const DiskInode& inode);
  bool bitmap_get(BlockNo bitmap_start, uint64_t index);
  void bitmap_put(BlockNo bitmap_start, uint64_t index, bool value);

  // -- allocation (simple first-fit; policy may differ from the base) ----
  Result<Ino> alloc_inode(FileType type, uint16_t mode, Nanos stamp,
                          Ino forced_ino);
  void free_inode(Ino ino);
  Result<BlockNo> alloc_block(BlockClass cls);
  void free_block(BlockNo block);

  // -- structure helpers ---------------------------------------------------
  Result<BlockNo> map_block(DiskInode* inode, uint64_t file_block, bool alloc);
  Status free_file_blocks(DiskInode* inode, uint64_t keep_blocks);
  Result<Ino> resolve(std::string_view path);
  struct ParentRef {
    Ino parent;
    std::string leaf;
  };
  Result<ParentRef> resolve_parent(std::string_view path);
  Result<std::optional<DirEntry>> dir_find(const DiskInode& dir,
                                           std::string_view name);
  Status dir_insert(DiskInode* dir, const DirEntry& entry);
  Status dir_remove(DiskInode* dir, std::string_view name);
  Result<bool> dir_empty(const DiskInode& dir);
  Result<std::vector<DirEntry>> dir_entries(const DiskInode& dir);
  Result<Ino> create_common(std::string_view path, uint16_t mode,
                            FileType type, std::string_view symlink_target,
                            Nanos stamp, Ino forced_ino);

  void validate_image_extensive();
  void validate_overlay_extensive();

  ReadOnlyDevice rodev_;
  ShadowCheckLevel checks_level_;
  SimClockPtr clock_;
  Superblock sb_;
  Geometry geo_;
  bool opened_ = false;

  struct OverlayBlock {
    std::vector<uint8_t> data;
    BlockClass cls = BlockClass::kFileData;
  };
  std::map<BlockNo, OverlayBlock> overlay_;  // ordered: deterministic seal()

  uint64_t device_reads_ = 0;
  uint64_t checks_ = 0;
  uint64_t free_blocks_ = 0;  // tracked for extensive cross-checks
  uint64_t free_inodes_ = 0;
};

}  // namespace raefs
