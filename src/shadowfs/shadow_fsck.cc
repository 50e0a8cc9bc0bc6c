#include "shadowfs/shadow_fsck.h"

#include "common/panic.h"
#include "shadowfs/shadow_fs.h"

namespace raefs {

ShadowFsckReport shadow_fsck(BlockDevice* dev, SimClockPtr clock) {
  ShadowFsckReport report;
  ShadowFs fs(dev, ShadowCheckLevel::kExtensive, std::move(clock));
  try {
    // Superblock, full allocation state and the tree's structure.
    fs.open();
    // The same walk again, now reading every file's and symlink's
    // contents: touching every mapped block validates the pointer chains.
    report.inodes_walked = 1;  // the root
    fs.walk_tree([&](const std::string& path, const DirEntry& entry,
                     const DiskInode& inode) {
      ++report.entries_walked;
      ++report.inodes_walked;
      switch (entry.type) {
        case FileType::kDirectory:
          break;
        case FileType::kRegular:
          SHADOW_CHECK(fs.read(entry.ino, 0, 0, inode.size).ok(),
                       "file content unreadable");
          break;
        case FileType::kSymlink:
          SHADOW_CHECK(fs.readlink(path).ok(), "symlink target unreadable");
          break;
        default:
          SHADOW_CHECK(false, "unexpected entry type");
      }
    });
    report.ok = true;
  } catch (const ShadowCheckError& e) {
    report.ok = false;
    report.failure = e.what();
  }
  report.checks_performed = fs.checks_performed();
  report.device_reads = fs.device_reads();
  return report;
}

}  // namespace raefs
