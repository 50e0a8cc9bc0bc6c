// The op surface the workload drives, at three depths of the stack:
//   VfsTarget<RaeSupervisor>     -- what an application uses;
//   DirectTarget<RaeSupervisor>  -- the same calls, minus the Vfs layer;
//   DirectTarget<BaseFs>         -- the same calls, minus Vfs and RAE.
// DirectTarget issues exactly the filesystem calls Vfs<Fs> makes for each
// entry point, so driving one op stream through all three isolates the
// self time of each layer.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "basefs/base_fs.h"
#include "vfs/vfs.h"

namespace perfbench {

using raefs::Errno;
using raefs::Result;
using raefs::Status;

struct Handle {
  raefs::Fd fd = raefs::kInvalidFd;  // Vfs descriptor (VfsTarget only)
  raefs::Ino ino = raefs::kInvalidIno;
  uint64_t gen = 0;
};

class Target {
 public:
  virtual ~Target() = default;
  virtual Result<Handle> open(std::string_view path, bool create) = 0;
  virtual void close(const Handle&) {}
  virtual Result<std::vector<uint8_t>> pread(const Handle& h,
                                             raefs::FileOff off,
                                             uint64_t len) = 0;
  virtual Result<uint64_t> pwrite(const Handle& h, raefs::FileOff off,
                                  std::span<const uint8_t> data) = 0;
  virtual Status fsync(const Handle& h) = 0;
  virtual Status mkdir(std::string_view path) = 0;
  virtual Status unlink(std::string_view path) = 0;
  virtual Status rename(std::string_view src, std::string_view dst) = 0;
  virtual Result<std::vector<raefs::DirEntry>> readdir(
      std::string_view path) = 0;
  virtual Result<raefs::StatResult> stat(std::string_view path) = 0;
  virtual Status sync() = 0;
};

template <typename Fs>
class VfsTarget final : public Target {
 public:
  explicit VfsTarget(Fs* fs) : vfs_(fs) {}

  Result<Handle> open(std::string_view path, bool create) override {
    uint32_t flags = raefs::kRdWr | (create ? raefs::kCreate : 0u);
    auto fd = vfs_.open(path, flags);
    if (!fd.ok()) return fd.error();
    return Handle{fd.value(), raefs::kInvalidIno, 0};
  }
  void close(const Handle& h) override { (void)vfs_.close(h.fd); }
  Result<std::vector<uint8_t>> pread(const Handle& h, raefs::FileOff off,
                                     uint64_t len) override {
    return vfs_.pread(h.fd, off, len);
  }
  Result<uint64_t> pwrite(const Handle& h, raefs::FileOff off,
                          std::span<const uint8_t> data) override {
    return vfs_.pwrite(h.fd, off, data);
  }
  Status fsync(const Handle& h) override { return vfs_.fsync(h.fd); }
  Status mkdir(std::string_view path) override { return vfs_.mkdir(path); }
  Status unlink(std::string_view path) override { return vfs_.unlink(path); }
  Status rename(std::string_view src, std::string_view dst) override {
    return vfs_.rename(src, dst);
  }
  Result<std::vector<raefs::DirEntry>> readdir(
      std::string_view path) override {
    return vfs_.readdir(path);
  }
  Result<raefs::StatResult> stat(std::string_view path) override {
    return vfs_.stat(path);
  }
  Status sync() override { return vfs_.sync(); }

 private:
  raefs::Vfs<Fs> vfs_;
};

template <typename Fs>
class DirectTarget final : public Target {
 public:
  explicit DirectTarget(Fs* fs) : fs_(fs) {}

  // Vfs::open's call sequence for a regular, non-symlink file: lookup
  // (create on ENOENT), a type peek, then the stat that yields the
  // generation.
  Result<Handle> open(std::string_view path, bool create) override {
    auto looked = fs_->lookup(path);
    raefs::Ino ino = raefs::kInvalidIno;
    if (looked.ok()) {
      ino = looked.value();
    } else if (looked.error() == Errno::kNoEnt && create) {
      auto created = fs_->create(path, 0644);
      if (!created.ok()) return created.error();
      ino = created.value();
    } else {
      return looked.error();
    }
    auto peek = fs_->stat_ino(ino);
    if (!peek.ok()) return peek.error();
    auto st = fs_->stat_ino(ino);
    if (!st.ok()) return st.error();
    if (st.value().type != raefs::FileType::kRegular) return Errno::kInval;
    return Handle{raefs::kInvalidFd, ino, st.value().generation};
  }
  Result<std::vector<uint8_t>> pread(const Handle& h, raefs::FileOff off,
                                     uint64_t len) override {
    return fs_->read(h.ino, h.gen, off, len);
  }
  Result<uint64_t> pwrite(const Handle& h, raefs::FileOff off,
                          std::span<const uint8_t> data) override {
    return fs_->write(h.ino, h.gen, off, data);
  }
  Status fsync(const Handle& h) override { return fs_->fsync(h.ino); }
  Status mkdir(std::string_view path) override {
    auto r = fs_->mkdir(path, 0755);
    if (!r.ok()) return r.error();
    return Status::Ok();
  }
  Status unlink(std::string_view path) override { return fs_->unlink(path); }
  Status rename(std::string_view src, std::string_view dst) override {
    return fs_->rename(src, dst);
  }
  Result<std::vector<raefs::DirEntry>> readdir(
      std::string_view path) override {
    return fs_->readdir(path);
  }
  Result<raefs::StatResult> stat(std::string_view path) override {
    return fs_->stat(path);
  }
  Status sync() override { return fs_->sync(); }

 private:
  Fs* fs_;
};

}  // namespace perfbench
