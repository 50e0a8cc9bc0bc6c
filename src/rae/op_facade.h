// OpFacade -- the application-facing API every supervisor exposes, in the
// shape of BaseFs's. Each call becomes one OpRequest handed to run_op();
// the OpOutcome that comes back -- from the base, or from the shadow's
// answer for an op the base failed on -- is unpacked into the typed result
// BaseFs returns. A supervisor therefore implements one function, not
// seventeen, and its recovery path answers through the same types as its
// common path.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "basefs/base_fs.h"  // StatResult
#include "oplog/op.h"

namespace raefs {

class OpFacade {
 public:
  virtual ~OpFacade() = default;

  Result<Ino> lookup(std::string_view path);
  Result<Ino> create(std::string_view path, uint16_t mode);
  Result<Ino> mkdir(std::string_view path, uint16_t mode);
  Status unlink(std::string_view path);
  Status rmdir(std::string_view path);
  Status rename(std::string_view src, std::string_view dst);
  Status link(std::string_view existing, std::string_view newpath);
  Result<Ino> symlink(std::string_view linkpath, std::string_view target);
  Result<std::string> readlink(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path);
  Result<StatResult> stat(std::string_view path);
  Result<StatResult> stat_ino(Ino ino);
  Result<std::vector<uint8_t>> read(Ino ino, uint64_t gen, FileOff off,
                                    uint64_t len);
  Result<uint64_t> write(Ino ino, uint64_t gen, FileOff off,
                         std::span<const uint8_t> data);
  Status truncate(Ino ino, uint64_t gen, uint64_t new_size);
  Status fsync(Ino ino);
  Status sync();

 protected:
  /// Execute one request. An error here (the supervisor is offline, or the
  /// op could not be answered) is returned to the caller as is; otherwise
  /// the outcome's own `err` is.
  virtual Result<OpOutcome> run_op(OpRequest req) = 0;
};

}  // namespace raefs
