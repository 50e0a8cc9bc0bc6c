#include "rae/op_facade.h"

#include "oplog/payload.h"

namespace raefs {
namespace {

// Unpack helpers: one per result type of the BaseFs API.

Status as_status(Result<OpOutcome> r) {
  if (!r.ok()) return r.error();
  return Status(r.value().err);
}

Result<OpOutcome> as_ok(Result<OpOutcome> r) {
  if (!r.ok()) return r.error();
  if (r.value().err != Errno::kOk) return r.value().err;
  return r;
}

Result<Ino> as_ino(Result<OpOutcome> r) {
  RAEFS_TRY(OpOutcome out, as_ok(std::move(r)));
  return out.assigned_ino;
}

Result<std::vector<uint8_t>> as_bytes(Result<OpOutcome> r) {
  RAEFS_TRY(OpOutcome out, as_ok(std::move(r)));
  return std::move(out.payload);
}

Result<StatResult> as_stat(Result<OpOutcome> r) {
  RAEFS_TRY(OpOutcome out, as_ok(std::move(r)));
  RAEFS_TRY(StatPayload st, decode_stat(out.payload));
  return StatResult{st.ino, st.type, st.size, st.nlink, st.mode,
                    st.generation};
}

OpRequest path_req(OpKind kind, std::string_view path,
                   std::string_view path2 = {}) {
  OpRequest req;
  req.kind = kind;
  req.path = std::string(path);
  req.path2 = std::string(path2);
  return req;
}

OpRequest ino_req(OpKind kind, Ino ino, uint64_t gen = 0) {
  OpRequest req;
  req.kind = kind;
  req.ino = ino;
  req.gen = gen;
  return req;
}

}  // namespace

Result<Ino> OpFacade::lookup(std::string_view path) {
  return as_ino(run_op(path_req(OpKind::kLookup, path)));
}

Result<Ino> OpFacade::create(std::string_view path, uint16_t mode) {
  OpRequest req = path_req(OpKind::kCreate, path);
  req.mode = mode;
  return as_ino(run_op(std::move(req)));
}

Result<Ino> OpFacade::mkdir(std::string_view path, uint16_t mode) {
  OpRequest req = path_req(OpKind::kMkdir, path);
  req.mode = mode;
  return as_ino(run_op(std::move(req)));
}

Status OpFacade::unlink(std::string_view path) {
  return as_status(run_op(path_req(OpKind::kUnlink, path)));
}

Status OpFacade::rmdir(std::string_view path) {
  return as_status(run_op(path_req(OpKind::kRmdir, path)));
}

Status OpFacade::rename(std::string_view src, std::string_view dst) {
  return as_status(run_op(path_req(OpKind::kRename, src, dst)));
}

Status OpFacade::link(std::string_view existing, std::string_view newpath) {
  return as_status(run_op(path_req(OpKind::kLink, existing, newpath)));
}

Result<Ino> OpFacade::symlink(std::string_view linkpath,
                              std::string_view target) {
  return as_ino(run_op(path_req(OpKind::kSymlink, linkpath, target)));
}

Result<std::string> OpFacade::readlink(std::string_view path) {
  RAEFS_TRY(auto bytes, as_bytes(run_op(path_req(OpKind::kReadlink, path))));
  return std::string(bytes.begin(), bytes.end());
}

Result<std::vector<DirEntry>> OpFacade::readdir(std::string_view path) {
  RAEFS_TRY(auto bytes, as_bytes(run_op(path_req(OpKind::kReaddir, path))));
  return decode_dirents(bytes);
}

Result<StatResult> OpFacade::stat(std::string_view path) {
  return as_stat(run_op(path_req(OpKind::kStat, path)));
}

Result<StatResult> OpFacade::stat_ino(Ino ino) {
  return as_stat(run_op(ino_req(OpKind::kStat, ino)));
}

Result<std::vector<uint8_t>> OpFacade::read(Ino ino, uint64_t gen, FileOff off,
                                            uint64_t len) {
  OpRequest req = ino_req(OpKind::kRead, ino, gen);
  req.offset = off;
  req.len = len;
  return as_bytes(run_op(std::move(req)));
}

Result<uint64_t> OpFacade::write(Ino ino, uint64_t gen, FileOff off,
                                 std::span<const uint8_t> data) {
  OpRequest req = ino_req(OpKind::kWrite, ino, gen);
  req.offset = off;
  req.data.assign(data.begin(), data.end());
  RAEFS_TRY(OpOutcome out, as_ok(run_op(std::move(req))));
  return out.result_len;
}

Status OpFacade::truncate(Ino ino, uint64_t gen, uint64_t new_size) {
  OpRequest req = ino_req(OpKind::kTruncate, ino, gen);
  req.len = new_size;
  return as_status(run_op(std::move(req)));
}

Status OpFacade::fsync(Ino ino) {
  return as_status(run_op(ino_req(OpKind::kFsync, ino)));
}

Status OpFacade::sync() {
  OpRequest req;
  req.kind = OpKind::kSync;
  return as_status(run_op(std::move(req)));
}

}  // namespace raefs
