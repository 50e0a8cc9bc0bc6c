#include "basefs/base_apply.h"

#include "oplog/payload.h"

namespace raefs {

OpOutcome base_apply_op(BaseFs& fs, const OpRequest& req) {
  OpOutcome out;
  auto take_ino = [&](Result<Ino> r) {
    out.err = r.ok() ? Errno::kOk : r.error();
    if (r.ok()) out.assigned_ino = r.value();
  };
  switch (req.kind) {
    case OpKind::kLookup:
      take_ino(fs.lookup(req.path));
      break;
    case OpKind::kCreate:
      take_ino(fs.create(req.path, req.mode));
      break;
    case OpKind::kMkdir:
      take_ino(fs.mkdir(req.path, req.mode));
      break;
    case OpKind::kSymlink:
      take_ino(fs.symlink(req.path, req.path2));
      break;
    case OpKind::kUnlink:
      out.err = fs.unlink(req.path).error();
      break;
    case OpKind::kRmdir:
      out.err = fs.rmdir(req.path).error();
      break;
    case OpKind::kRename:
      out.err = fs.rename(req.path, req.path2).error();
      break;
    case OpKind::kLink:
      out.err = fs.link(req.path, req.path2).error();
      break;
    case OpKind::kReadlink: {
      auto r = fs.readlink(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.payload.assign(r.value().begin(), r.value().end());
      break;
    }
    case OpKind::kReaddir: {
      auto r = fs.readdir(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.payload = encode_dirents(r.value());
      break;
    }
    case OpKind::kStat: {
      auto r = req.path.empty() ? fs.stat_ino(req.ino) : fs.stat(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) {
        const StatResult& st = r.value();
        out.payload = encode_stat(StatPayload{st.ino, st.type, st.size,
                                              st.nlink, st.mode,
                                              st.generation});
      }
      break;
    }
    case OpKind::kRead: {
      auto r = fs.read(req.ino, req.gen, req.offset, req.len);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) {
        out.result_len = r.value().size();
        out.payload = std::move(r).value();
      }
      break;
    }
    case OpKind::kWrite: {
      auto r = fs.write(req.ino, req.gen, req.offset, req.data);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.result_len = r.value();
      break;
    }
    case OpKind::kTruncate:
      out.err = fs.truncate(req.ino, req.gen, req.len).error();
      break;
    case OpKind::kFsync:
      out.err = fs.fsync(req.ino).error();
      break;
    case OpKind::kSync:
      out.err = fs.sync().error();
      break;
  }
  return out;
}

}  // namespace raefs
