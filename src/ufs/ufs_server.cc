#include "ufs/ufs_server.h"

#include <unistd.h>

#include "basefs/base_apply.h"
#include "ufs/ufs_proto.h"

namespace raefs {
namespace ufs {

void run_server(BlockDevice* dev, const BaseFsOptions& opts, int req_fd,
                int resp_fd, BugRegistry* bugs) {
  WarnSink warns;  // microkernel server: WARNs logged locally, ignored
  auto mounted = BaseFs::mount(dev, opts, nullptr, bugs, &warns);
  OpOutcome ready;
  ready.err = mounted.ok() ? Errno::kOk : mounted.error();
  if (!send_message(resp_fd, encode_response(ready)) || !mounted.ok()) {
    ::_exit(mounted.ok() ? kServerExitClean : kServerExitMountFailed);
  }
  auto& fs = *mounted.value();

  std::vector<uint8_t> buf;
  for (;;) {
    if (!recv_message(req_fd, &buf)) ::_exit(kServerExitClean);
    auto frame = decode_frame(buf);
    if (!frame.ok()) ::_exit(kServerExitClean);

    if (frame.value().kind == FrameKind::kShutdown) {
      OpOutcome out;
      out.err = fs.unmount().error();
      (void)send_message(resp_fd, encode_response(out));
      ::_exit(kServerExitClean);
    }

    OpOutcome out;
    try {
      out = base_apply_op(fs, frame.value().req);
    } catch (const FsPanicError&) {
      // The microkernel story: the bug kills THIS process and nothing
      // else. No reply -- the supervisor sees the pipe close.
      ::_exit(kServerExitPanic);
    }
    if (!send_message(resp_fd, encode_response(out))) {
      ::_exit(kServerExitClean);
    }
  }
}

}  // namespace ufs
}  // namespace raefs
