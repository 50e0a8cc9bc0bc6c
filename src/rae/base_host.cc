#include "rae/base_host.h"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "basefs/base_apply.h"
#include "common/panic.h"
#include "ufs/shm_device.h"
#include "ufs/ufs_proto.h"
#include "ufs/ufs_server.h"

namespace raefs {

// ---------------------------------------------------------------------------
// in-process host
// ---------------------------------------------------------------------------

InProcessBaseHost::InProcessBaseHost(BlockDevice* dev,
                                     const BaseFsOptions& opts,
                                     SimClockPtr clock, BugRegistry* bugs,
                                     WarnSink* warns, Nanos reboot_cost,
                                     std::function<void(Seq)> on_durable)
    : dev_(dev),
      opts_(opts),
      clock_(std::move(clock)),
      bugs_(bugs),
      warns_(warns),
      reboot_cost_(reboot_cost),
      on_durable_(std::move(on_durable)) {}

Status InProcessBaseHost::boot() {
  RAEFS_TRY(base_, BaseFs::mount(dev_, opts_, clock_, bugs_, warns_));
  base_->set_durable_callback(on_durable_);
  return Status::Ok();
}

OpOutcome InProcessBaseHost::apply(const OpRequest& req, Seq seq) {
  if (seq != 0) base_->set_current_op_seq(seq);
  return base_apply_op(*base_, req);
}

Status InProcessBaseHost::download(const std::vector<InstallBlock>& blocks) {
  RAEFS_TRY_VOID(boot());
  return base_->install_blocks(blocks);
}

Status InProcessBaseHost::unmount() {
  return base_ ? base_->unmount() : Status::Ok();
}

BaseFsStats InProcessBaseHost::stats() const {
  return base_ ? base_->stats() : BaseFsStats{};
}

// ---------------------------------------------------------------------------
// forked host
// ---------------------------------------------------------------------------

namespace {

/// The trapped panic a server death stands for. The server's memory, and
/// with it the bug's own FaultSite, died with it; the exit status is what
/// survives.
FaultSite server_death_site(int status) {
  std::string detail;
  if (WIFEXITED(status) && WEXITSTATUS(status) == ufs::kServerExitPanic) {
    detail = "server panicked (exit " + std::to_string(WEXITSTATUS(status)) +
             ")";
  } else if (WIFEXITED(status)) {
    detail = "server exited with status " +
             std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    detail = "server killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    detail = "server lost";
  }
  return FaultSite{"ufs.server", std::move(detail), -1};
}

}  // namespace

ForkedBaseHost::ForkedBaseHost(ShmBlockDevice* dev, const BaseFsOptions& opts,
                               BugRegistry* bugs)
    : dev_(dev), opts_(opts), bugs_(bugs) {}

ForkedBaseHost::~ForkedBaseHost() { (void)reap(); }

Status ForkedBaseHost::boot() {
  int to_server[2];
  int from_server[2];
  if (::pipe(to_server) != 0) return Errno::kIo;
  if (::pipe(from_server) != 0) {
    ::close(to_server[0]);
    ::close(to_server[1]);
    return Errno::kIo;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {to_server[0], to_server[1], from_server[0], from_server[1]}) {
      ::close(fd);
    }
    return Errno::kIo;
  }
  if (pid == 0) {
    ::close(to_server[1]);
    ::close(from_server[0]);
    ufs::run_server(dev_, opts_, to_server[0], from_server[1], bugs_);
  }
  ::close(to_server[0]);
  ::close(from_server[1]);
  to_server_ = to_server[1];
  from_server_ = from_server[0];
  server_ = pid;

  std::vector<uint8_t> buf;
  Result<OpOutcome> ready = Errno::kIo;
  if (ufs::recv_message(from_server_, &buf)) ready = ufs::decode_response(buf);
  Status mounted = ready.ok() ? Status(ready.value().err) : ready.error();
  if (!mounted.ok()) (void)reap();
  return mounted;
}

int ForkedBaseHost::reap() {
  if (to_server_ >= 0) ::close(to_server_);
  if (from_server_ >= 0) ::close(from_server_);
  to_server_ = -1;
  from_server_ = -1;
  int status = 0;
  if (server_ > 0) {
    // A live server has nothing left to say once its pipes are closed;
    // the kill makes the wait prompt even if it is stuck.
    ::kill(server_, SIGKILL);
    (void)::waitpid(server_, &status, 0);
    server_ = -1;
  }
  return status;
}

OpOutcome ForkedBaseHost::apply(const OpRequest& req, Seq /*seq*/) {
  std::vector<uint8_t> buf;
  if (server_ > 0 &&
      ufs::send_message(to_server_, ufs::encode_frame(
                                        ufs::Frame{ufs::FrameKind::kOp, req})) &&
      ufs::recv_message(from_server_, &buf)) {
    auto out = ufs::decode_response(buf);
    if (out.ok()) return std::move(out).value();
  }
  // The server died executing this op (or spoke garbage, which is no
  // better): microkernel fault isolation, seen from outside.
  throw FsPanicError(server_death_site(reap()));
}

Status ForkedBaseHost::download(const std::vector<InstallBlock>& blocks) {
  // The supervisor owns the store the server runs on, so the shadow's
  // output goes straight in: no install transaction, no download RPC.
  for (const auto& ib : blocks) {
    RAEFS_TRY_VOID(dev_->write_block(ib.block, ib.data));
  }
  RAEFS_TRY_VOID(dev_->flush());
  return boot();
}

Status ForkedBaseHost::unmount() {
  if (server_ <= 0) return Status::Ok();
  ufs::Frame frame;
  frame.kind = ufs::FrameKind::kShutdown;
  Status result = Errno::kIo;
  std::vector<uint8_t> buf;
  if (ufs::send_message(to_server_, ufs::encode_frame(frame)) &&
      ufs::recv_message(from_server_, &buf)) {
    auto out = ufs::decode_response(buf);
    if (out.ok()) result = Status(out.value().err);
  }
  (void)reap();
  return result;
}

}  // namespace raefs
