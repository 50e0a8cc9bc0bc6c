// The microkernel-style filesystem server (paper §4.2): a BaseFs mounted
// inside its own process, serving operations over the pipe protocol. It
// is RaeSupervisor's forked base host (RaeOptions::fork_base).
//
// Faithful failure semantics: a bug (FsPanicError) KILLS THE PROCESS --
// the server exits without replying, the supervisor observes EOF on the
// pipe, and fault isolation is exactly what the paper says microkernels
// buy: "natural fault isolation and thus effortless delivery of a
// contained reboot".
#pragma once

#include "basefs/base_fs.h"
#include "blockdev/block_device.h"
#include "faults/bug_registry.h"

namespace raefs {
namespace ufs {

/// Exit codes the supervisor interprets.
inline constexpr int kServerExitClean = 0;
inline constexpr int kServerExitPanic = 42;
inline constexpr int kServerExitMountFailed = 43;

/// Run the server loop (never returns; calls _exit). The first response
/// on `resp_fd` reports the mount's status; after that `req_fd` delivers
/// frames and each op frame gets one response. `bugs` may be null.
[[noreturn]] void run_server(BlockDevice* dev, const BaseFsOptions& opts,
                             int req_fd, int resp_fd, BugRegistry* bugs);

}  // namespace ufs
}  // namespace raefs
