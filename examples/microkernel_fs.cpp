// The microkernel filesystem path (paper §4.2): with RaeOptions::fork_base
// the base filesystem runs as a separate OS process over shared-memory
// storage. A triggered bug kills that process for real -- and the
// application never notices, because the supervisor reaps the corpse,
// recovers through the same pipeline as the in-process base, and forks a
// fresh server.
//
//   $ ./microkernel_fs
#include <cstdio>
#include <string>

#include "faults/bug_library.h"
#include "obs/incident.h"
#include "rae/supervisor.h"
#include "ufs/shm_device.h"
#include "vfs/vfs.h"

using namespace raefs;

int main() {
  auto clock = make_clock();
  ShmBlockDevice device(16384);  // shared-memory "disk": outlives servers
  MkfsOptions mkfs;
  mkfs.total_blocks = 16384;
  mkfs.inode_count = 2048;
  if (!BaseFs::mkfs(&device, mkfs).ok()) return 1;

  // Arm the bug BEFORE the first server forks (it inherits the registry).
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));

  RaeOptions opts;
  opts.fork_base = true;
  auto sup = RaeSupervisor::start(&device, opts, clock, &bugs);
  if (!sup.ok()) return 1;
  Vfs<RaeSupervisor> vfs(sup.value().get());

  std::printf("-- filesystem server running as its own process --\n");
  (void)vfs.mkdir("/mail");
  auto fd = vfs.open("/mail/inbox", kRdWr | kCreate, 0644);
  std::string msg = "microkernels: fault isolation for free\n";
  (void)vfs.write(fd.value(),
                  std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(msg.data()),
                      msg.size()));
  std::printf("wrote %zu bytes over RPC\n\n", msg.size());

  std::string trigger = "/mail/" + std::string(54, 'x');
  auto tfd = vfs.open(trigger, kWrOnly | kCreate);
  (void)vfs.close(tfd.value());

  std::printf("-- unlinking the trigger: the SERVER PROCESS will die --\n");
  Status st = vfs.unlink(trigger);
  std::printf("unlink returned: %s\n\n", to_string(st.error()));

  const auto& stats = sup.value()->stats();
  std::printf("server deaths trapped:    %llu (a real process exit)\n",
              static_cast<unsigned long long>(stats.panics_trapped));
  std::printf("recoveries:               %llu\n",
              static_cast<unsigned long long>(stats.recoveries));
  std::printf("ops replayed by shadow:   %llu\n",
              static_cast<unsigned long long>(stats.ops_replayed_total));
  std::printf("recovery time:            %s (simulated)\n",
              format_nanos(stats.recovery_time.max()).c_str());
  auto incs = obs::incidents().snapshot();
  if (!incs.empty()) {
    std::printf("incident trigger:         %s: %s\n\n",
                incs.back().trigger_function.c_str(),
                incs.back().trigger_detail.c_str());
  }

  // The descriptor opened against the DEAD server still works: fds are
  // supervisor-owned essential state, and the store survived in shm.
  (void)vfs.seek(fd.value(), 0);
  auto back = vfs.read(fd.value(), 4096);
  std::printf("-- data served by the fresh process --\n%.*s",
              static_cast<int>(back.value().size()),
              reinterpret_cast<const char*>(back.value().data()));

  (void)sup.value()->shutdown();
  std::printf("\nclean shutdown. done.\n");
  return 0;
}
