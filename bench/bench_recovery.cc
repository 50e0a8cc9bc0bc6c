// Recovery experiment (Figure 3 semantics + the §4.3 recovery-time
// question): inject a deterministic panic after K unsynced operations and
// measure RAE's recovery -- contained reboot + shadow replay of the K-op
// log + metadata download -- against the crash-restart baseline's full
// machine restart. Also reports how recovery time scales with the length
// of the operation log and with the volume of buffered write data.
#include <chrono>
#include <cstdio>

#include "bench/bench_support.h"
#include "faults/bug_library.h"
#include "rae/crash_restart.h"
#include "rae/supervisor.h"
#include "tests/support/fixtures.h"
#include "ufs/shm_device.h"

namespace raefs {
namespace {

using bench_support::make_rig;

/// A one-shot bug that fires at the Nth op dispatch after arming.
BugSpec fire_at_op(uint64_t op_index) {
  BugSpec spec;
  spec.id = 7000;
  spec.description = "bench: deterministic panic at op index";
  spec.consequence = BugConsequence::kCrash;
  spec.max_fires = 1;
  spec.trigger = [op_index](const BugContext& ctx) {
    return ctx.site == "basefs.op.dispatch" && ctx.op_index >= op_index;
  };
  return spec;
}

struct Row {
  uint64_t log_len;
  Nanos rae_recovery;
  uint64_t ops_replayed;
  uint64_t shadow_reads;
  Nanos crash_restart;
};

Row run_point(uint64_t log_len, uint64_t write_bytes) {
  Row row{};
  row.log_len = log_len;

  // --- RAE ---------------------------------------------------------------
  {
    auto rig = make_rig();
    BugRegistry bugs;
    auto sup = RaeSupervisor::start(rig.device.get(), {}, rig.clock, &bugs);
    if (!sup.ok()) std::abort();
    auto data = testing_support::pattern_bytes(write_bytes);
    for (uint64_t i = 0; i < log_len; ++i) {
      auto ino = sup.value()->create("/f" + std::to_string(i), 0644);
      if (!ino.ok()) std::abort();
      if (write_bytes > 0) {
        (void)sup.value()->write(ino.value(), 0, 0, data);
      }
    }
    // Arm the bug; the next op panics with the whole log unsynced.
    bugs.install(fire_at_op(0));
    if (!sup.value()->create("/trigger", 0644).ok()) std::abort();

    const auto& stats = sup.value()->stats();
    row.rae_recovery = stats.recovery_time.max();
    row.ops_replayed = stats.ops_replayed_total;
    (void)sup.value()->shutdown();
  }

  // --- crash-restart baseline ---------------------------------------------
  {
    auto rig = make_rig();
    BugRegistry bugs;
    auto sup =
        CrashRestartSupervisor::start(rig.device.get(), {}, rig.clock, &bugs);
    if (!sup.ok()) std::abort();
    auto data = testing_support::pattern_bytes(write_bytes);
    for (uint64_t i = 0; i < log_len; ++i) {
      auto ino = sup.value()->create("/f" + std::to_string(i), 0644);
      if (!ino.ok()) std::abort();
      if (write_bytes > 0) {
        (void)sup.value()->write(ino.value(), 0, 0, data);
      }
    }
    bugs.install(fire_at_op(0));
    (void)sup.value()->create("/trigger", 0644);  // EIO: machine crashed
    row.crash_restart = sup.value()->stats().restart_time.max();
    (void)sup.value()->shutdown();
  }
  return row;
}

}  // namespace
}  // namespace raefs

int main() {
  using namespace raefs;
  bench_support::print_header(
      "bench_recovery",
      "Figure 3 recovery semantics; §4.3 'time required for recovery'",
      "RAE recovery time grows linearly with the replayed log length and "
      "stays far below the crash-restart baseline's fixed machine-reboot "
      "cost; the baseline additionally loses the acked-unsynced ops that "
      "RAE reconstructs");

  std::printf("--- recovery time vs op-log length (no data writes) ---\n");
  std::printf("%10s %16s %14s %18s\n", "log_ops", "rae_recovery",
              "ops_replayed", "crash_restart");
  for (uint64_t log_len : {1u, 4u, 16u, 64u, 256u, 1024u}) {
    auto row = run_point(log_len, 0);
    std::printf("%10llu %16s %14llu %18s\n",
                static_cast<unsigned long long>(row.log_len),
                format_nanos(row.rae_recovery).c_str(),
                static_cast<unsigned long long>(row.ops_replayed),
                format_nanos(row.crash_restart).c_str());
  }

  std::printf("\n--- recovery time vs buffered data volume (64-op log) ---\n");
  std::printf("%14s %16s\n", "bytes_per_op", "rae_recovery");
  for (uint64_t bytes : {0u, 4096u, 16384u, 65536u}) {
    auto row = run_point(64, bytes);
    std::printf("%14llu %16s\n", static_cast<unsigned long long>(bytes),
                format_nanos(row.rae_recovery).c_str());
  }

  // --- recovery latency breakdown (Figure 3's phases) ---------------------
  // The pipeline's six phases are timed individually (RaeStats per-phase
  // fields, mirrored as the rae.recovery.*_ns metrics and the
  // rae.recovery.* trace spans -- docs/OBSERVABILITY.md). The reboot
  // phase's fixed contained-reboot cost dominates short logs; replay
  // grows with the log and overtakes it.
  std::printf("\n--- recovery latency breakdown by phase ---\n");
  std::printf("%8s %10s %10s %10s %10s %10s %10s %12s\n", "log_ops",
              "detect", "contain", "reboot", "replay", "download", "resume",
              "total");
  for (uint64_t log_len : {16u, 256u, 1024u}) {
    auto rig = make_rig();
    BugRegistry bugs;
    auto sup = RaeSupervisor::start(rig.device.get(), {}, rig.clock, &bugs);
    if (!sup.ok()) std::abort();
    for (uint64_t i = 0; i < log_len; ++i) {
      if (!sup.value()->create("/f" + std::to_string(i), 0644).ok()) {
        std::abort();
      }
    }
    bugs.install(fire_at_op(0));
    if (!sup.value()->create("/trigger", 0644).ok()) std::abort();
    const RaeStats& s = sup.value()->stats();
    std::printf("%8llu %10s %10s %10s %10s %10s %10s %12s\n",
                static_cast<unsigned long long>(log_len),
                format_nanos(s.detect_ns).c_str(),
                format_nanos(s.contain_ns).c_str(),
                format_nanos(s.reboot_ns).c_str(),
                format_nanos(s.replay_ns).c_str(),
                format_nanos(s.download_ns).c_str(),
                format_nanos(s.resume_ns).c_str(),
                format_nanos(s.total_downtime).c_str());
    (void)sup.value()->shutdown();
  }

  // --- executor ablation: in-process vs forked shadow --------------------
  // The paper's design runs the shadow as a separate userspace process
  // for fault isolation (§3.2). The process boundary costs real wall time
  // (fork + COW + pipe serialization); simulated recovery time is
  // identical because the same replay runs either way.
  std::printf("\n--- executor ablation: in-process vs fork (64-op log) ---\n");
  std::printf("%12s %16s %18s\n", "executor", "sim_recovery",
              "wall_us_per_recovery");
  for (bool use_fork : {false, true}) {
    auto rig = make_rig();
    BugRegistry bugs;
    RaeOptions opts;
    opts.fork_shadow = use_fork;
    auto sup = RaeSupervisor::start(rig.device.get(), opts, rig.clock, &bugs);
    if (!sup.ok()) std::abort();
    for (uint64_t i = 0; i < 64; ++i) {
      if (!sup.value()->create("/f" + std::to_string(i), 0644).ok()) {
        std::abort();
      }
    }
    bugs.install(fire_at_op(0));
    auto wall0 = std::chrono::steady_clock::now();
    if (!sup.value()->create("/trigger", 0644).ok()) std::abort();
    auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
    std::printf("%12s %16s %18lld\n", use_fork ? "fork" : "in-process",
                format_nanos(sup.value()->stats().recovery_time.max()).c_str(),
                static_cast<long long>(wall_us));
    (void)sup.value()->shutdown();
  }

  // --- §4.2: kernel path vs microkernel path ------------------------------
  // Same deterministic bug, same 64-op unsynced log, same RaeSupervisor
  // recovery pipeline; only the base host differs. Kernel path: the
  // supervisor destroys/rebuilds the in-process base and hands metadata
  // back through install_blocks. Microkernel path (fork_base): the bug
  // kills a real server process over shared-memory storage; contained
  // reboot is waitpid + fork and the supervisor writes the shadow's output
  // straight into the store it owns.
  std::printf("\n--- §4.2: kernel-path vs microkernel-path recovery ---\n");
  std::printf("%14s %16s %22s\n", "path", "sim_recovery",
              "wall_us_per_recovery");
  {
    // Kernel path (RaeSupervisor) -- reuse the 64-op point from above.
    auto rig = make_rig();
    BugRegistry bugs;
    auto sup = RaeSupervisor::start(rig.device.get(), {}, rig.clock, &bugs);
    if (!sup.ok()) std::abort();
    for (uint64_t i = 0; i < 64; ++i) {
      (void)sup.value()->create("/f" + std::to_string(i), 0644);
    }
    bugs.install(fire_at_op(0));
    auto wall0 = std::chrono::steady_clock::now();
    (void)sup.value()->create("/trigger", 0644);
    auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
    std::printf("%14s %16s %22lld\n", "kernel",
                format_nanos(sup.value()->stats().recovery_time.max()).c_str(),
                static_cast<long long>(wall_us));
    (void)sup.value()->shutdown();
  }
  {
    // Microkernel path (forked base host): a real process dies.
    auto clock = make_clock();
    ShmBlockDevice dev(32768);
    MkfsOptions mkfs;
    mkfs.total_blocks = 32768;
    mkfs.inode_count = 4096;
    mkfs.journal_blocks = 256;
    if (!BaseFs::mkfs(&dev, mkfs).ok()) std::abort();
    // The server process copies the registry at fork time, so the bug
    // must be armed BEFORE start: trigger on the 65th dispatched op.
    BugRegistry bugs;
    bugs.install(fire_at_op(64));
    RaeOptions opts;
    opts.fork_base = true;
    auto sup = RaeSupervisor::start(&dev, opts, clock, &bugs);
    if (!sup.ok()) std::abort();
    for (uint64_t i = 0; i < 64; ++i) {
      (void)sup.value()->create("/f" + std::to_string(i), 0644);
    }
    auto wall0 = std::chrono::steady_clock::now();
    (void)sup.value()->create("/trigger", 0644);
    auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
    std::printf("%14s %16s %22lld\n", "microkernel",
                format_nanos(sup.value()->stats().recovery_time.max()).c_str(),
                static_cast<long long>(wall_us));
    (void)sup.value()->shutdown();
  }

  // --- online scrub cost (§4.3 testing phase as a runtime feature) -------
  std::printf("\n--- online scrub cost vs op-log length ---\n");
  std::printf("%10s %16s %14s\n", "log_ops", "sim_scrub_time",
              "ops_cross_checked");
  for (uint64_t log_len : {16u, 64u, 256u}) {
    auto rig = make_rig();
    auto sup = RaeSupervisor::start(rig.device.get(), {}, rig.clock, nullptr);
    if (!sup.ok()) std::abort();
    for (uint64_t i = 0; i < log_len; ++i) {
      if (!sup.value()->create("/f" + std::to_string(i), 0644).ok()) {
        std::abort();
      }
    }
    Nanos t0 = rig.clock->now();
    auto scrubbed = sup.value()->scrub();
    Nanos dt = rig.clock->now() - t0;
    if (!scrubbed.ok() || !scrubbed.value().ok) std::abort();
    std::printf("%10llu %16s %14llu\n",
                static_cast<unsigned long long>(log_len),
                format_nanos(dt).c_str(),
                static_cast<unsigned long long>(
                    scrubbed.value().ops_replayed));
    (void)sup.value()->shutdown();
  }

  std::printf(
      "\nNote: the in-flight op that triggered the panic is completed by\n"
      "the shadow (autonomous mode) and its result delivered to the app --\n"
      "with RAE the application observes no failure at all, while the\n"
      "baseline returns EIO and silently loses the unsynced prefix.\n");
  return 0;
}
