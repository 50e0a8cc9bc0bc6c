// CrashRestartSupervisor -- the status-quo baseline the paper argues
// against (§1: "the best approach is simply to crash and recover from
// known on-disk state, and suffer the resulting loss of availability").
//
// On any trapped panic it simulates a machine crash: the device's volatile
// write cache is lost, the whole "OS" reboots (a large simulated cost),
// the journal is replayed, and the filesystem remounts. The in-flight
// operation fails with EIO, and every operation the application already
// saw succeed whose effects had not been flushed is silently lost --
// both are counted, for contrast with RAE's zero app-visible failures.
#pragma once

#include <memory>
#include <mutex>

#include "basefs/base_fs.h"
#include "blockdev/mem_device.h"
#include "common/stats.h"
#include "rae/op_facade.h"

namespace raefs {

struct CrashRestartOptions {
  BaseFsOptions base;
  /// Simulated cost of a full machine reboot + remount (OS boot, fsck,
  /// service restart). Orders of magnitude above a contained reboot.
  Nanos machine_restart_cost = 5 * kSecond;
};

struct CrashRestartStats {
  uint64_t crashes = 0;
  uint64_t app_visible_failures = 0;  // in-flight ops failed with EIO
  uint64_t lost_acked_ops = 0;        // acked ops whose effects vanished
  Nanos total_downtime = 0;
  LatencyHistogram restart_time;
};

class CrashRestartSupervisor final : public OpFacade {
 public:
  static Result<std::unique_ptr<CrashRestartSupervisor>> start(
      MemBlockDevice* dev, const CrashRestartOptions& opts, SimClockPtr clock,
      BugRegistry* bugs);

  // The application-facing API is OpFacade's (same shape as
  // RaeSupervisor).

  Status shutdown();

  const CrashRestartStats& stats() const { return stats_; }
  BaseFsStats base_stats() const { return base_ ? base_->stats() : BaseFsStats{}; }

 private:
  CrashRestartSupervisor(MemBlockDevice* dev, const CrashRestartOptions& opts,
                         SimClockPtr clock, BugRegistry* bugs);
  Status mount_base();
  void machine_crash();

  Result<OpOutcome> run_op(OpRequest req) override;

  MemBlockDevice* dev_;
  CrashRestartOptions opts_;
  SimClockPtr clock_;
  BugRegistry* bugs_;
  WarnSink warns_;  // WARNs are logged and ignored: stock kernel behaviour

  std::mutex mu_;
  std::unique_ptr<BaseFs> base_;
  CrashRestartStats stats_;
  Seq issued_ = 0;   // acked mutating ops since mount
  Seq durable_ = 0;  // of those, how many are on disk
  bool shutdown_ = false;
};

}  // namespace raefs
