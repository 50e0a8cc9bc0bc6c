#include "rae/crash_restart.h"

#include "basefs/base_apply.h"
#include "obs/flight_recorder.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {

CrashRestartSupervisor::CrashRestartSupervisor(MemBlockDevice* dev,
                                               const CrashRestartOptions& opts,
                                               SimClockPtr clock,
                                               BugRegistry* bugs)
    : dev_(dev), opts_(opts), clock_(std::move(clock)), bugs_(bugs) {}

Result<std::unique_ptr<CrashRestartSupervisor>> CrashRestartSupervisor::start(
    MemBlockDevice* dev, const CrashRestartOptions& opts, SimClockPtr clock,
    BugRegistry* bugs) {
  std::unique_ptr<CrashRestartSupervisor> sup(
      new CrashRestartSupervisor(dev, opts, std::move(clock), bugs));
  RAEFS_TRY_VOID(sup->mount_base());
  return sup;
}

Status CrashRestartSupervisor::mount_base() {
  RAEFS_TRY(base_, BaseFs::mount(dev_, opts_.base, clock_, bugs_, &warns_));
  base_->set_durable_callback([this](Seq seq) {
    if (seq > durable_) durable_ = seq;
  });
  issued_ = 0;
  durable_ = 0;
  return Status::Ok();
}

void CrashRestartSupervisor::machine_crash() {
  Nanos t0 = clock_ ? clock_->now() : 0;
  ++stats_.crashes;
  obs::flight().record(obs::Component::kRae, "machine_crash", "", t0,
                       stats_.crashes);
  obs::TraceSpan span(obs::kSpanCrashRestart, clock_.get());
  // Acked-but-unflushed updates die with the machine.
  stats_.lost_acked_ops += issued_ > durable_ ? issued_ - durable_ : 0;
  base_.reset();          // kernel memory gone
  dev_->crash();          // volatile device cache gone
  if (clock_) clock_->advance(opts_.machine_restart_cost);
  (void)mount_base();     // journal replay happens inside mount
  if (clock_) {
    Nanos dt = clock_->now() - t0;
    stats_.total_downtime += dt;
    stats_.restart_time.record(dt);
  }
}

Result<OpOutcome> CrashRestartSupervisor::run_op(OpRequest req) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_ || !base_) return Errno::kIo;
  const bool mutates = op_mutates(req.kind) || op_is_sync(req.kind);
  try {
    if (mutates) base_->set_current_op_seq(issued_ + 1);
    OpOutcome out = base_apply_op(*base_, req);
    if (mutates && out.err == Errno::kOk) ++issued_;
    return out;
  } catch (const FsPanicError&) {
    // The machine goes down; the application sees EIO for this op.
    ++stats_.app_visible_failures;
    machine_crash();
    return Errno::kIo;
  }
}

Status CrashRestartSupervisor::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_) return Errno::kInval;
  shutdown_ = true;
  if (!base_) return Status::Ok();
  return base_->unmount();
}

}  // namespace raefs
