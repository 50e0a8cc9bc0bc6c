#include "rae/supervisor.h"

#include <fstream>

#include "common/log.h"
#include "format/superblock.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "rae/state_compare.h"
#include "ufs/shm_device.h"

namespace raefs {
namespace {

/// Flight-recorder tail for an incident report: the last `limit` events,
/// formatted like FlightRecorder::dump lines (one string each).
std::vector<std::string> flight_tail_lines(size_t limit) {
  std::vector<obs::FlightEvent> events = obs::flight().snapshot();
  size_t begin = events.size() > limit ? events.size() - limit : 0;
  std::vector<std::string> out;
  out.reserve(events.size() - begin);
  for (size_t i = begin; i < events.size(); ++i) {
    const obs::FlightEvent& ev = events[i];
    std::string line = "t=" + format_nanos(ev.t) + " [" +
                       obs::to_string(ev.component) + "] " + ev.kind;
    if (ev.detail[0] != '\0') {
      line += " ";
      line += ev.detail;
    }
    if (ev.a != 0 || ev.b != 0 || ev.c != 0) {
      line += " a=" + std::to_string(ev.a) + " b=" + std::to_string(ev.b) +
              " c=" + std::to_string(ev.c);
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Persist the full incident log next to the image (best effort: a write
/// failure must never turn a successful recovery into an error).
void write_incidents_file(const std::string& path) {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    RAEFS_LOG_WARN("rae") << "cannot write incident file " << path;
    return;
  }
  f << obs::incidents().to_json();
}

}  // namespace

// ---------------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------------

RaeSupervisor::RaeSupervisor(BlockDevice* dev, const RaeOptions& opts,
                             SimClockPtr clock, BugRegistry* bugs)
    : dev_(dev),
      opts_(opts),
      clock_(std::move(clock)),
      bugs_(bugs),
      executor_(make_executor(opts.fork_shadow)) {}

Result<std::unique_ptr<RaeSupervisor>> RaeSupervisor::start(
    BlockDevice* dev, const RaeOptions& opts, SimClockPtr clock,
    BugRegistry* bugs) {
  auto* shm = dynamic_cast<ShmBlockDevice*>(dev);
  if (opts.fork_base && shm == nullptr) return Errno::kInval;
  std::vector<uint8_t> sb_block(kBlockSize);
  RAEFS_TRY_VOID(dev->read_block(0, sb_block));
  RAEFS_TRY(Superblock sb, Superblock::decode(sb_block));

  std::unique_ptr<RaeSupervisor> sup(
      new RaeSupervisor(dev, opts, std::move(clock), bugs));
  RAEFS_TRY(sup->geo_, sb.geometry());
  if (opts.fork_base) {
    sup->host_ = std::make_unique<ForkedBaseHost>(shm, opts.base, bugs);
  } else {
    OpLog* oplog = &sup->oplog_;
    sup->host_ = std::make_unique<InProcessBaseHost>(
        dev, opts.base, sup->clock_, bugs, &sup->warns_,
        opts.contained_reboot_cost,
        [oplog](Seq seq) { oplog->truncate_durable(seq); });
  }
  RAEFS_TRY_VOID(sup->host_->boot());
  RaeSupervisor* raw = sup.get();
  sup->obs_collector_ = obs::metrics().register_collector(
      [raw](obs::MetricsSink& sink) {
        const RaeStats& s = raw->stats_;
        sink.counter(obs::kMRaeRecoveries, s.recoveries);
        sink.counter(obs::kMRaeRecoveriesFailed, s.failed_recoveries);
        sink.counter(obs::kMRaePanicsTrapped, s.panics_trapped);
        sink.counter(obs::kMRaeWarnRecoveries, s.warn_recoveries);
        sink.counter(obs::kMRaeShadowRetries, s.shadow_retries);
        sink.counter(obs::kMRaeOpsReplayed, s.ops_replayed_total);
        sink.counter(obs::kMRaeDiscrepancies, s.discrepancies_total);
        sink.counter(obs::kMRaeScrubs, s.scrubs);
        sink.counter(obs::kMRaeScrubDiscrepancies, s.scrub_discrepancies);
        sink.counter(obs::kMRaeForcedSyncs, s.forced_syncs);
        sink.counter(obs::kMRaeDownloadRetries, s.download_retries);
        sink.counter(obs::kMRaeDowntimeNs, s.total_downtime);
        sink.counter(obs::kMRaeRecoveryDetectNs, s.detect_ns);
        sink.counter(obs::kMRaeRecoveryContainNs, s.contain_ns);
        sink.counter(obs::kMRaeRecoveryRebootNs, s.reboot_ns);
        sink.counter(obs::kMRaeRecoveryReplayNs, s.replay_ns);
        sink.counter(obs::kMRaeRecoveryDownloadNs, s.download_ns);
        sink.counter(obs::kMRaeRecoveryVerifyNs, s.verify_ns);
        sink.counter(obs::kMRaeRecoveryResumeNs, s.resume_ns);
        sink.histogram(obs::kMRaeRecoveryTimeNs, s.recovery_time);
        OpLogStats ol = raw->oplog_stats();
        sink.gauge(obs::kMRaeOplogLiveRecords,
                   static_cast<int64_t>(ol.live_records));
        sink.gauge(obs::kMRaeOplogLiveBytes,
                   static_cast<int64_t>(ol.live_bytes));
      });
  return sup;
}

RaeSupervisor::~RaeSupervisor() = default;

Status RaeSupervisor::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_) return Errno::kInval;
  shutdown_ = true;
  if (offline_) return Status::Ok();
  return host_->unmount();
}

BaseFsStats RaeSupervisor::base_stats() const { return host_->stats(); }

Result<ShadowOutcome> RaeSupervisor::scrub(bool deep) {
  // The lock is held throughout: the snapshot, the op-log capture, and
  // (for deep mode) the comparison against the live base must all see one
  // consistent moment. Shallow scrubs are short; deep scrubs block
  // operations for the duration -- a maintenance trade-off.
  obs::OpScope op;
  std::unique_lock<std::mutex> lk(mu_);
  op_done_cv_.wait(lk, [&] {
    return ops_queued_.load() == 0 || ops_done_ != ops_done_at_scrub_;
  });
  ops_done_at_scrub_ = ops_done_;
  if (offline_ || shutdown_) return Errno::kIo;
  auto* capable = dynamic_cast<SnapshotCapable*>(dev_);
  if (capable == nullptr || (deep && host_->local() == nullptr)) {
    return Errno::kNotSup;
  }
  obs::TraceSpan span(obs::kSpanScrub, clock_.get());
  std::unique_ptr<BlockDevice> snap = capable->snapshot();
  std::vector<OpRecord> log = oplog_.snapshot();

  if (!Journal::replay(snap.get(), geo_).ok()) return Errno::kIo;
  ShadowOutcome outcome =
      executor_->execute(snap.get(), log, opts_.shadow, clock_);

  if (outcome.ok && deep) {
    // Materialize the shadow's reconstruction on the scratch snapshot and
    // compare ESSENTIAL STATE (content included) against the live base:
    // catches silent data corruption nothing else can see.
    bool applied = true;
    for (const auto& ib : outcome.dirty) {
      if (!snap->write_block(ib.block, ib.data).ok()) applied = false;
    }
    if (applied && snap->flush().ok()) {
      auto reference = BaseFs::mount(snap.get(), BaseFsOptions{});
      if (reference.ok()) {
        auto diff = state_compare::diff_essential_state(*reference.value(),
                                                        *host_->local());
        if (!diff.empty()) {
          outcome.discrepancies.push_back(
              Discrepancy{0, "deep-scrub state divergence:\n" + diff});
        }
      }
    }
  }

  for (const auto& d : outcome.discrepancies) {
    RAEFS_LOG_WARN("rae") << "scrub discrepancy: " << d.description;
  }
  ++stats_.scrubs;
  stats_.scrub_discrepancies += outcome.discrepancies.size();
  obs::flight().record(obs::Component::kRae, "scrub", deep ? "deep" : "shallow",
                       clock_ ? clock_->now() : 0, outcome.ops_replayed,
                       outcome.discrepancies.size());
  return outcome;
}

// ---------------------------------------------------------------------------
// recovery pipeline
// ---------------------------------------------------------------------------

Result<ShadowOutcome> RaeSupervisor::recover(const FaultSite& site,
                                             Seq inflight_seq) {
  Nanos t0 = clock_ ? clock_->now() : 0;
  ++stats_.recoveries;
  RAEFS_LOG_INFO("rae") << "recovery triggered by " << site.function << ": "
                        << site.detail;
  obs::flight().record(obs::Component::kRae, "recover.begin", site.function,
                       t0, stats_.recoveries);
  obs::TraceSpan rspan(obs::kSpanRecovery, clock_.get());

  // One forensic artifact per recovery. The flight tail is captured NOW,
  // before the pipeline's own events: the interesting history is what led
  // up to the trip.
  obs::Incident inc;
  inc.t_begin = t0;
  inc.bug_id = site.bug_id;
  inc.trigger_function = site.function;
  inc.trigger_detail = site.detail;
  inc.failed_op_seq = inflight_seq;
  inc.op_id = obs::tls_op_context().op_id;
  inc.tid = static_cast<uint32_t>(this_thread_log_id());
  inc.flight_tail = flight_tail_lines(16);

  auto now = [&]() -> Nanos { return clock_ ? clock_->now() : 0; };
  auto charge_phase = [&] {
    if (clock_ && opts_.phase_bookkeeping_cost) {
      clock_->advance(opts_.phase_bookkeeping_cost);
    }
  };
  // Each phase is one scoped span (child of the recovery span), its
  // duration accumulated into the RaeStats per-phase fields -- which the
  // collector exports as the rae.recovery.*_ns counters (accumulating
  // them here as owned counters too would double-count in snapshots) --
  // and into this recovery's incident report.
  Nanos phase_begin = t0;
  auto end_phase = [&](Nanos RaeStats::*field, Nanos obs::Incident::*ifield) {
    Nanos d = now() - phase_begin;
    stats_.*field += d;
    inc.*ifield += d;
    phase_begin = now();
  };

  auto file_incident = [&] {
    inc.t_end = now();
    inc.forced_syncs = stats_.forced_syncs;
    obs::incidents().append(inc);
    write_incidents_file(opts_.incident_path);
  };

  auto fail = [&](std::string why) -> Errno {
    ++stats_.failed_recoveries;
    stats_.last_failure = std::move(why);
    offline_ = true;
    if (clock_) {
      Nanos dt = clock_->now() - t0;
      stats_.total_downtime += dt;
      inc.downtime_ns = dt;
    }
    RAEFS_LOG_ERROR("rae") << "recovery FAILED, filesystem offline: "
                           << stats_.last_failure;
    obs::flight().record(obs::Component::kRae, "recover.fail",
                         stats_.last_failure, now());
    obs::flight().dump_now("recovery failed: " + stats_.last_failure);
    inc.ok = false;
    inc.failure = stats_.last_failure;
    file_incident();
    return Errno::kCorrupt;
  };

  // Detect: the error has been trapped; classify and account for it
  // before touching any state.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryDetect, clock_.get(), rspan.id());
    charge_phase();
  }
  end_phase(&RaeStats::detect_ns, &obs::Incident::detect_ns);

  // Contain: discard every byte of the base's in-memory state -- all of
  // it is untrusted after the error. In process that is destroying the
  // BaseFs; on the forked host the server is already dead and is reaped.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryContain, clock_.get(), rspan.id());
    host_->contain();
    charge_phase();
  }
  end_phase(&RaeStats::contain_ns, &obs::Incident::contain_ns);

  // Every phase's IO runs at the base's queue depth.
  const uint32_t workers = static_cast<uint32_t>(opts_.base.async_workers);
  inc.workers = workers;

  // Reboot: pay the contained-reboot cost and reach the trusted on-disk
  // state S0 via journal replay. S0 is marked clean, so the download's
  // fresh base mounts it without scanning the journal a second time.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryReboot, clock_.get(), rspan.id());
    if (clock_) clock_->advance(host_->reboot_cost());
    obs::TraceSpan js(obs::kSpanJournalReplay, clock_.get(), ps.id());
    // Replay and the clean mark are idempotent; a transient device error
    // vanishes on a re-run, so don't take the filesystem offline for one
    // EIO.
    Status rebooted = BaseFs::reboot_image(dev_, workers);
    for (uint32_t attempt = 0;
         !rebooted.ok() && attempt < opts_.recovery_io_retries; ++attempt) {
      ++stats_.recovery_io_retries;
      RAEFS_LOG_WARN("rae") << "journal replay attempt " << attempt + 1
                            << " failed; retrying";
      rebooted = BaseFs::reboot_image(dev_, workers);
    }
    js.end();
    if (!rebooted.ok()) {
      end_phase(&RaeStats::reboot_ns, &obs::Incident::reboot_ns);
      return fail("journal replay failed");
    }
  }
  end_phase(&RaeStats::reboot_ns, &obs::Incident::reboot_ns);

  // Replay: run the shadow over the recorded operation sequence. A
  // refusal is retried a configurable number of times: transient device
  // faults during replay vanish on retry, while genuine image corruption
  // refuses identically every attempt (§3.1 fault model).
  auto log = oplog_.snapshot();
  ShadowOutcome outcome;
  {
    obs::TraceSpan ps(obs::kSpanRecoveryReplay, clock_.get(), rspan.id());
    for (uint32_t attempt = 0; attempt <= opts_.shadow_retries; ++attempt) {
      if (attempt > 0) {
        ++stats_.shadow_retries;
        ++inc.shadow_retries;
      }
      outcome = executor_->execute(dev_, log, opts_.shadow, clock_);
      if (outcome.ok) break;
      RAEFS_LOG_WARN("rae") << "shadow attempt " << attempt + 1
                            << " refused: " << outcome.failure;
    }
    charge_phase();
  }
  stats_.ops_replayed_total += outcome.ops_replayed;
  stats_.discrepancies_total += outcome.discrepancies.size();
  inc.ops_replayed = outcome.ops_replayed;
  inc.discrepancies = outcome.discrepancies.size();
  for (const auto& d : outcome.discrepancies) {
    RAEFS_LOG_WARN("rae") << "shadow discrepancy: " << d.description;
  }
  end_phase(&RaeStats::replay_ns, &obs::Incident::replay_ns);
  if (!outcome.ok) return fail("shadow refused: " + outcome.failure);

  // Download: boot a fresh base holding the shadow's output (hand-off).
  // In process, a freshly mounted base installs it as one journaled
  // transaction; on the forked host the blocks are written straight into
  // the shared store and a fresh server is forked over it.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryDownload, clock_.get(), rspan.id());
    // The download is idempotent (it installs the same shadow blocks), so
    // a transient IO error mid-install is survivable: replay the journal
    // to clear any torn install transaction, reboot, and install again.
    // A base panic is NOT retried -- the shadow output deterministically
    // trips an invariant and would panic identically every attempt.
    Status downloaded = Errno::kIo;
    for (uint32_t attempt = 0; attempt <= opts_.recovery_io_retries;
         ++attempt) {
      // Each attempt gets its own child span so a trace of a flaky device
      // shows every re-run (and what it cost), not one opaque phase.
      obs::TraceSpan as(obs::kSpanRecoveryDownloadAttempt, clock_.get(),
                        ps.id());
      if (attempt > 0) {
        ++stats_.recovery_io_retries;
        ++stats_.download_retries;
        ++inc.download_retries;
        RAEFS_LOG_WARN("rae")
            << "metadata download attempt " << attempt
            << " failed; replaying journal and retrying";
        host_->contain();
        if (!BaseFs::reboot_image(dev_, workers).ok()) continue;
      }
      try {
        downloaded = host_->download(outcome.dirty);
      } catch (const FsPanicError& e) {
        end_phase(&RaeStats::download_ns, &obs::Incident::download_ns);
        return fail(std::string("base panicked absorbing shadow output: ") +
                    e.what());
      }
      if (downloaded.ok()) break;
    }
    if (!downloaded.ok()) {
      end_phase(&RaeStats::download_ns, &obs::Incident::download_ns);
      return fail("metadata download failed");
    }
    charge_phase();
  }
  end_phase(&RaeStats::download_ns, &obs::Incident::download_ns);

  // Verify (optional): prove the recovered on-disk state is consistent
  // before re-admitting operations. The check runs on a journal-replayed
  // snapshot -- the state a crash right now would recover to -- so the
  // live base and journal stay untouched. A fatal fsck finding means the
  // recovery produced a state the checker rejects: going offline beats
  // resuming on it.
  if (opts_.verify_after_recovery) {
    obs::TraceSpan ps(obs::kSpanRecoveryVerify, clock_.get(), rspan.id());
    auto* capable = dynamic_cast<SnapshotCapable*>(dev_);
    if (capable == nullptr) {
      obs::flight().record(obs::Component::kRae, "verify.skipped",
                           "device not snapshot-capable", now());
    } else {
      std::unique_ptr<BlockDevice> snap = capable->snapshot();
      auto replayed = Journal::replay(snap.get(), geo_, workers);
      if (!replayed.ok()) {
        end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);
        return fail("post-recovery verify: journal replay on snapshot "
                    "failed");
      }
      FsckOptions fo;
      fo.level = FsckLevel::kStrict;
      fo.workers = workers;
      auto report = fsck(snap.get(), fo);
      if (!report.ok()) {
        end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);
        return fail("post-recovery verify: fsck errored");
      }
      if (!report.value().consistent()) {
        end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);
        return fail("post-recovery verify: fsck found fatal "
                    "inconsistencies: " +
                    report.value().summary());
      }
      obs::flight().record(obs::Component::kRae, "verify.ok", "", now(),
                           report.value().inodes_in_use,
                           report.value().blocks_claimed);
    }
    charge_phase();
  }
  end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);

  // Resume: close the gap and re-admit operations.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryResume, clock_.get(), rspan.id());
    // The recovered state is durable; the gap is closed.
    oplog_.clear();
    warns_.clear();

    // Re-issue any in-flight sync (paper §3.3).
    if (!outcome.inflight_retry_syncs.empty()) {
      Status synced = retry_sync_after_recovery();
      if (!synced.ok()) {
        end_phase(&RaeStats::resume_ns, &obs::Incident::resume_ns);
        return fail("post-recovery sync retry failed");
      }
    }
    charge_phase();
  }
  end_phase(&RaeStats::resume_ns, &obs::Incident::resume_ns);

  if (clock_) {
    Nanos dt = clock_->now() - t0;
    stats_.total_downtime += dt;
    stats_.recovery_time.record(dt);
    inc.downtime_ns = dt;
  }
  obs::flight().record(obs::Component::kRae, "recover.end", site.function,
                       now(), outcome.ops_replayed,
                       outcome.discrepancies.size());
  obs::flight().dump_now("recovery completed");
  inc.ok = true;
  file_incident();
  return outcome;
}

Status RaeSupervisor::retry_sync_after_recovery() {
  OpRequest sync;
  sync.kind = OpKind::kSync;
  try {
    return Status(host_->apply(sync, 0).err);
  } catch (const FsPanicError& e) {
    ++stats_.panics_trapped;
    // One nested recovery (the op log is empty now), then a final retry.
    auto rec = recover(e.site(), 0);
    if (!rec.ok()) return Errno::kIo;
    try {
      return Status(host_->apply(sync, 0).err);
    } catch (const FsPanicError& e2) {
      stats_.last_failure =
          std::string("sync re-panicked after recovery: ") + e2.what();
      offline_ = true;
      return Errno::kIo;
    }
  }
}

void RaeSupervisor::maybe_recover_for_warns() {
  if (opts_.warn_policy == RaeOptions::WarnPolicy::kIgnore) return;
  uint64_t count = warns_.count();
  if (count == 0) return;
  bool trigger =
      opts_.warn_policy == RaeOptions::WarnPolicy::kRecoverImmediately ||
      count >= opts_.warn_threshold;
  if (!trigger) return;
  ++stats_.warn_recoveries;
  auto events = warns_.events();
  FaultSite site = events.empty() ? FaultSite{"warn", "escalation", -1}
                                  : events.back().site;
  obs::flight().record(obs::Component::kRae, "warn_escalation", site.function,
                       clock_ ? clock_->now() : 0, count);
  (void)recover(site, 0);
}

// ---------------------------------------------------------------------------
// operation plumbing
// ---------------------------------------------------------------------------

Result<OpOutcome> RaeSupervisor::run_op(OpRequest req) {
  // Operation boundary when the supervisor is driven directly (tests,
  // workloads); under a Vfs the scope inherits the id minted above, so
  // one application call stays one operation.
  obs::OpScope op;
  ++ops_queued_;
  std::lock_guard<std::mutex> lk(mu_);
  --ops_queued_;
  // Runs before lk unlocks, on every return path.
  struct DoneSignal {
    RaeSupervisor* sup;
    ~DoneSignal() {
      ++sup->ops_done_;
      sup->op_done_cv_.notify_all();
    }
  } done{this};
  if (offline_ || shutdown_) return Errno::kIo;
  const OpKind kind = req.kind;
  // Mutations and syncs are recorded; reads widen no app/disk gap.
  const bool recorded = op_mutates(kind) || op_is_sync(kind);
  req.stamp = clock_ ? clock_->now() : 0;
  auto note = [&] {
    obs::flight().record(obs::Component::kRae, to_string(kind), req.path,
                         req.stamp, req.ino, static_cast<uint64_t>(req.offset),
                         req.data.empty() ? req.len : req.data.size());
  };
  Seq seq = 0;
  // The request the base executes: the caller's, or for a recorded op the
  // log's own copy (the request is moved in, so its payload is not copied
  // a second time; the log keeps an in-flight record in place).
  const OpRequest* exec = &req;
  if (recorded) {
    if (clock_) {
      // Recording cost: allocate the record + copy the write payload. Tiny
      // next to device IO, but honestly accounted (bench_recording_overhead
      // measures exactly this).
      clock_->advance(100 + static_cast<Nanos>(req.data.size()) / 8);
    }
    note();
    const OpRecord& rec = oplog_.append_started(std::move(req));
    seq = rec.seq;
    exec = &rec.req;
  }
  try {
    OpOutcome out = host_->apply(*exec, seq);
    if (recorded) {
      oplog_.complete(seq, out);
      if (op_is_sync(kind) && out.err == Errno::kOk) {
        // A successful sync made everything before it durable, including
        // records the durable callback's watermark missed (its own seq).
        oplog_.truncate_durable(seq);
      } else if (opts_.max_oplog_bytes > 0 &&
                 oplog_.stats().live_bytes > opts_.max_oplog_bytes) {
        // Bound recording memory: force the gap closed (the app never
        // asked for this sync, so its failure is not the app's problem --
        // a panic here flows through the normal recovery path).
        ++stats_.forced_syncs;
        OpRequest sync;
        sync.kind = OpKind::kSync;
        try {
          if (host_->apply(sync, 0).err == Errno::kOk) {
            oplog_.truncate_durable(seq);
          }
        } catch (const FsPanicError& e) {
          ++stats_.panics_trapped;
          (void)recover(e.site(), 0);
        }
      }
    }
    maybe_recover_for_warns();
    return out;
  } catch (const FsPanicError& e) {
    ++stats_.panics_trapped;
    if (!recorded) {
      // A read tripped the error. Give the shadow a synthetic in-flight
      // record so it executes the op autonomously -- the base never
      // re-runs the trigger (error avoidance for read-path bugs).
      note();
      seq = oplog_.append_started(std::move(req)).seq;
    }
    auto rec = recover(e.site(), seq);
    if (!rec.ok()) return Errno::kIo;
    // recover() already re-issued an in-flight sync (inflight_retry_syncs).
    if (op_is_sync(kind)) return OpOutcome{};
    for (auto& [s, out] : rec.value().inflight_results) {
      if (s == seq) return std::move(out);
    }
    // The shadow produced no result for the in-flight op: refuse rather
    // than guess.
    return Errno::kIo;
  }
}

}  // namespace raefs
